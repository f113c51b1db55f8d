"""Transient-impact kernel estimation and signature-plot diagnostics.

Mid-price moves are modelled as a sum of decaying responses to signed
events. Estimation works from the sample response S(l) (mean one-step move
against the sign l-1 events back), the sign/volume correlation C(n) and a
lag-zero projection G(0); the kernel increments solve a Toeplitz-like
linear system. A two-type variant treats customer buys and sells as
distinct events with their own kernels (block system over conditional
statistics).

All series fed here are in event time with mid-prices in basis-point units
(relative price changes), so bonds of different price levels are
comparable and kernels come out in bp.

Signature plots let an event's impact enter the mid at its own index, as the
generative mid-price equation does; the published closed form starts it one
index later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .ingest import TradeTable

EVENT_TYPES = (1, -1)
CONDITION_LIMIT = 1e12


@dataclass
class SignSeries:
    """Signed event series of one bond: sign, volume, bp-scale mid.

    An event's type is its sign: customer buys and sells are the two types.
    """

    cusip: str
    epsilon: np.ndarray  # +1 / -1
    volume: np.ndarray
    mid: np.ndarray  # mid after each event, basis-point units
    alpha: float = 0.0
    mid_source: str = "mids"

    def __post_init__(self) -> None:
        t = len(self.epsilon)
        if not (len(self.volume) == len(self.mid) == t):
            raise DataError("sign series arrays must share one length")
        if np.any(self.epsilon == 0):
            raise DataError("zero-sign events must be excluded upstream")
        if not np.all(np.isfinite(self.volume) & (self.volume > 0)):
            raise DataError("volumes must be positive and finite")
        if not np.all(np.isfinite(self.mid)):
            raise DataError("mid-prices must be finite")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise DataError("power index must be finite and >= 0")

    @property
    def t(self) -> int:
        return len(self.epsilon)

    @property
    def signed_volume(self) -> np.ndarray:
        """V^alpha * epsilon for each event."""
        return self.volume**self.alpha * self.epsilon

    @property
    def returns(self) -> np.ndarray:
        """One-step mid moves R_k = M_{k+1} - M_k, length T-1."""
        return np.diff(self.mid)

    @classmethod
    def from_signed_trades(
        cls,
        trades: TradeTable,
        alpha: float = 0.0,
        mids: Sequence[float] | None = None,
    ) -> "SignSeries":
        """Event series from the non-zero-sign trades of one bond.

        When per-trade mid estimates are not supplied, trade prices stand in
        and the fallback is flagged via ``mid_source``.
        """
        events = trades.epsilon != 0
        if not events.any():
            raise DataError("no signed events in input")
        eps = trades.epsilon[events].astype(float)
        vol = trades.volume[events]
        if mids is not None:
            if len(mids) != len(eps):
                raise DataError("mid series length must match signed events")
            prices = np.asarray(mids, dtype=float)
            source = "mids"
        else:
            prices = trades.price[events]
            source = "trade_prices"
        mid_bp = 1e4 * (np.log(prices) - math.log(prices[0]))
        return cls(
            cusip=trades.cusips[trades.codes[np.argmax(events)]],
            epsilon=eps,
            volume=vol,
            mid=mid_bp,
            alpha=alpha,
            mid_source=source,
        )


@dataclass
class LagSeries:
    """Estimates indexed by integer lag over a contiguous range."""

    min_lag: int
    values: np.ndarray

    def __call__(self, lag: int) -> float:
        idx = lag - self.min_lag
        if idx < 0 or idx >= len(self.values):
            raise DataError(f"lag {lag} outside estimated range")
        return float(self.values[idx])


def _check_length(t: int, max_abs_lag: int) -> None:
    if t <= max_abs_lag + 10:
        raise DataError(f"need more than {max_abs_lag + 10} events, got {t}")


def _lagged_mean(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """Mean over t of a[t] * b[t + n]."""
    t = len(a)
    if n >= 0:
        return float(a[: t - n] @ b[n:]) / (t - n)
    return float(a[-n:] @ b[: t + n]) / (t + n)


def estimate_correlation(series: SignSeries, lags: Sequence[int]) -> LagSeries:
    """Sample C(n) = mean of V_{t+n}^alpha eps_{t+n} eps_t over a lag range."""
    lags = sorted(set(int(n) for n in lags))
    lo, hi = lags[0], lags[-1]
    _check_length(series.t, max(abs(lo), abs(hi)))
    u = series.signed_volume
    eps = series.epsilon
    values = np.array([_lagged_mean(eps, u, n) for n in range(lo, hi + 1)])
    return LagSeries(min_lag=lo, values=values)


def estimate_response(series: SignSeries, l_max: int) -> LagSeries:
    """Sample S(l) = mean of R_k * eps_{k-l+1} for l = 1..l_max."""
    _check_length(series.t, l_max + 1)
    r = series.returns
    eps = series.epsilon
    t = series.t
    values = np.array([float(r[l - 1 :] @ eps[: t - l]) / (t - l) for l in range(1, l_max + 1)])
    return LagSeries(min_lag=1, values=values)


def estimate_g0(series: SignSeries) -> float:
    """Lag-zero kernel value: projection of R_k on the next signed volume."""
    _check_length(series.t, 1)
    r = series.returns
    u = series.signed_volume[1:]
    den = float(np.mean(series.volume[1:] ** (2 * series.alpha)))
    if den == 0.0:
        raise NumericalError("zero denominator in lag-zero projection")
    return float(r @ u) / len(r) / den


@dataclass
class ImpactKernel:
    cusip: str
    event_type: int | None  # +1 / -1, or None for the single-event model
    delta: np.ndarray  # increments Delta_1 G(0..N-1)
    g: np.ndarray  # cumulative kernel G(0..N)
    n_lags: int
    l_lags: int
    condition_number: float

    @property
    def g0(self) -> float:
        return float(self.g[0])

    def extended(self, lag: int) -> float:
        """Kernel beyond the estimated range holds the permanent level G(N)."""
        return float(self.g[min(lag, self.n_lags)])


def _accumulate(cusip, event_type, delta, n_lags, l_lags, g0, cond) -> ImpactKernel:
    g = np.concatenate([[g0], g0 + np.cumsum(delta)])
    return ImpactKernel(
        cusip=cusip,
        event_type=event_type,
        delta=np.asarray(delta, dtype=float),
        g=g,
        n_lags=n_lags,
        l_lags=l_lags,
        condition_number=cond,
    )


def solve_tim1(
    corr: LagSeries,
    resp: LagSeries,
    g0: float,
    n_lags: int = 10,
    l_lags: int = 10,
    cusip: str = "",
) -> ImpactKernel:
    """Invert the single-event response system for the kernel increments.

    Solves Cbar . dG = Sbar with Cbar[l, j] = C(l - j) and
    Sbar[l] = S(l) - G(0) C(l); square systems by LU with partial pivoting,
    overdetermined ones (L > N) by least squares.
    """
    if l_lags < n_lags:
        raise DataError("need l_lags >= n_lags")
    cbar = np.empty((l_lags, n_lags))
    for l in range(1, l_lags + 1):
        for j in range(1, n_lags + 1):
            cbar[l - 1, j - 1] = corr(l - j)
    sbar = np.array([resp(l) - g0 * corr(l) for l in range(1, l_lags + 1)])
    cond = float(np.linalg.cond(cbar))
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericalError(
            f"response correlation matrix is ill-conditioned (cond={cond:.3g}); "
            "reduce the kernel length or use more data"
        )
    if l_lags == n_lags:
        delta = np.linalg.solve(cbar, sbar)
    else:
        delta, *_ = np.linalg.lstsq(cbar, sbar, rcond=None)
    return _accumulate(cusip, None, delta, n_lags, l_lags, g0, cond)


def estimate_tim1(series: SignSeries, n_lags: int = 10, l_lags: int = 10) -> ImpactKernel:
    """Estimate C, S and G(0) from a series, then invert the system."""
    corr = estimate_correlation(series, range(1 - n_lags, l_lags + 1))
    resp = estimate_response(series, l_lags)
    g0 = estimate_g0(series)
    return solve_tim1(corr, resp, g0, n_lags, l_lags, cusip=series.cusip)


# -- two-event model ---------------------------------------------------------


def _type_indicator(series: SignSeries, pi: int) -> np.ndarray:
    return (series.epsilon == pi).astype(float)


def estimate_g0_by_type(series: SignSeries) -> dict[int, float]:
    """Per-type lag-zero values via a joint covariance projection.

    The one-step return is regressed on both contemporaneous per-type signed
    volumes at once (centered). Solving jointly matters: the two indicator
    regressors are correlated, and separate univariate projections pick up
    the other type's mean response. When the two regressors are collinear
    (alpha = 0 makes them affinely dependent), the common projection is the
    only identifiable quantity and is used for both types.
    """
    r = series.returns
    x = {pi: series.signed_volume[1:] * _type_indicator(series, pi)[1:] for pi in EVENT_TYPES}
    for pi in EVENT_TYPES:
        if not _type_indicator(series, pi).any():
            raise NumericalError(f"no events of type {pi:+d} for the lag-zero projection")
    xc = {pi: v - v.mean() for pi, v in x.items()}
    rc = r - r.mean()
    gram = np.array(
        [[float(xc[pi] @ xc[pj]) for pj in EVENT_TYPES] for pi in EVENT_TYPES]
    )
    rhs = np.array([float(xc[pi] @ rc) for pi in EVENT_TYPES])
    scale = float(np.trace(gram))
    if scale <= 0:
        raise NumericalError("degenerate signed volumes in the lag-zero projection")
    if np.linalg.cond(gram) > 1e10:
        pooled = estimate_g0(series)
        return {pi: pooled for pi in EVENT_TYPES}
    sol = np.linalg.solve(gram, rhs)
    return {pi: float(sol[i]) for i, pi in enumerate(EVENT_TYPES)}


def estimate_conditional_response(series: SignSeries, pi: int, l_max: int) -> LagSeries:
    """S_pi(l): mean of R_k eps_{k-l+1} conditional on that event's type."""
    _check_length(series.t, l_max + 1)
    r = series.returns
    eps = series.epsilon
    ind = _type_indicator(series, pi)
    t = series.t
    values = np.empty(l_max)
    for l in range(1, l_max + 1):
        sel = ind[: t - l]
        count = float(sel.sum())
        if count == 0:
            raise DataError(f"no events of type {pi:+d} at lag {l}")
        values[l - 1] = float(r[l - 1 :] @ (eps[: t - l] * sel)) / count
    return LagSeries(min_lag=1, values=values)


def estimate_cross_correlation(
    series: SignSeries, pi: int, pi_prime: int, lags: Sequence[int]
) -> LagSeries:
    """Probability-weighted conditional correlation Ctilde_{pi,pi'}(n).

    Equals P(pi_{t+n} = pi' | pi_t = pi) * E[eps_t eps_{t+n} V_{t+n}^alpha |
    both types], estimated as one ratio so the weights cancel consistently.
    """
    lags = sorted(set(int(n) for n in lags))
    lo, hi = lags[0], lags[-1]
    _check_length(series.t, max(abs(lo), abs(hi)))
    eps = series.epsilon
    u = series.signed_volume
    ind_a = _type_indicator(series, pi)
    ind_b = _type_indicator(series, pi_prime)
    a = eps * ind_a
    b = u * ind_b
    t = series.t
    values = np.empty(hi - lo + 1)
    for n in range(lo, hi + 1):
        if n >= 0:
            num = float(a[: t - n] @ b[n:])
            den = float(ind_a[: t - n].sum())
        else:
            num = float(a[-n:] @ b[: t + n])
            den = float(ind_a[-n:].sum())
        if den == 0:
            raise DataError(f"no events of type {pi:+d} in the lag-{n} window")
        values[n - lo] = num / den
    return LagSeries(min_lag=lo, values=values)


def _tim2_blocks(
    ctilde: Mapping[tuple[int, int], LagSeries],
    resp: Mapping[int, LagSeries],
    g0: Mapping[int, float],
    n_lags: int,
    l_lags: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the two-type block system.

    Row blocks are the conditional responses per type, column blocks the
    per-type kernel increments; each block is the Toeplitz-like layout of
    the single-event system built from Ctilde_{pi,pi'}.
    """
    big = np.empty((2 * l_lags, 2 * n_lags))
    rhs = np.empty(2 * l_lags)
    for bi, pi in enumerate(EVENT_TYPES):
        for l in range(1, l_lags + 1):
            row = bi * l_lags + l - 1
            for bj, pj in enumerate(EVENT_TYPES):
                c = ctilde[(pi, pj)]
                for j in range(1, n_lags + 1):
                    big[row, bj * n_lags + j - 1] = c(l - j)
            rhs[row] = resp[pi](l) - sum(g0[pj] * ctilde[(pi, pj)](l) for pj in EVENT_TYPES)
    return big, rhs


def solve_tim2_system(
    ctilde: Mapping[tuple[int, int], LagSeries],
    resp: Mapping[int, LagSeries],
    g0: Mapping[int, float],
    n_lags: int,
    l_lags: int,
    cusip: str = "",
) -> dict[int, ImpactKernel]:
    """Solve the two-type block system for both kernels (see ``_tim2_blocks``)."""
    if l_lags < n_lags:
        raise DataError("need l_lags >= n_lags")
    big, rhs = _tim2_blocks(ctilde, resp, g0, n_lags, l_lags)
    cond = float(np.linalg.cond(big))
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericalError(
            f"two-type system is ill-conditioned (cond={cond:.3g}); "
            "reduce the kernel length or use more data"
        )
    if l_lags == n_lags:
        delta = np.linalg.solve(big, rhs)
    else:
        delta, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    out: dict[int, ImpactKernel] = {}
    for bi, pi in enumerate(EVENT_TYPES):
        part = delta[bi * n_lags : (bi + 1) * n_lags]
        out[pi] = _accumulate(cusip, pi, part, n_lags, l_lags, g0[pi], cond)
    return out


def _volume_covariance_rows(
    series: SignSeries, n_lags: int
) -> tuple[np.ndarray, np.ndarray]:
    """Extra moment equations pinning the buy/sell split of the increments.

    The block system built from sign projections is rank-deficient for
    sign-typed events: shifting both increment kernels oppositely by a
    zero-sum amount changes returns only through a sign-independent term
    that every S / Ctilde projection annihilates. The covariance of the
    return with the raw (unsigned) lagged volume does see that term:

        E[R_k (V_{k-j}^a - E V^a)] = sum_pi pi w_pi dG_pi(j),
        w_pi = E[V^2a 1(pi)] - E[V^a] E[V^a 1(pi)]

    so these rows complete the system whenever volumes carry information
    (alpha > 0). At alpha = 0 they vanish and the solver falls back to the
    minimum-norm representative of the unidentifiable family.
    """
    r = series.returns
    va = series.volume**series.alpha
    m1 = float(va.mean())
    t_rows = np.empty(n_lags)
    for j in range(n_lags):
        seg = va[: len(r) - j]
        t_rows[j] = float(r[j:] @ (seg - m1)) / (len(r) - j)
    coefs = {}
    for pi in EVENT_TYPES:
        ind = _type_indicator(series, pi)
        coefs[pi] = pi * (float(np.mean(va * va * ind)) - m1 * float(np.mean(va * ind)))
    rows = np.zeros((n_lags, 2 * n_lags))
    for j in range(n_lags):
        for bj, pj in enumerate(EVENT_TYPES):
            rows[j, bj * n_lags + j] = coefs[pj]
    return rows, t_rows


def solve_tim2(
    series: SignSeries, n_lags: int = 10, l_lags: int = 10, min_type_events: int = 100
) -> dict[int, ImpactKernel]:
    """Estimate conditional statistics and solve the augmented two-type system.

    The printed block system is solved jointly with the volume-covariance
    rows by least squares; small singular values are truncated, so an
    unidentifiable direction (alpha = 0) yields the minimum-norm kernel
    pair rather than noise amplification.
    """
    if l_lags < n_lags:
        raise DataError("need l_lags >= n_lags")
    for pi in EVENT_TYPES:
        count = int((series.epsilon == pi).sum())
        if count < min_type_events:
            raise DataError(
                f"type {pi:+d} has {count} events; need at least {min_type_events}"
            )
    lag_range = range(1 - n_lags, l_lags + 1)
    ctilde = {
        (pi, pj): estimate_cross_correlation(series, pi, pj, lag_range)
        for pi in EVENT_TYPES
        for pj in EVENT_TYPES
    }
    resp = {pi: estimate_conditional_response(series, pi, l_lags) for pi in EVENT_TYPES}
    g0 = estimate_g0_by_type(series)

    big, rhs = _tim2_blocks(ctilde, resp, g0, n_lags, l_lags)
    aug, aug_rhs = _volume_covariance_rows(series, n_lags)
    stacked = np.vstack([big, aug])
    stacked_rhs = np.concatenate([rhs, aug_rhs])

    rcond = 1e-10
    delta, _, rank, sv = np.linalg.lstsq(stacked, stacked_rhs, rcond=rcond)
    kept = sv[sv > rcond * sv[0]]
    cond = float(kept[0] / kept[-1]) if kept.size else math.inf
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericalError(
            f"two-type system is ill-conditioned (cond={cond:.3g}); "
            "reduce the kernel length or use more data"
        )
    out: dict[int, ImpactKernel] = {}
    for bi, pi in enumerate(EVENT_TYPES):
        part = delta[bi * n_lags : (bi + 1) * n_lags]
        out[pi] = _accumulate(series.cusip, pi, part, n_lags, l_lags, g0[pi], cond)
    return out


# -- signature plots ---------------------------------------------------------


@dataclass
class EmpiricalSignature:
    lags: np.ndarray
    d: np.ndarray
    se: np.ndarray  # overlap-adjusted standard errors


def empirical_signature(mids: Sequence[float], l_max: int) -> EmpiricalSignature:
    """Per-lag diffusion D(l) = mean((M_{t+l} - M_t)^2) / l."""
    m = np.asarray(mids, dtype=float)
    t = len(m)
    if t <= l_max + 1:
        raise DataError(f"need more than {l_max + 1} mids, got {t}")
    lags = np.arange(1, l_max + 1)
    d = np.empty(l_max)
    se = np.empty(l_max)
    for l in lags:
        sq = (m[l:] - m[:-l]) ** 2
        d[l - 1] = float(sq.mean()) / l
        n_eff = len(sq) / l  # overlapping windows: ~T/l independent terms
        se[l - 1] = float(sq.std(ddof=1)) / math.sqrt(n_eff) / l
    return EmpiricalSignature(lags=lags, d=d, se=se)


def fit_d_const(d_partial: np.ndarray, d_emp: np.ndarray) -> float:
    """Least-squares level shift aligning a model signature with data."""
    return float(np.mean(np.asarray(d_emp) - np.asarray(d_partial)))


def _window_weights(kernel: ImpactKernel, n: int, l: int) -> np.ndarray:
    """Each event's share of M(t+l) - M(t), at positions -(n-1) .. l.

    The n past events (positions -(n-1) .. 0, m = n-1 .. 0 events before the
    window) move it by G(l+m) - G(m), the l events inside the window
    (positions 1 .. l) by G(l-1) .. G(0). Earlier events sit on the kernel's
    permanent level at both ends and add nothing.
    """
    g = kernel.g[np.minimum(np.arange(n + l), kernel.n_lags)]  # extended to lag n + l - 1
    m = np.arange(n - 1, -1, -1)
    return np.concatenate([g[l + m] - g[m], g[l - 1 :: -1]])


def _quadratic_signature(
    kernels: Sequence[ImpactKernel],
    moment: Callable[[int], Sequence[Sequence[float]]],
    mu: Sequence[float],
    l_max: int,
    d_const: float,
) -> np.ndarray:
    """Model signature l D(l) = w'Kw + l^2 drift^2 over one or more event types.

    w[i, a] is what an event of type a at position i adds to M(t+l) - M(t)
    (see ``_window_weights``). K[i, j, a, b] is ``moment(|i - j|)`` at
    [type of the earlier event, type of the later one]: the centered joint
    moment of the two events' signed volumes. The centering leaves out the
    non-decaying mean-flow part of the moments, which telescopes under the
    permanent-level kernel extension and is resummed exactly as a drift of
    sum_a mu[a] G_a(N) per event.
    """
    n = max(k.n_lags for k in kernels)
    # every lag 0 .. n + l_max - 1 enters; one beyond the estimates raises DataError
    centered = np.array([moment(d) for d in range(n + l_max)], dtype=float)
    index = np.arange(n + l_max)
    gap = index[None, :] - index[:, None]
    k = centered[np.abs(gap)]
    k = np.where((gap >= 0)[:, :, None, None], k, k.transpose(0, 1, 3, 2))
    out = np.empty(l_max)
    for l in range(1, l_max + 1):
        w = np.stack([_window_weights(kernel, n, l) for kernel in kernels], axis=1)
        size = n + l  # the window of l shares K's top-left block with the longest one
        # an elementwise sum, not BLAS: the bytes stay the same on every CPU
        quad = float((w[:, None, :, None] * k[:size, :size] * w[None, :, None, :]).sum())
        drift = sum(m * kernel.extended(n + l) for m, kernel in zip(mu, kernels))
        out[l - 1] = quad / l + l * drift * drift + d_const
    return out


def model_signature_tim1(
    kernel: ImpactKernel,
    corr: LagSeries,
    l_max: int,
    d_const: float = 0.0,
    mean_flow: float = 0.0,
) -> np.ndarray:
    """Model-implied signature plot for the single-event kernel.

    Sums the squared kernel contributions of events inside and before the
    window plus the correlation-induced cross terms; the kernel is extended
    past its last lag at the permanent level, which truncates the infinite
    sums. ``corr`` must carry the squared volume weight when the power
    index is nonzero (it reduces to the plain sign correlation at zero).

    ``mean_flow`` is the mean signed volume E[V^a eps]. When it is nonzero
    the correlation does not decay to zero, so the non-decaying part of the
    infinite sums is removed by centering and resummed exactly: under the
    permanent-level extension it telescopes to a drift of
    mean_flow * G(N) per event.
    """
    mu2 = mean_flow * mean_flow
    return _quadratic_signature(
        [kernel], lambda d: [[corr(d) - mu2]], [mean_flow], l_max, d_const
    )


@dataclass
class PairMoments:
    """Joint sign/volume/type moments W(pi, pi', d) for d >= 0.

    W is the mean of u_t u_{t+d} 1(type_t = pi) 1(type_{t+d} = pi') with
    u = V^alpha eps; the first index is the earlier event. Summing over the
    type pair gives the merged two-volume correlation. ``mu`` holds the
    per-type mean flow E[u 1(pi)], whose products are the non-decaying
    floor of W at large distances.
    """

    max_lag: int
    values: dict[tuple[int, int], np.ndarray]
    mu: dict[int, float]

    def __call__(self, pi: int, pi_prime: int, d: int) -> float:
        if d < 0 or d > self.max_lag:
            raise DataError(f"pair-moment lag {d} outside estimated range")
        return float(self.values[(pi, pi_prime)][d])

    def centered(self, pi: int, pi_prime: int, d: int) -> float:
        return self(pi, pi_prime, d) - self.mu[pi] * self.mu[pi_prime]

    def merged_series(self) -> LagSeries:
        total = sum(self.values.values())
        return LagSeries(min_lag=0, values=np.asarray(total, dtype=float))

    @property
    def mean_flow(self) -> float:
        return sum(self.mu.values())


def estimate_pair_moments(series: SignSeries, max_lag: int) -> PairMoments:
    """Sample joint moments for the two-type signature plot."""
    _check_length(series.t, max_lag)
    u = series.signed_volume
    values: dict[tuple[int, int], np.ndarray] = {}
    mu: dict[int, float] = {}
    for pi in EVENT_TYPES:
        a = u * _type_indicator(series, pi)
        mu[pi] = float(a.mean())
        for pj in EVENT_TYPES:
            b = u * _type_indicator(series, pj)
            values[(pi, pj)] = np.array(
                [_lagged_mean(a, b, d) for d in range(max_lag + 1)]
            )
    # lag 0 of unequal types double-counts the same event; it is zero anyway
    return PairMoments(max_lag=max_lag, values=values, mu=mu)


def model_signature_tim2(
    kernels: Mapping[int, ImpactKernel],
    moments: PairMoments,
    l_max: int,
    d_const: float = 0.0,
) -> np.ndarray:
    """Model-implied signature plot for the two-type kernels.

    The quadratic form runs over every ordered event pair with centered
    joint type/sign moments as weights; the non-decaying mean-flow part of
    the moments is resummed exactly into a per-event drift (it telescopes
    under the permanent-level kernel extension). With equal kernels this
    collapses exactly to the single-event formula evaluated on the merged
    correlation and mean flow.
    """
    return _quadratic_signature(
        [kernels[pi] for pi in EVENT_TYPES],
        lambda d: [[moments.centered(pi, pj, d) for pj in EVENT_TYPES] for pi in EVENT_TYPES],
        [moments.mu[pi] for pi in EVENT_TYPES],
        l_max,
        d_const,
    )


def average_kernels(kernels: Sequence[ImpactKernel]) -> ImpactKernel:
    """Equal-weight cross-bond average of kernels estimated per bond."""
    if not kernels:
        raise DataError("no kernels to aggregate")
    first = kernels[0]
    if any(k.n_lags != first.n_lags or k.l_lags != first.l_lags for k in kernels):
        raise DataError("kernels must share lag dimensions to aggregate")
    return ImpactKernel(
        cusip="aggregate",
        event_type=first.event_type,
        delta=np.mean([k.delta for k in kernels], axis=0),
        g=np.mean([k.g for k in kernels], axis=0),
        n_lags=first.n_lags,
        l_lags=first.l_lags,
        condition_number=max(k.condition_number for k in kernels),
    )

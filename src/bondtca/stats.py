"""Statistical tests: one-way ANOVA, Kruskal-Wallis H, two-sample KS, Welch t.

Distribution tails are computed here with numpy and ``math`` only: the
regularized incomplete beta by continued fraction (F and t), closed forms
for chi-squared with integer degrees of freedom, and the normal CDF from
``math.erf``/``erfc``. Ranks use mid-ranks with the standard tie correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, NumericalError


@dataclass(slots=True)
class TestResult:
    statistic: float
    p_value: float
    df: tuple[float, ...] = ()
    sample_sizes: tuple[int, ...] = ()
    degenerate: bool = False


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
# B_2k / (2k (2k - 1)) for k = 1..6, the terms of Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_FROM = 10.0  # the series' first omitted term is below 1e-15 from here on
_CF_TOL = 1e-15
_CF_MAX_ITER = 100_000
_FLOAT_EDGE = 1e-300  # below this, floats lose digits (subnormals) and then underflow


def _stirling(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), for z >= _STIRLING_FROM."""
    w = 1.0 / (z * z)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * w + c
    return total / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), without the cancellation of three large lgamma values."""
    small, big = min(a, b), max(a, b)
    if big < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    correction = _stirling(big) - _stirling(small + big)
    if small < _STIRLING_FROM:
        # log Gamma(big + small) - log Gamma(big), from Stirling's series for both
        log_ratio = (big - 0.5) * math.log1p(small / big) + small * math.log(small + big) - small
        return math.lgamma(small) - log_ratio + correction
    return (
        _HALF_LOG_2PI
        - (big - 0.5) * math.log1p(small / big)
        + (small - 0.5) * math.log(small / (small + big))
        - 0.5 * math.log(small + big)
        + _stirling(small)
        + correction
    )


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b); the caller passes y = 1 - x.

    Both x and y are arguments so that the one near 0 keeps its relative
    precision: 1 - x rounded near x = 1 would cost up to a * eps in the
    result. The continued fraction is taken on the side of the mean where
    it converges (lambda = a - (a + b) x >= 0); the other side is the
    complement 1 - I_y(b, a).
    """
    if math.isnan(a + b + x + y):
        return math.nan
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    if lam < 0.0:
        return 1.0 - _beta_fraction(b, a, y, x, -lam)
    return _beta_fraction(a, b, x, y, lam)


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) for lam = a - (a + b) x >= 0, by continued fraction.

    The fraction is Didonato and Morris's (ACM TOMS 708, ``bfrac``): it is
    written in lam, so for large a it does not cancel as x approaches the
    mean. It is evaluated from the front with the modified Lentz method.
    """
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    log_front = a * log_x + b * log_y - _log_beta(a, b)
    c = lam + 1.0
    value = a * c / (a + 1.0)  # beta_1; the fraction is 1 / (beta_1 + alpha_2 / (beta_2 + ...))
    num, den = value, 0.0
    for n in range(1, _CF_MAX_ITER):
        s = a + 2 * n - 1
        alpha = (a + n - 1) * (a + b + n - 1) * n * (b - n) * x * x / (s * s)
        beta = n + n * (b - n) * x / s + (a + n) / (s + 2.0) * (c + n * (1.0 + y))
        den = 1.0 / (beta + alpha * den)
        num = beta + alpha / num
        step = num * den
        value *= step
        if abs(step - 1.0) <= _CF_TOL:
            return math.exp(log_front) / value
    raise NumericalError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper tail of the F(d1, d2) distribution: I_x(d2/2, d1/2) at x = d2 / (d2 + d1 f)."""
    if math.isinf(f):
        return 0.0
    if f <= 0:
        return 1.0
    q = d1 * f
    return _betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + q), q / (d2 + q))


def _poisson_sum(z: float, start: float, count: int) -> float:
    """exp(-z) * sum of z^(start + j) / Gamma(start + j + 1) over j < count.

    Every term is a ratio to the largest one, so none under- or overflows.
    """
    if count == 0:
        return 0.0
    peak = min(count - 1, max(0, math.floor(z - start)))
    total = term = 1.0
    for j in range(peak, 0, -1):
        term *= (start + j) / z
        total += term
    term = 1.0
    for j in range(peak + 1, count):
        term *= z / (start + j)
        total += term
    n = start + peak
    return math.exp(n * math.log(z) - z - math.lgamma(n + 1.0)) * total


def chi2_sf(x: float, k: int) -> float:
    """Upper tail of the chi-squared distribution with an integer k >= 1 degrees of freedom.

    Closed forms of Q(k/2, x/2): a finite Poisson sum for even k, and
    erfc plus a sum over half-integers for odd k.
    """
    if x <= 0:
        return 1.0
    z = x / 2.0
    if k % 2 == 0:
        return _poisson_sum(z, 0.0, k // 2)
    return math.erfc(math.sqrt(z)) + _poisson_sum(z, 0.5, (k - 1) // 2)


def t_sf(t: float, df: float) -> float:
    """Upper tail of Student's t; for t > 0, I_x(df/2, 1/2) / 2 at x = df / (df + t^2)."""
    if t < 0:
        return 1.0 - t_sf(-t, df)
    if t == 0:
        return 0.5
    if math.isinf(t):
        return 0.0
    if t < 1.0:
        t2 = t * t
        x, y = df / (df + t2), t2 / (df + t2)
    else:  # the same ratios, without overflow in t^2
        s = df / t
        x, y = s / (t + s), t / (t + s)
        if x < _FLOAT_EDGE:  # then I_x(a, 1/2) = x^a / (a B(a, 1/2)); in logs, as x underflows
            a = df / 2.0
            log_x = math.log(s) - math.log(t + s)
            return 0.5 * math.exp(a * log_x - math.log(a) - _log_beta(a, 0.5))
    return 0.5 * _betainc(df / 2.0, 0.5, x, y)


def ndtr(x: float) -> float:
    """Standard normal CDF, as cephes forms it from erf and erfc."""
    z = x * _SQRT_HALF
    if abs(z) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def _mid_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks, ties sharing their mean rank, and the size of each tie group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse], counts


def _as_groups(groups: Iterable[Sequence[float]]) -> list[np.ndarray]:
    return [np.asarray(g, dtype=float) for g in groups]


def anova_f(groups: Iterable[Sequence[float]]) -> TestResult:
    """One-way ANOVA F-test with the standard (W-1, n-W) degrees of freedom."""
    gs = _as_groups(groups)
    if len(gs) < 2:
        raise DataError("ANOVA needs at least two groups")
    if any(g.size < 2 for g in gs):
        raise DataError("ANOVA needs at least two observations per group")
    n = sum(g.size for g in gs)
    w = len(gs)
    grand = sum(float(g.sum()) for g in gs) / n
    ssb = sum(g.size * (float(g.mean()) - grand) ** 2 for g in gs)
    ssw = sum(float(np.sum((g - g.mean()) ** 2)) for g in gs)
    d1, d2 = w - 1, n - w
    sizes = tuple(g.size for g in gs)
    if ssw == 0.0:
        if ssb == 0.0:
            return TestResult(0.0, 1.0, (d1, d2), sizes, degenerate=True)
        return TestResult(math.inf, 0.0, (d1, d2), sizes, degenerate=True)
    f = (ssb / d1) / (ssw / d2)
    return TestResult(f, f_sf(f, d1, d2), (d1, d2), sizes)


def kruskal_h(groups: Iterable[Sequence[float]]) -> TestResult:
    """Kruskal-Wallis H with mid-ranks and the tie correction."""
    gs = _as_groups(groups)
    if len(gs) < 2:
        raise DataError("Kruskal-Wallis needs at least two groups")
    n = sum(g.size for g in gs)
    if n < 3:
        raise DataError("Kruskal-Wallis needs at least three observations in total")
    pooled = np.concatenate(gs)
    ranks, counts = _mid_ranks(pooled)
    w = len(gs)
    sizes = tuple(g.size for g in gs)
    h = 0.0
    offset = 0
    for g in gs:
        t_sum = float(ranks[offset : offset + g.size].sum())
        h += t_sum * t_sum / g.size
        offset += g.size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    tie_adj = 1.0 - float(np.sum(counts**3 - counts)) / (n**3 - n)
    if tie_adj == 0.0:
        return TestResult(0.0, 1.0, (w - 1,), sizes, degenerate=True)
    h /= tie_adj
    return TestResult(h, chi2_sf(h, w - 1), (w - 1,), sizes)


def ks_two_sample(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    The statistic is sqrt(mn/(m+n)) times the sup distance between the
    empirical CDFs; the p-value is the alternating exponential series
    2 * sum (-1)^(i-1) exp(-2 i^2 D^2), truncated at 1e-10 terms and
    clamped to [0, 1].
    """
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))
    m, n = xs.size, ys.size
    if m < 1 or n < 1:
        raise DataError("KS needs at least one observation per sample")
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / m
    fy = np.searchsorted(ys, grid, side="right") / n
    sup = float(np.max(np.abs(fx - fy)))
    d = math.sqrt(m * n / (m + n)) * sup
    if d == 0.0:
        return TestResult(0.0, 1.0, sample_sizes=(m, n))
    total = 0.0
    i = 1
    while True:
        term = math.exp(-2.0 * i * i * d * d)
        if term < 1e-10:
            break
        total += term if i % 2 == 1 else -term
        i += 1
    p = min(1.0, max(0.0, 2.0 * total))
    return TestResult(d, p, sample_sizes=(m, n))


def welch_t(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Welch's unequal-variance t-test with Satterthwaite degrees of freedom."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    m, n = xs.size, ys.size
    if m < 2 or n < 2:
        raise DataError("Welch t needs at least two observations per sample")
    vx = float(xs.var(ddof=1))
    vy = float(ys.var(ddof=1))
    diff = float(xs.mean() - ys.mean())
    se2 = vx / m + vy / n
    if se2 == 0.0:
        if diff == 0.0:
            return TestResult(0.0, 1.0, sample_sizes=(m, n), degenerate=True)
        return TestResult(math.copysign(math.inf, diff), 0.0, sample_sizes=(m, n), degenerate=True)
    t = diff / math.sqrt(se2)
    df = se2**2 / ((vx / m) ** 2 / (m - 1) + (vy / n) ** 2 / (n - 1))
    p = 2.0 * t_sf(abs(t), df)
    return TestResult(t, p, (df,), (m, n))

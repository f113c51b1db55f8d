import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondtca.errors import DataError, NumericalError
from bondtca.impact import (
    EVENT_TYPES,
    ImpactKernel,
    LagSeries,
    PairMoments,
    SignSeries,
    average_kernels,
    empirical_signature,
    estimate_correlation,
    estimate_g0,
    estimate_pair_moments,
    estimate_response,
    estimate_tim1,
    fit_d_const,
    model_signature_tim1,
    model_signature_tim2,
    solve_tim1,
    solve_tim2,
    solve_tim2_system,
)
from bondtca.ingest import TradeTable
from bondtca.synthgen import KernelSpec, SignProcess, SynthConfig, generate_tim_series

from conftest import make_trade, ts


def series_from(eps, mid, volume=None, alpha=0.0):
    eps = np.asarray(eps, dtype=float)
    volume = np.ones_like(eps) if volume is None else np.asarray(volume, dtype=float)
    return SignSeries(
        cusip="X",
        epsilon=eps,
        volume=volume,
        mid=np.asarray(mid, dtype=float),
        alpha=alpha,
    )


@pytest.mark.parametrize(
    "volume, mid, alpha",
    [([1.0, math.nan], [0.0, 1.0], 0.0), ([1.0, 1.0], [0.0, math.inf], 0.0),
     ([1.0, 1.0], [0.0, 1.0], math.nan), ([1.0, 1.0], [0.0, 1.0], -1.0)],
)
def test_sign_series_rejects_non_finite(volume, mid, alpha):
    with pytest.raises(DataError):
        series_from([1, -1], mid, volume=volume, alpha=alpha)


@pytest.mark.parametrize(
    "volume, alpha",
    [(1e6, 30.0), (1e6, 1e308), (2.0, 600.0), (0.5, 600.0), (1e-300, 2.0)],
)
def test_sign_series_names_alpha_out_of_the_float_range(volume, alpha):
    # V^(2 alpha) overflows, or underflows to zero for every event
    with pytest.raises(NumericalError, match=re.escape(f"alpha={alpha!r}")):
        series_from([1, -1], [0.0, 1.0], volume=[volume, volume], alpha=alpha)
    series_from([1, -1], [0.0, 1.0], volume=[volume, volume], alpha=0.25)


def lag_series(values):
    """A LagSeries from a {lag: value} mapping over a contiguous range of lags."""
    lags = sorted(values)
    assert lags == list(range(lags[0], lags[-1] + 1)), "lags must be contiguous"
    return LagSeries(min_lag=lags[0], values=np.array([values[n] for n in lags], dtype=float))


def delta_series(c0=1.0, lo=-15, hi=25):
    return lag_series({n: (c0 if n == 0 else 0.0) for n in range(lo, hi + 1)})


def kernel_from_g(g, l_lags=10) -> ImpactKernel:
    g = np.asarray(g, dtype=float)
    return ImpactKernel(
        cusip="X",
        event_type=None,
        delta=np.diff(g),
        g=g,
        n_lags=len(g) - 1,
        l_lags=l_lags,
        condition_number=1.0,
    )


class TestCorrelation:
    def test_iid_signs(self):
        rng = np.random.default_rng(0)
        eps = rng.choice([-1.0, 1.0], size=20_000)
        s = series_from(eps, np.zeros_like(eps))
        corr = estimate_correlation(s, range(-5, 6))
        assert corr(0) == pytest.approx(1.0)
        t = len(eps)
        for n in (1, 2, 3, -4):
            assert abs(corr(n)) < 3.0 / math.sqrt(t)

    def test_persistent_signs(self):
        eps = np.ones(500)
        s = series_from(eps, np.zeros_like(eps))
        corr = estimate_correlation(s, range(0, 4))
        for n in range(4):
            assert corr(n) == pytest.approx(1.0)

    def test_markov_closed_form(self):
        cfg = SynthConfig(
            seed=2, n_events=100_000, sign=SignProcess("markov", flip_prob=0.3),
            noise_sd_bp=0.0, kernel_buy=KernelSpec("constant", 0.0),
        )
        s, manifest = generate_tim_series(cfg)
        corr = estimate_correlation(s, range(-6, 7))
        t = s.t
        for n in range(-6, 7):
            expect = manifest.analytic_correlation[str(n)]
            assert corr(n) == pytest.approx(expect, abs=3.5 / math.sqrt(t))

    def test_insufficient_events(self):
        s = series_from([1.0, -1.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(DataError, match="need more than"):
            estimate_correlation(s, range(-5, 6))


class TestResponse:
    def test_constant_mid(self):
        rng = np.random.default_rng(1)
        eps = rng.choice([-1.0, 1.0], size=500)
        s = series_from(eps, np.zeros_like(eps))
        resp = estimate_response(s, 5)
        for l in range(1, 6):
            assert resp(l) == 0.0

    def test_mid_jumps_with_sign(self):
        rng = np.random.default_rng(2)
        eps = rng.choice([-1.0, 1.0], size=50_000)
        g = 2.5
        mid = np.cumsum(g * eps)  # event k moves the mid by g*eps_k, permanently
        s = series_from(eps, mid)
        resp = estimate_response(s, 4)
        # R_k = g eps_{k+1}: S(1) = g E[eps_{k+1} eps_k] ~ 0... the jump lands
        # one step ahead, so S(l) probes eps_{k-l+1} against g eps_{k+1}
        t = s.t
        for l in range(2, 5):
            assert abs(resp(l)) < 3 * g / math.sqrt(t)

    def test_tim1_series_matches_analytic_s(self):
        # S(l) = G(0) C(l) + sum_j dG(j) C(l-j-1); iid signs make C = delta
        cfg = SynthConfig(
            seed=3, n_events=200_000, kernel_buy=KernelSpec("exponential", 25.0, beta=0.4),
            noise_sd_bp=5.0,
        )
        s, manifest = generate_tim_series(cfg)
        resp = estimate_response(s, 8)
        truth = np.array(manifest.truth_kernels["+1"])
        dg = np.diff(truth)
        se = np.std(s.returns) / math.sqrt(s.t)
        for l in range(1, 9):
            assert resp(l) == pytest.approx(dg[l - 1], abs=3.5 * se)


class TestG0:
    def test_exact_jump_recovery(self):
        rng = np.random.default_rng(4)
        eps = rng.choice([-1.0, 1.0], size=30_000)
        g = 1.75
        mid = np.cumsum(g * eps)  # M_k = sum_{k' <= k} g eps_k'
        s = series_from(eps, mid)
        assert estimate_g0(s) == pytest.approx(g, abs=1e-12)

    def test_pure_noise_is_zero(self):
        rng = np.random.default_rng(5)
        eps = rng.choice([-1.0, 1.0], size=50_000)
        mid = np.cumsum(rng.normal(size=len(eps)))
        s = series_from(eps, mid)
        assert abs(estimate_g0(s)) < 3.0 / math.sqrt(len(eps))

    def test_synthetic_kernel_g0(self):
        cfg = SynthConfig(
            seed=6, n_events=200_000, kernel_buy=KernelSpec("exponential", 25.0, beta=0.4),
            noise_sd_bp=5.0,
        )
        s, _ = generate_tim_series(cfg)
        assert estimate_g0(s) == pytest.approx(25.0, rel=0.05)


class TestSolveTim1:
    def test_identity_reduction_for_iid(self):
        c0 = 2.0
        corr = delta_series(c0=c0)
        sbar_values = {l: 0.1 * l for l in range(1, 11)}
        resp = lag_series(sbar_values)
        g0 = 0.7
        kernel = solve_tim1(corr, resp, g0, 10, 10)
        for j in range(10):
            assert kernel.delta[j] == pytest.approx(sbar_values[j + 1] / c0, abs=1e-12)

    def test_constant_kernel_fixed_point(self):
        corr = delta_series()
        resp = lag_series({l: 0.0 for l in range(1, 11)})
        kernel = solve_tim1(corr, resp, g0=3.0, n_lags=10, l_lags=10)
        assert np.allclose(kernel.delta, 0.0, atol=1e-14)
        assert np.allclose(kernel.g, 3.0)

    def test_accumulation_identity(self):
        cfg = SynthConfig(seed=7, n_events=50_000)
        s, _ = generate_tim_series(cfg)
        k = estimate_tim1(s, 6, 6)
        for j in range(6):
            assert k.g[j + 1] - k.g[j] == pytest.approx(k.delta[j], abs=1e-12)
        assert k.g[0] == k.g0

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec("exponential", 25.0, beta=0.4),
            KernelSpec("power_law", 25.0, gamma=1.0),
            KernelSpec("constant", 25.0),
        ],
    )
    def test_recovery_by_family(self, spec):
        cfg = SynthConfig(seed=8, n_events=200_000, kernel_buy=spec, noise_sd_bp=5.0)
        s, manifest = generate_tim_series(cfg)
        kernel = estimate_tim1(s, 10, 10)
        truth = np.array(manifest.truth_kernels["+1"])
        rel = np.abs(kernel.g[:6] - truth[:6]) / truth[:6]
        assert np.all(rel <= 0.05)

    def test_overdetermined_least_squares(self):
        cfg = SynthConfig(seed=9, n_events=100_000)
        s, _ = generate_tim_series(cfg)
        k = estimate_tim1(s, 5, 12)
        assert k.n_lags == 5 and k.l_lags == 12
        assert len(k.g) == 6

    def test_ill_conditioned_errors(self):
        flat = lag_series({n: 1.0 for n in range(-15, 16)})
        resp = lag_series({l: 0.1 for l in range(1, 11)})
        with pytest.raises(NumericalError, match="ill-conditioned"):
            solve_tim1(flat, resp, 1.0, 10, 10)

    def test_scale_invariance_under_price_rescaling(self):
        trades = []
        rng = np.random.default_rng(10)
        price = 100.0
        for i in range(3000):
            eps = 1 if rng.random() < 0.5 else -1
            price *= math.exp(eps * 8e-5 + rng.normal() * 3e-5)
            trades.append(
                make_trade(
                    k=i,
                    price=price,
                    leg="customer_buy" if eps > 0 else "customer_sell",
                    timestamp=ts(60.0 * i),
                )
            )
        s1 = SignSeries.from_signed_trades(TradeTable.from_rows(trades))
        scaled = [
            make_trade(k=t.k, price=t.price * 7.0, leg=t.leg, timestamp=t.timestamp)
            for t in trades
        ]
        s2 = SignSeries.from_signed_trades(TradeTable.from_rows(scaled))
        k1 = estimate_tim1(s1, 5, 5)
        k2 = estimate_tim1(s2, 5, 5)
        assert np.max(np.abs(k1.g - k2.g)) < 1e-9
        assert s1.mid_source == "trade_prices"


class TestG0ByType:
    def test_joint_projection_recovers_both_levels(self):
        cfg = SynthConfig(
            seed=21, n_events=200_000, kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
            kernel_sell=KernelSpec("exponential", 20.0, beta=0.4), noise_sd_bp=5.0,
            alpha=1.0, volume_log_mean=0.0, volume_log_sd=1.0, volume_round=0.0,
        )
        s, _ = generate_tim_series(cfg)
        from bondtca.impact import estimate_g0_by_type

        g0 = estimate_g0_by_type(s)
        assert g0[1] == pytest.approx(30.0, rel=0.05)
        assert g0[-1] == pytest.approx(20.0, rel=0.05)

    def test_collinear_regressors_fall_back_to_pooled(self):
        # at alpha = 0 the per-type regressors are affinely dependent
        cfg = SynthConfig(
            seed=22, n_events=100_000, kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
            kernel_sell=KernelSpec("exponential", 20.0, beta=0.4), noise_sd_bp=5.0,
        )
        s, _ = generate_tim_series(cfg)
        from bondtca.impact import estimate_g0_by_type

        g0 = estimate_g0_by_type(s)
        assert g0[1] == g0[-1]


class TestSolveTim2:
    def asym_config(self, seed=0, t=200_000):
        return SynthConfig(
            seed=seed,
            n_events=t,
            kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
            kernel_sell=KernelSpec("exponential", 20.0, beta=0.4),
            noise_sd_bp=5.0,
            alpha=1.0,
            volume_log_mean=0.0,
            volume_log_sd=1.0,
            volume_round=0.0,
        )

    def test_symmetric_generator(self):
        cfg = SynthConfig(
            seed=11, n_events=200_000, kernel_buy=KernelSpec("exponential", 25.0, beta=0.4),
            noise_sd_bp=5.0, alpha=1.0, volume_log_mean=0.0, volume_log_sd=1.0,
            volume_round=0.0,
        )
        s, _ = generate_tim_series(cfg)
        kernels = solve_tim2(s, 10, 10)
        assert np.max(np.abs(kernels[1].g - kernels[-1].g)) < 1.0  # bp

    def test_asymmetric_recovery(self):
        cfg = self.asym_config(seed=12)
        s, manifest = generate_tim_series(cfg)
        kernels = solve_tim2(s, 10, 10)
        tp = np.array(manifest.truth_kernels["+1"])
        tm = np.array(manifest.truth_kernels["-1"])
        assert kernels[1].g[0] > kernels[-1].g[0]
        assert np.abs(kernels[1].g[:2] - tp[:2]).max() / tp[1] < 0.10
        assert np.abs(kernels[-1].g[:2] - tm[:2]).max() / tm[1] < 0.10

    def test_mirrored_series_swaps_the_kernels(self):
        # buys become sells and the mid turns over: each type's response and
        # moments are the other type's, so the tim2 kernels trade places and
        # tim1, which does not tell the types apart, is unchanged
        s, _ = generate_tim_series(self.asym_config(seed=12, t=20_000))
        mirror = dataclasses.replace(s, epsilon=-s.epsilon, mid=-s.mid)
        kernels, mirrored = solve_tim2(s, 10, 10), solve_tim2(mirror, 10, 10)
        assert np.max(np.abs(kernels[1].g - kernels[-1].g)) > 1.0  # the types differ
        for pi in EVENT_TYPES:
            assert np.max(np.abs(mirrored[-pi].g - kernels[pi].g)) <= 9e-14
        assert np.array_equal(estimate_tim1(mirror).g, estimate_tim1(s).g)

    def test_decoupled_block_system_matches_per_type(self):
        # independent typing: zero cross-type correlations decouple the blocks
        n = l = 6
        rng = np.random.default_rng(13)
        diag = {}
        for pi in (1, -1):
            vals = {0: 1.0}
            for lag in range(1, l + n + 1):
                vals[lag] = vals[-lag] = 0.4 ** lag * rng.uniform(0.5, 1.0)
            diag[pi] = lag_series(
                {k: v * 0.5 for k, v in vals.items()}  # P(pi) = 1/2 weight
            )
        zero = lag_series({k: 0.0 for k in range(-(n + 1), l + 1)})
        ctilde = {(1, 1): diag[1], (-1, -1): diag[-1], (1, -1): zero, (-1, 1): zero}
        resp = {
            pi: lag_series({lag: 0.05 * lag * pi for lag in range(1, l + 1)})
            for pi in (1, -1)
        }
        g0 = {1: 0.8, -1: 0.6}
        joint = solve_tim2_system(ctilde, resp, g0, n, l)
        for pi in (1, -1):
            single = solve_tim1(diag[pi], resp[pi], g0[pi], n, l)
            assert np.max(np.abs(joint[pi].delta - single.delta)) < 1e-6

    def test_type_with_too_few_events_errors(self):
        eps = np.ones(500)
        eps[:50] = -1.0
        s = series_from(eps, np.cumsum(eps))
        with pytest.raises(DataError, match="need at least"):
            solve_tim2(s, 5, 5)


class TestEmpiricalSignature:
    def test_alternating_mids(self):
        mids = np.array([0.0, 1.0] * 30)
        sig = empirical_signature(mids, 2)
        assert sig.d[0] == pytest.approx(1.0)
        assert sig.d[1] == pytest.approx(0.0)

    def test_random_walk_flat(self):
        rng = np.random.default_rng(14)
        sigma = 2.0
        mids = np.cumsum(rng.normal(scale=sigma, size=100_000))
        sig = empirical_signature(mids, 10)
        for l in range(10):
            assert abs(sig.d[l] - sigma**2) < 4 * sig.se[l]

    def test_constant_mids(self):
        sig = empirical_signature(np.zeros(100), 5)
        assert np.all(sig.d == 0.0)

    def test_needs_enough_mids(self):
        with pytest.raises(DataError):
            empirical_signature(np.zeros(10), 10)


class TestModelSignatureTim1:
    def test_zero_kernel_gives_constant(self):
        kernel = kernel_from_g(np.zeros(11))
        corr = delta_series()
        d = model_signature_tim1(kernel, corr, 10, d_const=3.3)
        assert np.allclose(d, 3.3)

    def test_constant_kernel_flat_at_g0_squared(self):
        g0 = 4.0
        kernel = kernel_from_g(np.full(11, g0))
        corr = delta_series()
        d = model_signature_tim1(kernel, corr, 10, d_const=1.0)
        assert np.allclose(d, g0 * g0 + 1.0, atol=1e-12)

    def test_estimated_kernel_tracks_empirical(self):
        cfg = SynthConfig(
            seed=1, n_events=200_000, kernel_buy=KernelSpec("exponential", 25.0, beta=0.4),
            noise_sd_bp=5.0,
        )
        s, _ = generate_tim_series(cfg)
        kernel = estimate_tim1(s, 10, 10)
        emp = empirical_signature(s.mid, 10)
        corr = estimate_correlation(s, range(-11, 21))
        partial = model_signature_tim1(kernel, corr, 10)
        d_model = partial + fit_d_const(partial, emp.d)
        assert np.all(np.abs(d_model - emp.d) <= 3.0 * emp.se)

    def test_formula_hand_check_iid(self):
        # with C = delta, l D(l) = sum_{j=0..l-1} G(j)^2 + sum_{m>=0}(G(l+m)-G(m))^2
        g = np.array([5.0, 3.0, 2.0, 1.5, 1.0, 0.8])
        kernel = kernel_from_g(g)
        corr = delta_series()
        d = model_signature_tim1(kernel, corr, 3)

        def g_ext(j):
            return g[min(j, 5)]

        for l in range(1, 4):
            first = sum(g_ext(j) ** 2 for j in range(l))
            second = sum((g_ext(l + m) - g_ext(m)) ** 2 for m in range(30))
            assert d[l - 1] == pytest.approx((first + second) / l, abs=1e-12)


class TestModelSignatureTim2:
    def test_zero_kernels_constant(self):
        kernels = {1: kernel_from_g(np.zeros(11)), -1: kernel_from_g(np.zeros(11))}
        rng = np.random.default_rng(15)
        eps = rng.choice([-1.0, 1.0], 5000)
        s = series_from(eps, np.zeros(5000))
        moments = estimate_pair_moments(s, 25)
        d = model_signature_tim2(kernels, moments, 10, d_const=2.0)
        assert np.allclose(d, 2.0)

    def test_merged_equals_tim1(self):
        cfg = SynthConfig(
            seed=16, n_events=50_000, kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
            kernel_sell=KernelSpec("exponential", 20.0, beta=0.4), alpha=1.0,
            volume_log_mean=0.0, volume_log_sd=1.0, volume_round=0.0, noise_sd_bp=5.0,
        )
        s, _ = generate_tim_series(cfg)
        moments = estimate_pair_moments(s, 25)
        g = 12.0 * np.exp(-0.3 * np.arange(11))
        k1 = kernel_from_g(g)
        kernels = {1: kernel_from_g(g), -1: kernel_from_g(g)}
        d2 = model_signature_tim2(kernels, moments, 10, d_const=0.5)
        d1 = model_signature_tim1(
            k1, moments.merged_series(), 10, d_const=0.5, mean_flow=moments.mean_flow
        )
        assert np.max(np.abs(d2 - d1)) < 1e-9

    def test_asymmetric_fits_better_than_tim1(self):
        cfg = SynthConfig(
            seed=17, n_events=200_000,
            kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
            kernel_sell=KernelSpec("exponential", 20.0, beta=0.4),
            noise_sd_bp=5.0, alpha=1.0, volume_log_mean=0.0, volume_log_sd=1.0,
            volume_round=0.0,
        )
        s, _ = generate_tim_series(cfg)
        emp = empirical_signature(s.mid, 10)
        moments = estimate_pair_moments(s, 25)
        k2 = solve_tim2(s, 10, 10)
        k1 = estimate_tim1(s, 10, 10)
        d1 = model_signature_tim1(
            k1, moments.merged_series(), 10, mean_flow=moments.mean_flow
        )
        d1 += fit_d_const(d1, emp.d)
        d2 = model_signature_tim2(k2, moments, 10)
        d2 += fit_d_const(d2, emp.d)
        assert np.sum((d2 - emp.d) ** 2) < np.sum((d1 - emp.d) ** 2)


def loop_signature_tim1(kernel, corr, l_max, d_const=0.0, mean_flow=0.0):
    """``model_signature_tim1`` as partial sums over event pairs: its oracle.

    Returns the signature and, per lag l, the largest absolute summand of
    l D(l). Window events sit at positions 1..l (list ``a``), past events m
    before the window at -m (list ``past``).
    """
    n = kernel.n_lags
    mu2 = mean_flow * mean_flow
    out, largest = np.empty(l_max), np.empty(l_max)
    for l in range(1, l_max + 1):
        a = [kernel.extended(l - 1 - p) for p in range(l)]  # G(l-1) .. G(0)
        past = [(m, kernel.extended(l + m) - kernel.extended(m)) for m in range(n)]
        diag_terms = [v * v * (corr(0) - mu2) for v in a + [v for _, v in past]]
        t1 = [a[p] * a[q] * (corr(q - p) - mu2) for p in range(l) for q in range(p + 1, l)]
        t2 = [
            vi * vj * (corr(mj - mi) - mu2)
            for i, (mi, vi) in enumerate(past)
            for mj, vj in past[i + 1 :]
        ]
        t3 = [a[p] * vi * (corr(p + mi + 1) - mu2) for p in range(l) for mi, vi in past]
        drift = mean_flow * kernel.extended(n + l)
        quad = sum(diag_terms) + 2.0 * (sum(t1) + sum(t2) + sum(t3))
        out[l - 1] = quad / l + l * drift * drift + d_const
        terms = diag_terms + [2.0 * t for t in t1 + t2 + t3] + [l * l * drift * drift]
        largest[l - 1] = max(abs(t) for t in terms)
    return out, largest


def loop_signature_tim2(kernels, moments, l_max, d_const=0.0):
    """``model_signature_tim2`` as partial sums over event pairs and types: its
    oracle, returning the signature and the largest summand as above."""
    n = max(k.n_lags for k in kernels.values())
    w = moments.centered
    out, largest = np.empty(l_max), np.empty(l_max)
    for l in range(1, l_max + 1):
        a = {pi: [kernels[pi].extended(l - 1 - p) for p in range(l)] for pi in EVENT_TYPES}
        past = {
            pi: [(m, kernels[pi].extended(l + m) - kernels[pi].extended(m)) for m in range(n)]
            for pi in EVENT_TYPES
        }
        pairs = [(pi, pj) for pi in EVENT_TYPES for pj in EVENT_TYPES]
        diag_terms = []
        for pi, pj in pairs:  # same-event terms, with the cross-type centering correction
            diag_terms += [a[pi][p] * a[pj][p] * w(pi, pj, 0) for p in range(l)]
            diag_terms += [
                va * vb * w(pi, pj, 0) for (_, va), (_, vb) in zip(past[pi], past[pj])
            ]
        t1 = [  # earlier event of type pi at p, later one of type pj at q
            a[pi][p] * a[pj][q] * w(pi, pj, q - p)
            for p in range(l)
            for q in range(p + 1, l)
            for pi, pj in pairs
        ]
        t2 = [  # later past event of type pi (smaller m), earlier one of type pj
            past[pj][j][1] * past[pi][i][1] * w(pj, pi, past[pj][j][0] - past[pi][i][0])
            for i in range(n)
            for j in range(i + 1, n)
            for pi, pj in pairs
        ]
        t3 = [  # window event of type pi, past event of type pj
            a[pi][p] * vi * w(pj, pi, p + mi + 1)
            for p in range(l)
            for pi, pj in pairs
            for mi, vi in past[pj]
        ]
        drift = sum(moments.mu[pi] * kernels[pi].extended(n + l) for pi in EVENT_TYPES)
        quad = sum(diag_terms) + 2.0 * (sum(t1) + sum(t2) + sum(t3))
        out[l - 1] = quad / l + l * drift * drift + d_const
        terms = diag_terms + [2.0 * t for t in t1 + t2 + t3] + [l * l * drift * drift]
        largest[l - 1] = max(abs(t) for t in terms)
    return out, largest


VALUE = st.floats(-10.0, 10.0)
MEAN_FLOW = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)


def drawn_values(draw, size):
    return np.array(draw(st.lists(VALUE, min_size=size, max_size=size)))


@st.composite
def drawn_kernel(draw):
    return kernel_from_g(drawn_values(draw, draw(st.integers(1, 8)) + 1))


def assert_matches_oracle(d, oracle, l_max, d_const):
    expected, largest = oracle
    lags = np.arange(1, l_max + 1)
    assert np.all(np.abs(d - expected) <= 1e-12 * (largest / lags + abs(d_const)))


class TestSignatureOracle:
    """The quadratic form against the partial sums it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tim1_matches_the_loops(self, data):
        kernel = data.draw(drawn_kernel())
        l_max = data.draw(st.integers(1, 12))
        lo = data.draw(st.integers(-3, 0))
        size = kernel.n_lags + l_max - lo + data.draw(st.integers(0, 3))
        corr = LagSeries(min_lag=lo, values=drawn_values(data.draw, size))
        mean_flow, d_const = data.draw(MEAN_FLOW), data.draw(VALUE)
        d = model_signature_tim1(kernel, corr, l_max, d_const, mean_flow=mean_flow)
        oracle = loop_signature_tim1(kernel, corr, l_max, d_const, mean_flow)
        assert_matches_oracle(d, oracle, l_max, d_const)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tim2_matches_the_loops(self, data):
        kernels = {pi: data.draw(drawn_kernel()) for pi in EVENT_TYPES}
        l_max = data.draw(st.integers(1, 12))
        n = max(k.n_lags for k in kernels.values())
        max_lag = n + l_max - 1 + data.draw(st.integers(0, 3))
        pairs = [(pi, pj) for pi in EVENT_TYPES for pj in EVENT_TYPES]
        moments = PairMoments(
            max_lag=max_lag,
            values={pair: drawn_values(data.draw, max_lag + 1) for pair in pairs},
            mu={pi: data.draw(MEAN_FLOW) for pi in EVENT_TYPES},
        )
        d_const = data.draw(VALUE)
        d = model_signature_tim2(kernels, moments, l_max, d_const)
        oracle = loop_signature_tim2(kernels, moments, l_max, d_const)
        assert_matches_oracle(d, oracle, l_max, d_const)

    @pytest.mark.parametrize("l_max", [3, 10, 15])
    def test_unequal_buy_and_sell_kernels_on_a_series(self, l_max):
        cfg = SynthConfig(
            seed=16, n_events=20_000, kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
            kernel_sell=KernelSpec("exponential", 20.0, beta=0.4), alpha=0.5,
            volume_log_mean=0.0, volume_log_sd=1.0, volume_round=0.0, noise_sd_bp=5.0,
        )
        s, _ = generate_tim_series(cfg)
        moments = estimate_pair_moments(s, l_max + 10)
        kernels = solve_tim2(s, 10, 10)
        d = model_signature_tim2(kernels, moments, l_max)
        assert_matches_oracle(d, loop_signature_tim2(kernels, moments, l_max), l_max, 0.0)
        merged, flow = moments.merged_series(), moments.mean_flow
        d = model_signature_tim1(kernels[1], merged, l_max, mean_flow=flow)
        oracle = loop_signature_tim1(kernels[1], merged, l_max, mean_flow=flow)
        assert_matches_oracle(d, oracle, l_max, 0.0)

    def test_lag_beyond_the_estimates_raises(self):
        kernel = kernel_from_g(np.linspace(5.0, 1.0, 11))  # 10 lags
        l_max = 6  # lags 0 .. 15 enter
        model_signature_tim1(kernel, LagSeries(min_lag=0, values=np.ones(16)), l_max)
        for corr in (LagSeries(min_lag=0, values=np.ones(15)), LagSeries(1, np.ones(16))):
            with pytest.raises(DataError):
                model_signature_tim1(kernel, corr, l_max)
        kernels = {pi: kernel for pi in EVENT_TYPES}
        pairs = [(pi, pj) for pi in EVENT_TYPES for pj in EVENT_TYPES]
        mu = {pi: 0.1 for pi in EVENT_TYPES}

        def moments(max_lag):
            return PairMoments(max_lag, {p: np.ones(max_lag + 1) for p in pairs}, mu)

        model_signature_tim2(kernels, moments(15), l_max)
        with pytest.raises(DataError):
            model_signature_tim2(kernels, moments(14), l_max)


class TestAggregation:
    def test_average_kernels_equal_weight(self):
        k1 = kernel_from_g(np.linspace(10, 0, 11))
        k2 = kernel_from_g(np.linspace(20, 10, 11))
        avg = average_kernels([k1, k2])
        assert avg.cusip == "aggregate"
        assert np.allclose(avg.g, np.linspace(15, 5, 11))

    def test_mismatched_lags_error(self):
        k1 = kernel_from_g(np.zeros(11))
        k2 = kernel_from_g(np.zeros(6))
        with pytest.raises(DataError):
            average_kernels([k1, k2])

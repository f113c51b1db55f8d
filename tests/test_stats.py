import math

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
from scipy import special
from scipy.stats import rankdata

from bondtca.errors import DataError
from bondtca.stats import (
    _betainc,
    _log_beta,
    _mid_ranks,
    anova_f,
    chi2_sf,
    f_sf,
    kruskal_h,
    ks_two_sample,
    ndtr,
    t_sf,
    welch_t,
)


def rel_err(value: float, expect: float) -> float:
    return abs(value - expect) / abs(expect)


class TestAnova:
    def test_hand_fixture(self):
        res = anova_f([[0.0, 1.0], [2.0, 3.0]])
        assert res.statistic == pytest.approx(8.0, abs=1e-12)
        assert res.df == (1, 2)
        # p from the F(1, 2) upper tail: 1 - sqrt(0.8)
        assert res.p_value == pytest.approx(1 - math.sqrt(0.8), abs=1e-10)

    def test_identical_constant_groups(self):
        res = anova_f([[1.0, 1.0], [1.0, 1.0]])
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.degenerate

    def test_zero_within_nonzero_between(self):
        res = anova_f([[1.0, 1.0], [2.0, 2.0]])
        assert res.p_value == 0.0
        assert res.degenerate

    def test_monte_carlo_null_calibration(self):
        rng = np.random.default_rng(0)
        low = 0
        for _ in range(200):
            x = rng.normal(size=40)
            y = rng.normal(size=35)
            if anova_f([x, y]).p_value <= 0.01:
                low += 1
        assert low <= 6  # ~1% expected under the null

    def test_relabeling_invariance(self):
        a = [1.0, 2.0, 4.0]
        b = [2.0, 5.0]
        assert anova_f([a, b]).statistic == pytest.approx(anova_f([b, a]).statistic)

    def test_preconditions(self):
        with pytest.raises(DataError):
            anova_f([[1.0, 2.0]])
        with pytest.raises(DataError):
            anova_f([[1.0], [2.0, 3.0]])


class TestKruskal:
    def test_hand_fixture(self):
        res = kruskal_h([[1.0, 2.0], [3.0, 4.0]])
        assert res.statistic == pytest.approx(2.4, abs=1e-12)
        assert res.p_value == pytest.approx(chi2_sf(2.4, 1), abs=1e-12)

    def test_identical_interleaved_groups(self):
        res = kruskal_h([[1.0, 3.0, 5.0], [1.0, 3.0, 5.0]])
        assert res.statistic == pytest.approx(0.0, abs=1e-12)

    def test_all_ties(self):
        res = kruskal_h([[1.0, 1.0], [1.0, 1.0]])
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.degenerate

    def test_monotone_transform_invariance(self):
        a = [0.3, 1.4, 2.2, 5.0]
        b = [0.9, 1.8, 3.3]
        h1 = kruskal_h([a, b]).statistic
        h2 = kruskal_h([np.exp(a), np.exp(b)]).statistic
        assert h1 == pytest.approx(h2, abs=1e-12)

    def test_wilcoxon_equivalence_two_groups(self):
        # With W=2 and no ties, H = (U - mn/2)^2 * 12 / (mn(n+1_total))
        rng = np.random.default_rng(1)
        a = list(rng.normal(size=8))
        b = list(rng.normal(loc=0.4, size=6))
        m, n = len(a), len(b)
        ranks = {v: r for r, v in enumerate(sorted(a + b), start=1)}
        t_a = sum(ranks[v] for v in a)
        total = m + n
        expect = 12.0 / (total * (total + 1)) * (
            t_a**2 / m + (total * (total + 1) / 2 - t_a) ** 2 / n
        ) - 3 * (total + 1)
        assert kruskal_h([a, b]).statistic == pytest.approx(expect, abs=1e-10)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.25]),  # a few values, so many ties
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_mid_ranks_match_scipy_rankdata(self, values):
        ranks, counts = _mid_ranks(np.array(values))
        assert np.array_equal(ranks, rankdata(values))
        assert int(counts.sum()) == len(values)


class TestKS:
    def test_identical_samples(self):
        res = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_step_function_hand_trace(self):
        res = ks_two_sample([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert res.statistic == pytest.approx(math.sqrt(1.5) / 3.0, abs=1e-9)
        assert res.statistic == pytest.approx(0.4082482904, abs=1e-6)
        # alternating series oracle computed independently
        d = math.sqrt(1.5) / 3.0
        expect = 2 * sum((-1) ** (i - 1) * math.exp(-2 * i * i * d * d) for i in range(1, 200))
        assert res.p_value == pytest.approx(expect, abs=1e-9)

    def test_separated_samples(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        y = rng.normal(loc=3.0, size=500)
        assert ks_two_sample(x, y).p_value < 1e-6

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        y = rng.normal(size=25)
        d1 = ks_two_sample(x, y).statistic
        d2 = ks_two_sample(np.exp(x), np.exp(y)).statistic
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_p_clamped(self):
        res = ks_two_sample([1.0], [2.0])
        assert 0.0 <= res.p_value <= 1.0


class TestWelch:
    def test_identical(self):
        res = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0)

    def test_strong_shift(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        res = welch_t(x, x + 10.0)
        assert res.p_value < 1e-10

    def test_three_sigma_shift_500(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        y = rng.normal(loc=3.0, size=500)
        assert welch_t(x, y).p_value < 1e-6

    def test_degenerate_zero_variance(self):
        res = welch_t([1.0, 1.0], [1.0, 1.0])
        assert res.degenerate
        assert res.p_value == 1.0

    def test_satterthwaite_against_scipy_formula(self):
        x = [1.0, 2.0, 4.0, 4.5]
        y = [0.5, 2.5, 3.0]
        res = welch_t(x, y)
        vx, vy = np.var(x, ddof=1), np.var(y, ddof=1)
        m, n = len(x), len(y)
        se2 = vx / m + vy / n
        t = (np.mean(x) - np.mean(y)) / math.sqrt(se2)
        df = se2**2 / ((vx / m) ** 2 / (m - 1) + (vy / n) ** 2 / (n - 1))
        assert res.statistic == pytest.approx(t, abs=1e-12)
        assert res.df[0] == pytest.approx(df, abs=1e-12)


class TestDistributionTails:
    def test_chi2_reference_quantiles(self):
        # chi2(1): 95% at 3.841, 99% at 6.635
        assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-3)
        assert chi2_sf(6.634896601021214, 1) == pytest.approx(0.01, abs=1e-3)
        # chi2(5): 95% at 11.0705
        assert chi2_sf(11.070497693516351, 5) == pytest.approx(0.05, abs=1e-3)

    def test_f_reference_quantiles(self):
        # F(1, 10): 95% at 4.9646; F(3, 20): 99% at 4.938
        assert f_sf(4.964602743730711, 1, 10) == pytest.approx(0.05, abs=1e-3)
        assert f_sf(4.938, 3, 20) == pytest.approx(0.01, abs=1e-3)


class TestTailsAgainstScipy:
    """The numpy-only tails, with scipy.special as the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(df=st.floats(1.0, 1e6), log_tail=st.floats(-300.0, math.log10(0.5)))
    def test_t_sf_matches_stdtr(self, df, log_tail):
        t = -float(special.stdtrit(df, 10.0**log_tail))
        assume(math.isfinite(t) and t > 0)
        expect = float(special.stdtr(df, -t))
        assume(expect >= 1e-300)
        assert rel_err(t_sf(t, df), expect) <= 1e-12
        assert rel_err(t_sf(-t, df), 1.0 - expect) <= 1e-12

    @settings(max_examples=400, deadline=None)
    @given(
        d1=st.integers(1, 100),
        d2=st.floats(1.0, 1e6),
        log_tail=st.floats(-200.0, -1e-3),
    )
    def test_betainc_matches_scipy(self, d1, d2, log_tail):
        # at one exact x, so that the rounding of d2 / (d2 + d1 f) (up to
        # d2/2 ulps in the result) is not counted; further out scipy's
        # betainc itself is off (by 1e-11 near 1e-250 and up to 100% near
        # 1e-290, seen against 50-digit mpmath): those points are in
        # test_f_sf_far_tail_matches_mpmath
        a, b = d2 / 2.0, d1 / 2.0
        x = float(special.betaincinv(a, b, 10.0**log_tail))
        assume(0.0 < x < 1.0)
        expect = float(special.betainc(a, b, x))
        assume(expect >= 1e-200)
        assert rel_err(_betainc(a, b, x, 1.0 - x), expect) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(df=st.floats(1.0, 1e6), log_tail=st.floats(-300.0, math.log10(0.5)))
    def test_f_sf_with_one_numerator_df_matches_stdtr(self, df, log_tail):
        # F(1, df) at t^2 is the two-sided t tail
        t = -float(special.stdtrit(df, 10.0**log_tail))
        assume(math.isfinite(t) and t > 0)
        expect = 2.0 * float(special.stdtr(df, -t))
        assume(expect >= 1e-300)
        assert rel_err(f_sf(t * t, 1, df), expect) <= 1e-12

    def test_f_sf_far_tail_matches_mpmath(self):
        # points where scipy's betainc/betaincc is off by more than 1e-12
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for d1, d2, f in [
            (79, 924.4365535294363, 47.1251786312832),  # 5.5e-271; scipy off by 33%
            (64, 413.63798606032645, 236.90764830845876),  # 7.8e-288; scipy off by 100%
            (72, 495.7197900226857, 127.51750578575877),  # 1.5e-276; scipy off by 1.5e-7
            (14, 581999.6028492488, 2.577647882844447),  # 1.0e-3; scipy off by 1.7e-12
            (20, 7488.026638471354, 1.8392473515504495),  # scipy's betaincc off by 1e-12
            (77, 44139.0, 19.02942041516669),  # about 1e-250; scipy off by 1.1e-11
        ]:
            big_d1, big_d2 = mp.mpf(d1), mp.mpf(d2)
            x = big_d2 / (big_d2 + big_d1 * mp.mpf(f))
            expect = mp.betainc(big_d2 / 2, big_d1 / 2, 0, x, regularized=True)
            assert rel_err(f_sf(f, d1, d2), float(expect)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 300), log_tail=st.floats(-300.0, 0.0))
    def test_chi2_sf_matches_gammaincc(self, k, log_tail):
        x = float(special.chdtri(k, 10.0**log_tail))
        assume(math.isfinite(x))
        expect = float(special.gammaincc(k / 2.0, x / 2.0))
        assume(expect >= 1e-300)
        assert rel_err(chi2_sf(x, k), expect) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-40.0, 40.0) | st.sampled_from([0.0, 1.0, -1.0, math.inf, -math.inf]))
    def test_ndtr_matches_scipy(self, x):
        assert abs(ndtr(x) - float(special.ndtr(x))) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 9, 10, 11, 30, 99, 100, 101, 2_000, 10_000])
    @pytest.mark.parametrize("k", [1, 2, 9, 10, 11, 40])
    def test_log_beta_of_integers_is_exact(self, m, k):
        # B(m, k) = (m-1)! (k-1)! / (m+k-1)!, and B(m, 1/2) = 4^m m! (m-1)! / (2m)!:
        # both as exact fractions, one rounding to float
        integer = Fraction(math.factorial(m - 1) * math.factorial(k - 1), math.factorial(m + k - 1))
        half = Fraction(4**m * math.factorial(m) * math.factorial(m - 1), math.factorial(2 * m))
        for b, exact in ((k, integer), (0.5, half)):
            expect = math.log(float(exact))
            assert abs(_log_beta(m, b) - expect) <= 1e-14 * max(1.0, abs(expect))
            assert _log_beta(b, m) == _log_beta(m, b)

    def test_t_sf_edges(self):
        assert t_sf(0.0, 5.0) == 0.5
        assert t_sf(math.inf, 5.0) == 0.0
        assert t_sf(-math.inf, 5.0) == 1.0
        assert math.isnan(t_sf(math.nan, 5.0))
        # far past where t * t overflows: the tail of t(1) is 1 / (pi t)
        assert rel_err(t_sf(1e200, 1.0), 1.0 / (math.pi * 1e200)) <= 1e-12


class TestStationarity:
    """The paper screens a statistic's stationarity with both tests on two periods."""

    def test_identical_periods(self):
        period = [1.0, 2.0]
        anova, kruskal = anova_f([period, period]), kruskal_h([period, period])
        assert anova.statistic == pytest.approx(0.0, abs=1e-12)
        assert anova.p_value == pytest.approx(1.0)
        assert kruskal.statistic == pytest.approx(0.0, abs=1e-9)

    def test_large_shift_detected(self):
        rng = np.random.default_rng(6)
        periods = [rng.normal(size=50), rng.normal(loc=25.0, size=50)]
        assert anova_f(periods).p_value < 1e-6
        assert kruskal_h(periods).p_value < 1e-6

    @given(
        values=st.lists(st.floats(-10, 10), min_size=2, max_size=10),
        shift=st.floats(-5, 5),
    )
    @settings(max_examples=50)
    def test_p_values_in_unit_interval(self, values, shift):
        a = values
        b = [v + shift for v in values]
        res_a = anova_f([a, b])
        res_k = kruskal_h([a, b])
        assert 0.0 <= res_a.p_value <= 1.0
        assert 0.0 <= res_k.p_value <= 1.0

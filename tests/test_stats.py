import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from bondtca.errors import DataError
from bondtca.stats import (
    _mid_ranks,
    anova_f,
    chi2_sf,
    f_sf,
    kruskal_h,
    ks_two_sample,
    welch_t,
)


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

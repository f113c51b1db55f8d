import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla
from scipy.special import ndtr

from bondtca.errors import DataError, NumericalError
from bondtca.regress import (
    CVPoint,
    CVReport,
    Dataset,
    elastic_net_objective,
    fit_elastic_net,
    fit_lasso,
    fit_ols,
    fit_ridge,
    _pivoted_qr,
    k_fold_cv,
    kkt_gap,
    lasso_lambda_max,
    log_grid,
    post_refit,
    relative_error,
    select_by_ci,
    summarize_cv_scores,
)


def dataset(y, cov, names=None):
    return Dataset.from_covariates(np.asarray(y, float), np.asarray(cov, float), names)


def random_dataset(rng, n=50, p=4):
    cov = rng.normal(size=(n, p))
    theta = rng.normal(size=p)
    y = 1.5 + cov @ theta + 0.1 * rng.normal(size=n)
    return dataset(y, cov)


ONE_D = dataset([-1.0, 0.0, 1.0], [[-1.0], [0.0], [1.0]])


class TestOls:
    def test_exact_line(self):
        data = dataset([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]])
        fit = fit_ols(data)
        assert fit.theta == pytest.approx([0.0, 1.0], abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_response(self):
        data = dataset([4.0, 4.0, 4.0, 4.0], [[1.0], [2.0], [3.0], [2.5]])
        fit = fit_ols(data)
        assert fit.theta[0] == pytest.approx(4.0)
        assert fit.theta[1] == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 0.0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        data = random_dataset(rng, n=50, p=4)
        fit = fit_ols(data)
        # independent oracle: solve X'X theta = X'y directly
        xtx = data.x.T @ data.x
        expect = np.linalg.solve(xtx, data.x.T @ data.y)
        assert np.max(np.abs(fit.theta - expect)) < 1e-8
        # normal-theory std errors
        resid = data.y - data.x @ expect
        sigma2 = resid @ resid / (data.n - data.w)
        std = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtx)))
        assert np.max(np.abs(fit.std_errors - std)) < 1e-8
        assert np.all((fit.p_values >= 0) & (fit.p_values <= 1))

    def test_rank_deficient_names_columns(self):
        cov = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [1.5, 3.0]])
        with pytest.raises(DataError, match="rank-deficient"):
            fit_ols(dataset([1.0, 2.0, 3.0, 4.0], cov, names=("a", "b")))

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(DataError, match="n > w"):
            fit_ols(dataset([1.0, 2.0], [[1.0], [2.0]]))


def scipy_ols(x, y):
    """The LAPACK path fit_ols replaced: geqp3, explicit Q, trtrs, cephes ndtr."""
    q, r, piv = sla.qr(x, mode="economic", pivoting=True)
    theta = np.empty(x.shape[1])
    theta[piv] = sla.solve_triangular(r, q.T @ y)
    resid = y - x @ theta
    sigma2 = resid @ resid / (x.shape[0] - x.shape[1])
    std = np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))
    return theta, std, 2.0 * (1.0 - ndtr(np.abs(theta / std)))


def random_design(seed: int, n: int, p: int) -> np.ndarray:
    """Covariates with distinct scales and offsets, so column norms differ."""
    rng = np.random.default_rng(seed)
    cov = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0, size=p) + rng.normal(size=p)
    return np.column_stack([np.ones(n), cov])


class TestOlsAgainstScipy:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 60), p=st.integers(0, 20))
    def test_matches_the_lapack_path(self, seed, extra, p):
        x = random_design(seed, p + 1 + extra, p)
        rng = np.random.default_rng(seed + 1)
        y = x @ rng.normal(size=p + 1) + rng.normal(size=x.shape[0])
        fit = fit_ols(Dataset(y=y, x=x, feature_names=tuple(f"x{j}" for j in range(p))))
        theta, std, pvals = scipy_ols(x, y)
        scale = np.max(np.abs(theta))
        assert np.max(np.abs(fit.theta - theta)) <= 1e-12 * scale
        assert np.max(np.abs(fit.std_errors - std) / std) <= 1e-12
        assert np.max(np.abs(fit.p_values - pvals)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 40), p=st.integers(0, 20))
    def test_pivot_order_is_geqp3s(self, seed, extra, p):
        x = random_design(seed, p + 1 + extra, p)
        a, _, piv = _pivoted_qr(x)
        _, r, expect = sla.qr(x, mode="economic", pivoting=True)
        assert piv.tolist() == expect.tolist()
        assert np.allclose(np.abs(np.diag(a)), np.abs(np.diag(r)), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_verdict_is_the_lapack_paths(self, seed):
        # one covariate a combination of two others: both paths find rank w - 1
        x = random_design(seed, 30, 5)
        x[:, 5] = x[:, 1] - 2.0 * x[:, 3]
        _, r, _ = sla.qr(x, mode="economic", pivoting=True)
        a, _, _ = _pivoted_qr(x)
        for diag in (np.abs(np.diag(r)), np.abs(np.diag(a))):
            tol = diag.max() * 30 * np.finfo(float).eps
            assert int(np.sum(diag > tol)) == 5
        with pytest.raises(DataError, match="rank-deficient"):
            fit_ols(Dataset(y=np.arange(30.0), x=x, feature_names=("a", "b", "c", "d", "e")))


class TestRidge:
    def test_lambda_zero_equals_ols(self):
        rng = np.random.default_rng(0)
        data = random_dataset(rng)
        assert np.max(np.abs(fit_ridge(data, 0.0).theta - fit_ols(data).theta)) < 1e-8

    def test_one_dimensional_closed_form(self):
        fit = fit_ridge(ONE_D, 1.0 / 3.0)
        # slope = x.y / (x.x + N lambda) = 2 / (2 + 1)
        assert fit.theta[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert fit.theta[0] == pytest.approx(0.0, abs=1e-12)

    def test_infinite_shrinkage(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng)
        fit = fit_ridge(data, 1e8)
        assert np.max(np.abs(fit.theta[1:])) < 1e-4
        assert fit.theta[0] == pytest.approx(float(data.y.mean()), abs=1e-3)


class TestLasso:
    def test_lambda_zero_equals_ols(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng)
        fit = fit_lasso(data, 0.0)
        assert fit.converged
        assert np.max(np.abs(fit.theta - fit_ols(data).theta)) < 1e-6

    def test_one_dimensional_soft_threshold(self):
        fit = fit_lasso(ONE_D, 1.0 / 3.0)
        # soft(x.y/N, lam) / (x.x/N) = (2/3 - 1/3) / (2/3) = 1/2
        assert fit.theta[1] == pytest.approx(0.5, abs=1e-9)

    def test_lambda_max_empties_support(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng)
        lam_max = lasso_lambda_max(data)
        assert fit_lasso(data, lam_max).support == ()
        assert fit_lasso(data, lam_max * 1.01).support == ()
        assert fit_lasso(data, lam_max * 0.95).support != ()

    def test_kkt_at_convergence(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, n=80, p=6)
        for lam in (0.01, 0.1, 1.0):
            fit = fit_lasso(data, lam)
            assert kkt_gap(data, fit) < 1e-5

    @given(seed=st.integers(0, 500), lam=st.floats(1e-3, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_kkt_property(self, seed, lam):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, n=40, p=5)
        fit = fit_lasso(data, lam, tol=1e-9)
        assert kkt_gap(data, fit) < 1e-6

    def test_objective_monotone_across_sweeps(self):
        rng = np.random.default_rng(19)
        data = random_dataset(rng, n=60, p=6)
        lam = 0.05
        values = []
        for sweeps in range(1, 12):
            fit = fit_lasso(data, lam, tol=0.0, max_iter=sweeps)
            assert fit.converged is False  # tol 0 never triggers the stop
            values.append(elastic_net_objective(data, fit))
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    def test_objective_never_below_optimum_elsewhere(self):
        # spot-check optimality: random perturbations never beat the solution
        rng = np.random.default_rng(5)
        data = random_dataset(rng, n=60, p=5)
        fit = fit_lasso(data, 0.2, tol=1e-10)
        base = elastic_net_objective(data, fit)
        for _ in range(50):
            alt = fit_lasso(data, 0.2)
            alt.theta = fit.theta + np.concatenate([[0], rng.normal(scale=1e-3, size=5)])
            assert elastic_net_objective(data, alt) >= base - 1e-12


class TestElasticNet:
    def test_alpha_one_is_lasso(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng)
        en = fit_elastic_net(data, 0.3, alpha=1.0)
        la = fit_lasso(data, 0.3)
        assert np.max(np.abs(en.theta - la.theta)) < 1e-6

    def test_alpha_zero_is_ridge(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng)
        en = fit_elastic_net(data, 0.3, alpha=0.0, tol=1e-10)
        ri = fit_ridge(data, 0.3)
        assert np.max(np.abs(en.theta - ri.theta)) < 1e-6

    def test_lambda_zero_is_ols(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng)
        en = fit_elastic_net(data, 0.0, alpha=0.5)
        assert np.max(np.abs(en.theta - fit_ols(data).theta)) < 1e-6

    def test_en_kkt(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, n=60, p=6)
        fit = fit_elastic_net(data, 0.5, alpha=0.6, tol=1e-9)
        assert kkt_gap(data, fit) < 1e-6


class TestPostRefit:
    def test_support_preserved_and_zeros_elsewhere(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, n=60, p=6)
        first = fit_lasso(data, 0.5)
        assert first.support
        refit = post_refit(data, first)
        assert refit.support == first.support
        outside = set(range(1, data.w)) - set(first.support)
        assert all(refit.theta[j] == 0.0 for j in outside)

    def test_restricted_ols_oracle(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, n=60, p=6)
        first = fit_lasso(data, 0.5)
        refit = post_refit(data, first)
        cols = [0] + list(first.support)
        sub_x = data.x[:, cols]
        expect = np.linalg.solve(sub_x.T @ sub_x, sub_x.T @ data.y)
        assert np.max(np.abs(refit.theta[cols] - expect)) < 1e-8

    def test_full_support_equals_ols(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng)
        first = fit_lasso(data, 1e-9)
        refit = post_refit(data, first)
        if len(first.support) == data.w - 1:
            assert np.max(np.abs(refit.theta - fit_ols(data).theta)) < 1e-8

    def test_empty_support_intercept_only(self):
        rng = np.random.default_rng(13)
        data = random_dataset(rng)
        lam = lasso_lambda_max(data) * 2
        refit = post_refit(data, fit_lasso(data, lam))
        assert refit.support == ()
        assert refit.theta[0] == pytest.approx(float(data.y.mean()))


class TestCrossValidation:
    def test_hand_built_interval_counts(self):
        mean, sd, in1, in2 = summarize_cv_scores([0.5, 0.5, 0.5, 0.5, 1.0])
        assert mean == pytest.approx(0.6)
        assert sd == pytest.approx(0.22360679774997896)
        assert in1 == 4
        assert in2 == 4

    def test_degenerate_identical_scores(self):
        mean, sd, in1, in2 = summarize_cv_scores([0.4] * 5)
        assert sd == 0.0
        assert in1 == in2 == 5

    def test_reproducible_and_counts_ordered(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, n=120, p=5)
        grid = log_grid(1e-3, 1.0, 4)
        r1 = k_fold_cv(data, "lasso", grid, k=5, seed=7)
        r2 = k_fold_cv(data, "lasso", grid, k=5, seed=7)
        assert [p.r2_values for p in r1.points] == [p.r2_values for p in r2.points]
        for p in r1.points:
            assert p.count_inner <= p.count_outer <= 5

    def test_over_penalized_scores_near_zero(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, n=120, p=5)
        report = k_fold_cv(data, "lasso", [1e6], k=5, seed=0)
        point = report.points[0]
        assert point.mean_abs_coef < 1e-10
        assert abs(point.mean_r2) < 0.2

    def test_fold_too_small_for_ols(self):
        rng = np.random.default_rng(16)
        data = random_dataset(rng, n=12, p=9)
        with pytest.raises(DataError, match="smaller K"):
            k_fold_cv(data, "ols", [0.0], k=6, seed=0)

    def test_seed_changes_folds(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, n=60, p=3)
        a = k_fold_cv(data, "lasso", [0.1], k=5, seed=1).points[0].r2_values
        b = k_fold_cv(data, "lasso", [0.1], k=5, seed=2).points[0].r2_values
        assert a != b


class TestSelectByCI:
    def point(self, lam, inner, outer, coef=1.0, alpha=None):
        return CVPoint(
            lam=lam, alpha=alpha, r2_values=(0.5,), mean_r2=0.5, sd_r2=0.1,
            count_inner=inner, count_outer=outer, mean_abs_coef=coef,
        )

    def test_single_point(self):
        report = CVReport("lasso", 5, 0, [self.point(1.0, 3, 5)])
        assert select_by_ci(report).lam == 1.0

    def test_argmax_inner(self):
        report = CVReport("lasso", 20, 0, [self.point(1.0, 16, 20), self.point(2.0, 18, 20)])
        assert select_by_ci(report).lam == 2.0

    def test_tie_broken_by_outer(self):
        report = CVReport("lasso", 20, 0, [self.point(1.0, 16, 18), self.point(2.0, 16, 19)])
        assert select_by_ci(report).lam == 2.0

    def test_remaining_tie_prefers_larger_lambda(self):
        report = CVReport("lasso", 20, 0, [self.point(1.0, 16, 18), self.point(3.0, 16, 18)])
        assert select_by_ci(report).lam == 3.0

    def test_degenerate_points_excluded(self):
        report = CVReport(
            "lasso", 20, 0,
            [self.point(9.0, 20, 20, coef=1e-12), self.point(1.0, 10, 12)],
        )
        assert select_by_ci(report).lam == 1.0

    def test_all_degenerate_errors(self):
        report = CVReport("lasso", 20, 0, [self.point(9.0, 20, 20, coef=0.0)])
        with pytest.raises(NumericalError):
            select_by_ci(report)


class TestRelativeError:
    def test_exact(self):
        assert relative_error([100.0], [100.0]) == 0.0

    def test_single(self):
        assert relative_error([100.0], [90.0]) == pytest.approx(0.1)

    def test_hand_mean(self):
        assert relative_error([50.0, 200.0], [55.0, 180.0]) == pytest.approx(0.1)

    def test_zero_truth_errors(self):
        with pytest.raises(DataError):
            relative_error([0.0, 1.0], [1.0, 1.0])


class TestStandardizationRoundTrip:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_predictions_match_original_scale(self, seed):
        rng = np.random.default_rng(seed)
        cov = rng.normal(loc=5.0, scale=3.0, size=(40, 3))
        y = 2.0 + cov @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=40)
        data = dataset(y, cov)
        fit = fit_elastic_net(data, 0.1, alpha=0.5, tol=1e-10)
        # reconstruct predictions on the standardized scale
        mean = cov.mean(axis=0)
        sd = cov.std(axis=0, ddof=1)
        theta_std = fit.theta[1:] * sd
        pred_std = (y.mean() + ((cov - mean) / sd) @ theta_std) + (
            fit.theta[0] + mean @ fit.theta[1:] - y.mean()
        )
        assert np.max(np.abs(pred_std - fit.predict_matrix(data.x))) < 1e-9


def test_duplicate_columns_collapse_to_single_support():
    rng = np.random.default_rng(18)
    base = rng.normal(size=(80, 1))
    cov = np.column_stack([base, base[:, 0], rng.normal(size=80)])
    y = 3.0 * base[:, 0] + 0.1 * rng.normal(size=80)
    data = dataset(y, cov, names=("a", "a_dup", "b"))
    fit = fit_lasso(data, 0.05)
    assert not ({1, 2} <= set(fit.support))
    refit = post_refit(data, fit)  # must not raise on a collinear pair
    assert refit.support == fit.support

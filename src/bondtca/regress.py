"""Linear cost benchmarks: OLS, Lasso, Elastic Net, two-step Lasso.

Penalized objectives use the coordinate-descent normalization

    (1/2N) ||Y - X theta||^2 + lam * [ alpha * sum|theta_j|
                                       + (1 - alpha)/2 * sum theta_j^2 ]

with the intercept never penalized (lasso: alpha = 1, ridge: alpha = 0).
Covariates are centered and scaled to unit sample standard deviation before
a penalized fit and coefficients are reported back on the original scale,
so penalty levels are comparable across features. Closed-form Ridge
(``fit_ridge``) is the reference the penalized fits are checked against,
at zero penalty and at alpha = 0.

Hyperparameters are chosen by K-fold cross-validation: for each grid point
the K out-of-sample R^2 values are summarized by their mean and standard
deviation, and the point maximizing the number of values inside the
mean +/- sd/sqrt(K) band wins (falling back to the mean +/- sd band, then
to the larger penalty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .stats import ndtr

DEGENERATE_COEF_THRESHOLD = 1e-10
_SQRT_EPS = math.sqrt(np.finfo(float).eps)  # LAPACK's tol3z
MODEL_FAMILIES = ("ols", "lasso", "lslasso", "en")


def log_grid(lo: float, hi: float, num: int) -> tuple[float, ...]:
    """Log-uniform hyperparameter grid, endpoints included."""
    return tuple(float(v) for v in np.logspace(math.log10(lo), math.log10(hi), num))


DEFAULT_LASSO_GRID = log_grid(1e-1, 1e3, 20)
DEFAULT_EN_ALPHAS = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class Dataset:
    """Response vector plus design matrix with a leading all-ones column."""

    y: np.ndarray
    x: np.ndarray  # (n, w) including the intercept column
    feature_names: tuple[str, ...]  # w - 1 covariate names

    @classmethod
    def from_covariates(
        cls, y: np.ndarray, covariates: np.ndarray, names: Sequence[str] | None = None
    ) -> "Dataset":
        y = np.asarray(y, dtype=float)
        cov = np.asarray(covariates, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != y.shape[0]:
            raise DataError("covariate matrix must be (n, p) matching y")
        if not (np.isfinite(y).all() and np.isfinite(cov).all()):
            raise DataError("dataset contains non-finite values")
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(cov.shape[1]))
        if len(names) != cov.shape[1]:
            raise DataError("feature name count does not match covariates")
        x = np.column_stack([np.ones(y.shape[0]), cov])
        return cls(y=y, x=x, feature_names=tuple(names))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def w(self) -> int:
        return self.x.shape[1]

    def covariates(self) -> np.ndarray:
        return self.x[:, 1:]

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(y=self.y[rows], x=self.x[rows], feature_names=self.feature_names)


@dataclass
class FitResult:
    model: str
    theta: np.ndarray  # (w,), original scale, [0] is the intercept
    support: tuple[int, ...]  # covariate indices (1-based into theta)
    r_squared: float
    feature_names: tuple[str, ...]
    lam: float | None = None
    alpha: float | None = None
    std_errors: np.ndarray | None = None
    p_values: np.ndarray | None = None
    converged: bool = True
    n_iter: int = 0

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        return x @ self.theta

    def coefficients(self) -> dict[str, float]:
        out = {"intercept": float(self.theta[0])}
        for j, name in enumerate(self.feature_names, start=1):
            out[name] = float(self.theta[j])
        return out

    def to_json_obj(self) -> dict:
        obj = {
            "model": self.model,
            "lambda": self.lam,
            "alpha": self.alpha,
            "coefficients": self.coefficients(),
            "support": [self.feature_names[j - 1] for j in self.support],
            "r2": self.r_squared,
            "converged": self.converged,
        }
        if self.std_errors is not None:
            names = ("intercept",) + self.feature_names
            obj["std_errors"] = {n: float(v) for n, v in zip(names, self.std_errors)}
            obj["p_values"] = {n: float(v) for n, v in zip(names, self.p_values)}
        return obj


def _r_squared(y: np.ndarray, resid: np.ndarray) -> float:
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 0.0
    return 1.0 - float(resid @ resid) / sst


def _pivoted_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR with column pivoting (Businger-Golub, as LAPACK's dgeqp3).

    Returns ``(a, tau, piv)``: R in the upper triangle of ``a``, the
    reflectors I - tau v v^T below it (v[0] = 1 implied), and the column
    order. Each step takes the column of largest remaining norm, the first
    on a tie; the norms are downdated, and recomputed when downdating has
    lost half the digits.
    """
    a = np.array(x, dtype=float)
    n, w = a.shape
    piv = np.arange(w)
    norms = np.linalg.norm(a, axis=0)
    exact = norms.copy()  # each norm when last computed in full
    tau = np.zeros(min(n, w))
    for i in range(tau.size):
        p = i + int(np.argmax(norms[i:]))
        if p != i:
            a[:, [i, p]] = a[:, [p, i]]
            piv[[i, p]] = piv[[p, i]]
            norms[p], exact[p] = norms[i], exact[i]
        alpha, rest = a[i, i], float(np.linalg.norm(a[i + 1 :, i]))
        if rest != 0.0:
            beta = -math.copysign(math.hypot(alpha, rest), alpha)
            tau[i] = (beta - alpha) / beta
            a[i + 1 :, i] *= 1.0 / (alpha - beta)
            a[i, i] = beta
            v = np.concatenate(([1.0], a[i + 1 :, i]))
            a[i:, i + 1 :] -= tau[i] * np.outer(v, v @ a[i:, i + 1 :])
        live = i + 1 + np.flatnonzero(norms[i + 1 :] != 0.0)
        shrink = np.maximum(1.0 - (np.abs(a[i, live]) / norms[live]) ** 2, 0.0)
        lost = shrink * (norms[live] / exact[live]) ** 2 <= _SQRT_EPS
        norms[live] *= np.sqrt(shrink)
        redo = live[lost]
        norms[redo] = exact[redo] = np.linalg.norm(a[i + 1 :, redo], axis=0)
    return a, tau, piv


def fit_ols(data: Dataset) -> FitResult:
    """Least squares via pivoted QR and back-substitution, normal-theory errors."""
    n, w = data.n, data.w
    if n <= w:
        raise DataError(f"OLS needs n > w, got n={n}, w={w}")
    a, tau, piv = _pivoted_qr(data.x)
    diag = np.abs(np.diag(a))
    tol = diag.max() * max(n, w) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < w:
        names = ("intercept",) + data.feature_names
        dependent = sorted(names[j] for j in piv[rank:])
        raise DataError(f"design matrix is rank-deficient; dependent columns: {dependent}")

    qty = data.y.copy()  # Q^T y, one reflector at a time
    for i in range(w):
        v = np.concatenate(([1.0], a[i + 1 :, i]))
        qty[i:] -= tau[i] * (v @ qty[i:]) * v
    coef = np.empty(w)
    for i in range(w - 1, -1, -1):
        coef[i] = (qty[i] - a[i, i + 1 : w] @ coef[i + 1 :]) / a[i, i]
    theta = np.empty(w)
    theta[piv] = coef
    resid = data.y - data.x @ theta
    sigma2 = float(resid @ resid) / (n - w)
    xtx_inv = np.linalg.inv(data.x.T @ data.x)
    std = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, theta / std, np.inf)
    p = np.array([2.0 * (1.0 - ndtr(v)) for v in np.abs(z).tolist()])
    support = tuple(j for j in range(1, w) if theta[j] != 0.0)
    return FitResult(
        model="ols",
        theta=theta,
        support=support,
        r_squared=_r_squared(data.y, resid),
        feature_names=data.feature_names,
        std_errors=std,
        p_values=p,
    )


@dataclass
class _Standardized:
    xc: np.ndarray  # centered, scaled covariates
    yc: np.ndarray  # centered response
    x_mean: np.ndarray
    x_scale: np.ndarray  # sample std, ddof=1; zero-variance columns get 1.0
    y_mean: float


def _standardize(data: Dataset) -> _Standardized:
    cov = data.covariates()
    x_mean = cov.mean(axis=0)
    x_scale = cov.std(axis=0, ddof=1) if data.n > 1 else np.ones(cov.shape[1])
    x_scale = np.where(x_scale > 0, x_scale, 1.0)
    return _Standardized(
        xc=(cov - x_mean) / x_scale,
        yc=data.y - data.y.mean(),
        x_mean=x_mean,
        x_scale=x_scale,
        y_mean=float(data.y.mean()),
    )


def _finish_penalized(
    data: Dataset,
    std: _Standardized,
    theta_std: np.ndarray,
    model: str,
    lam: float,
    alpha: float | None,
    converged: bool,
    n_iter: int,
) -> FitResult:
    beta = theta_std / std.x_scale
    intercept = std.y_mean - float(std.x_mean @ beta)
    theta = np.concatenate([[intercept], beta])
    resid = data.y - data.x @ theta
    support = tuple(j for j in range(1, data.w) if theta[j] != 0.0)
    return FitResult(
        model=model,
        theta=theta,
        support=support,
        r_squared=_r_squared(data.y, resid),
        feature_names=data.feature_names,
        lam=lam,
        alpha=alpha,
        converged=converged,
        n_iter=n_iter,
    )


def fit_ridge(data: Dataset, lam: float) -> FitResult:
    """Closed-form ridge on standardized covariates (intercept unpenalized)."""
    if lam < 0:
        raise DataError("lambda must be >= 0")
    std = _standardize(data)
    p = std.xc.shape[1]
    gram = std.xc.T @ std.xc + data.n * lam * np.eye(p)
    theta_std = np.linalg.solve(gram, std.xc.T @ std.yc) if p else np.zeros(0)
    return _finish_penalized(data, std, theta_std, "ridge", lam, None, True, 0)


def _soft(v: float, thresh: float) -> float:
    if v > thresh:
        return v - thresh
    if v < -thresh:
        return v + thresh
    return 0.0


def _coordinate_descent(
    xc: np.ndarray,
    yc: np.ndarray,
    l1: float,
    l2: float,
    n: int,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, bool, int]:
    """Cyclic coordinate descent with soft-thresholding; residual maintained."""
    p = xc.shape[1]
    theta = np.zeros(p)
    if p == 0:
        return theta, True, 0
    # Gram form: each coordinate update costs O(p) instead of O(n)
    gram = xc.T @ xc
    xty = xc.T @ yc
    col_sq = np.diag(gram).copy()
    s = np.zeros(p)  # gram @ theta, maintained incrementally

    def snapped(t: np.ndarray) -> np.ndarray:
        # Duplicate (or sign-flipped duplicate) columns make the minimizer a
        # flat segment; shift such splits onto the sparse endpoint, which has
        # the same fitted values and no larger penalty. One-hot indicator
        # groups produce exactly these pairs. Collinearity is read off the
        # Gram matrix (Cauchy-Schwarz holds with equality iff collinear).
        t = t.copy()
        active = np.flatnonzero(t)
        for a, i in enumerate(active):
            if t[i] == 0.0:
                continue
            for j in active[a + 1 :]:
                if t[j] == 0.0:
                    continue
                gij = gram[i, j]
                if gij * gij >= col_sq[i] * col_sq[j] * (1.0 - 1e-12):
                    if gij > 0:
                        t[i] += t[j]
                    else:
                        t[i] -= t[j]
                    t[j] = 0.0
        # Coefficients below the convergence tolerance are numerically zero;
        # float noise at the subgradient boundary must not enter the support.
        t[np.abs(t) < tol] = 0.0
        return t

    for sweep in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(p):
            old = theta[j]
            rho = xty[j] - s[j] + col_sq[j] * old
            new = _soft(rho / n, l1) / (col_sq[j] / n + l2) if col_sq[j] > 0 else 0.0
            if new != old:
                s += gram[:, j] * (new - old)
                theta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            return snapped(theta), True, sweep
    return snapped(theta), False, max_iter


def fit_elastic_net(
    data: Dataset,
    lam: float,
    alpha: float,
    tol: float = 1e-7,
    max_iter: int = 100_000,
) -> FitResult:
    """Coordinate descent on the mixed L1/L2 objective."""
    if lam < 0:
        raise DataError("lambda must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise DataError("alpha must be in [0, 1]")
    std = _standardize(data)
    theta_std, converged, n_iter = _coordinate_descent(
        std.xc, std.yc, l1=lam * alpha, l2=lam * (1.0 - alpha), n=data.n,
        tol=tol, max_iter=max_iter,
    )
    return _finish_penalized(data, std, theta_std, "en", lam, alpha, converged, n_iter)


def fit_lasso(
    data: Dataset, lam: float, tol: float = 1e-7, max_iter: int = 100_000
) -> FitResult:
    """Pure L1 fit; the alpha = 1 corner of the elastic net."""
    fit = fit_elastic_net(data, lam, alpha=1.0, tol=tol, max_iter=max_iter)
    return FitResult(
        model="lasso",
        theta=fit.theta,
        support=fit.support,
        r_squared=fit.r_squared,
        feature_names=fit.feature_names,
        lam=lam,
        alpha=None,
        converged=fit.converged,
        n_iter=fit.n_iter,
    )


def lasso_lambda_max(data: Dataset, alpha: float = 1.0) -> float:
    """Smallest penalty with an all-zero support: max_j |x_j' yc| / (N alpha)."""
    std = _standardize(data)
    if std.xc.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(std.xc.T @ std.yc))) / (data.n * alpha)


def kkt_gap(data: Dataset, fit: FitResult) -> float:
    """Largest violation of the stationarity conditions at the reported fit.

    Zero (up to the convergence tolerance) certifies a lasso/elastic-net
    optimum: active coordinates must satisfy the subgradient equation and
    inactive ones must sit under the threshold.
    """
    if fit.model not in ("lasso", "en") or fit.lam is None:
        raise DataError("kkt_gap applies to lasso / elastic-net fits")
    alpha = 1.0 if fit.alpha is None else fit.alpha
    std = _standardize(data)
    theta_std = fit.theta[1:] * std.x_scale
    resid = std.yc - std.xc @ theta_std
    grad = -(std.xc.T @ resid) / data.n + fit.lam * (1.0 - alpha) * theta_std
    thresh = fit.lam * alpha
    gap = 0.0
    for g, t in zip(grad, theta_std):
        if t != 0.0:
            gap = max(gap, abs(g + thresh * math.copysign(1.0, t)))
        else:
            gap = max(gap, max(0.0, abs(g) - thresh))
    return gap


def elastic_net_objective(data: Dataset, fit: FitResult) -> float:
    """Objective value of a penalized fit, on the standardized scale."""
    alpha = 1.0 if fit.alpha is None else fit.alpha
    std = _standardize(data)
    theta_std = fit.theta[1:] * std.x_scale
    resid = std.yc - std.xc @ theta_std
    lam = fit.lam or 0.0
    return (
        float(resid @ resid) / (2 * data.n)
        + lam * alpha * float(np.sum(np.abs(theta_std)))
        + lam * (1 - alpha) / 2 * float(theta_std @ theta_std)
    )


def post_refit(data: Dataset, first_stage: FitResult) -> FitResult:
    """OLS restricted to the first-stage support (the two-step estimator)."""
    support = first_stage.support
    w = data.w
    if not support:
        theta = np.zeros(w)
        theta[0] = float(data.y.mean())
        resid = data.y - theta[0]
        return FitResult(
            model="lslasso",
            theta=theta,
            support=(),
            r_squared=_r_squared(data.y, resid),
            feature_names=data.feature_names,
            lam=first_stage.lam,
            alpha=first_stage.alpha,
        )
    cols = [0] + list(support)
    restricted = Dataset(
        y=data.y,
        x=data.x[:, cols],
        feature_names=tuple(data.feature_names[j - 1] for j in support),
    )
    sub = fit_ols(restricted)
    theta = np.zeros(w)
    std = np.zeros(w)
    p = np.ones(w)
    for pos, col in enumerate(cols):
        theta[col] = sub.theta[pos]
        std[col] = sub.std_errors[pos]
        p[col] = sub.p_values[pos]
    return FitResult(
        model="lslasso",
        theta=theta,
        support=tuple(j for j in support if theta[j] != 0.0),
        r_squared=sub.r_squared,
        feature_names=data.feature_names,
        lam=first_stage.lam,
        alpha=first_stage.alpha,
        std_errors=std,
        p_values=p,
    )


@dataclass(frozen=True)
class GridPoint:
    lam: float
    alpha: float | None = None

    @property
    def label(self) -> str:
        if self.alpha is None:
            return f"lambda={self.lam:.6g}"
        return f"lambda={self.lam:.6g}, alpha={self.alpha:.3g}"


def _fit_for(family: str, data: Dataset, point: GridPoint) -> FitResult:
    if family == "lasso":
        return fit_lasso(data, point.lam)
    if family == "lslasso":
        return post_refit(data, fit_lasso(data, point.lam))
    if family == "en":
        if point.alpha is None:
            raise DataError("elastic net grid points need an alpha")
        return fit_elastic_net(data, point.lam, point.alpha)
    if family == "ols":
        return fit_ols(data)
    raise DataError(f"unknown model family {family!r}; choose from {MODEL_FAMILIES}")


def summarize_cv_scores(scores: Sequence[float]) -> tuple[float, float, int, int]:
    """Mean, sd and the counts inside the two confidence bands (inclusive)."""
    arr = np.asarray(scores, dtype=float)
    k = arr.size
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if k > 1 else 0.0
    half1 = sd / math.sqrt(k) if k else 0.0
    in1 = int(np.sum((arr >= mean - half1) & (arr <= mean + half1)))
    in2 = int(np.sum((arr >= mean - sd) & (arr <= mean + sd)))
    return mean, sd, in1, in2


@dataclass
class CVPoint:
    lam: float
    alpha: float | None
    r2_values: tuple[float, ...]
    mean_r2: float
    sd_r2: float
    count_inner: int  # values inside mean +/- sd/sqrt(K)
    count_outer: int  # values inside mean +/- sd
    mean_abs_coef: float

    def to_json_obj(self) -> dict:
        return {
            "lambda": self.lam,
            "alpha": self.alpha,
            "r2_values": list(self.r2_values),
            "mean_r2": self.mean_r2,
            "sd_r2": self.sd_r2,
            "count_inner": self.count_inner,
            "count_outer": self.count_outer,
            "mean_abs_coef": self.mean_abs_coef,
        }


@dataclass
class CVReport:
    family: str
    k: int
    seed: int
    points: list[CVPoint] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "model": self.family,
            "k_folds": self.k,
            "seed": self.seed,
            "grid": [p.to_json_obj() for p in self.points],
        }


def k_fold_cv(
    data: Dataset,
    family: str,
    grid: Iterable[GridPoint | float],
    k: int = 10,
    seed: int = 0,
) -> CVReport:
    """K-fold cross-validation over a hyperparameter grid.

    The shuffle is a deterministic function of ``seed``; folds are
    near-equal slices of the permutation. Out-of-sample R^2 uses the
    training-fold mean in its total sum of squares, so badly over-penalized
    points can score negative.
    """
    points = [p if isinstance(p, GridPoint) else GridPoint(lam=float(p)) for p in grid]
    if not points:
        raise DataError("empty hyperparameter grid")
    if k < 2:
        raise DataError("k_fold_cv needs K >= 2")
    if family not in MODEL_FAMILIES:
        raise DataError(f"unknown model family {family!r}; choose from {MODEL_FAMILIES}")
    n = data.n
    if n < k:
        raise DataError(f"K={k} folds need at least {k} rows, got {n}")
    if family == "ols":
        min_train = n - math.ceil(n / k)
        if min_train <= data.w:
            raise DataError(
                f"training folds of {min_train} rows cannot fit {data.w} parameters; "
                "use more data or a smaller K"
            )

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    splits = []
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        splits.append((data.subset(np.flatnonzero(mask)), data.x[fold], data.y[fold]))

    report = CVReport(family=family, k=k, seed=seed)
    for point in points:
        scores: list[float] = []
        coef_sizes: list[float] = []
        for train, test_x, test_y in splits:
            fit = _fit_for(family, train, point)
            pred = fit.predict_matrix(test_x)
            sse = float(np.sum((test_y - pred) ** 2))
            sst = float(np.sum((test_y - train.y.mean()) ** 2))
            scores.append(1.0 - sse / sst if sst > 0 else 0.0)
            coefs = fit.theta[1:]
            coef_sizes.append(float(np.mean(np.abs(coefs))) if coefs.size else 0.0)
        mean, sd, in1, in2 = summarize_cv_scores(scores)
        report.points.append(
            CVPoint(
                lam=point.lam,
                alpha=point.alpha,
                r2_values=tuple(scores),
                mean_r2=mean,
                sd_r2=sd,
                count_inner=in1,
                count_outer=in2,
                mean_abs_coef=float(np.mean(coef_sizes)),
            )
        )
    return report


def select_by_ci(report: CVReport) -> CVPoint:
    """Grid point with the most scores inside the inner band.

    Degenerate all-zero-coefficient points are excluded first; ties fall
    back to the outer-band count, then to the larger penalty.
    """
    candidates = [p for p in report.points if p.mean_abs_coef >= DEGENERATE_COEF_THRESHOLD]
    if not candidates:
        raise NumericalError("all grid points over-penalize to zero coefficients")
    return max(candidates, key=lambda p: (p.count_inner, p.count_outer, p.lam))


def relative_error(truth: Sequence[float], pred: Sequence[float]) -> float:
    """Mean absolute error relative to the true values."""
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise DataError("truth and prediction lengths differ")
    if np.any(t == 0):
        raise DataError("relative error undefined for zero truth entries")
    return float(np.mean(np.abs(t - p) / np.abs(t)))


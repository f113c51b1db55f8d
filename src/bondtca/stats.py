"""Statistical tests: one-way ANOVA, Kruskal-Wallis H, two-sample KS, Welch t.

Distribution tails come from the regularized incomplete gamma / beta
functions; ranks use mid-ranks with the standard tie correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError


@dataclass(slots=True)
class TestResult:
    statistic: float
    p_value: float
    df: tuple[float, ...] = ()
    sample_sizes: tuple[int, ...] = ()
    degenerate: bool = False


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper tail of the F(d1, d2) distribution."""
    from scipy.special import betainc

    if math.isinf(f):
        return 0.0
    if f <= 0:
        return 1.0
    return float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f)))


def chi2_sf(x: float, k: float) -> float:
    """Upper tail of the chi-squared distribution with k degrees of freedom."""
    from scipy.special import gammaincc

    if x <= 0:
        return 1.0
    return float(gammaincc(k / 2.0, x / 2.0))


def t_sf(t: float, df: float) -> float:
    """Upper tail of Student's t."""
    from scipy.special import stdtr

    return float(1.0 - stdtr(df, t))


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

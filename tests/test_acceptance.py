"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Estimator criteria run on synthetic markets with known ground truth;
tolerances are stated inline next to each assertion.
"""

import time
from pathlib import Path

import numpy as np

from bondtca.calendars import BusinessCalendar
from bondtca.classify import classify_bond, classify_trades
from bondtca.cli import main as cli_main
from bondtca.impact import (
    empirical_signature,
    estimate_correlation,
    estimate_pair_moments,
    estimate_tim1,
    fit_d_const,
    model_signature_tim1,
    model_signature_tim2,
    solve_tim2,
)
from bondtca.impact import ImpactKernel
from bondtca.ingest import TradeTable, cap_volumes, ingest_reports
from bondtca.microstructure import estimate_spreads
from bondtca.regress import (
    Dataset,
    fit_elastic_net,
    fit_lasso,
    fit_ols,
    fit_ridge,
    k_fold_cv,
    kkt_gap,
    lasso_lambda_max,
    log_grid,
    post_refit,
    select_by_ci,
)
from bondtca.stats import anova_f, kruskal_h, ks_two_sample, welch_t
from bondtca.synthgen import KernelSpec, SynthConfig, generate_tim_series, generate_trace_fixture

from conftest import make_trade, ts
from test_classify import brute_force_rpt_flags


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_solver_equivalences():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cov = rng.normal(size=(200, 9))
        theta = rng.normal(scale=2.0, size=9)
        y = rng.normal() + cov @ theta + 0.5 * rng.normal(size=200)
        data = Dataset.from_covariates(y, cov)
        ols = fit_ols(data).theta
        alpha = float(rng.uniform(0.05, 0.95))
        for fit in (
            fit_lasso(data, 0.0),
            fit_elastic_net(data, 0.0, alpha=alpha),
            fit_ridge(data, 0.0),
        ):
            worst = max(worst, float(np.max(np.abs(fit.theta - ols))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report_line(
        1, ok, f"lasso/EN/ridge at zero penalty vs OLS: max|diff|={worst:.2e} "
        f"(tol 1e-6), runtime {elapsed:.2f}s (cap 5s), 100 instances",
    )


def test_criterion_02_lasso_correctness():
    one_d = Dataset.from_covariates(
        np.array([-1.0, 0.0, 1.0]), np.array([[-1.0], [0.0], [1.0]])
    )
    slope = fit_lasso(one_d, 1.0 / 3.0).theta[1]
    closed_form_ok = abs(slope - 0.5) < 1e-9

    rng = np.random.default_rng(102)
    empty_ok = True
    kkt_ok = True
    for _ in range(20):
        cov = rng.normal(size=(120, 8))
        y = rng.normal() + cov @ rng.normal(size=8) + rng.normal(size=120)
        data = Dataset.from_covariates(y, cov)
        lam_max = lasso_lambda_max(data)
        for lam in (lam_max, 1.3 * lam_max):
            empty_ok &= fit_lasso(data, lam).support == ()
        for lam in (0.05, 0.5 * lam_max):
            fit = fit_lasso(data, lam)
            kkt_ok &= fit.converged and kkt_gap(data, fit) < 1e-6
    ok = closed_form_ok and empty_ok and kkt_ok
    report_line(
        2, ok, f"1-D slope {slope:.12f} (want 0.5 to 1e-9); "
        f"empty support at lambda_max: {empty_ok}; KKT holds: {kkt_ok}",
    )


def test_criterion_03_post_lasso_contract():
    rng = np.random.default_rng(103)
    support_ok = True
    coef_worst = 0.0
    for _ in range(25):
        cov = rng.normal(size=(150, 10))
        y = rng.normal() + cov[:, :4] @ rng.normal(scale=3.0, size=4) + rng.normal(size=150)
        data = Dataset.from_covariates(y, cov)
        first = fit_lasso(data, float(rng.uniform(0.05, 1.0)))
        refit = post_refit(data, first)
        support_ok &= refit.support == first.support
        cols = [0] + list(first.support)
        if len(cols) > 1:
            sub = data.x[:, cols]
            oracle = np.linalg.solve(sub.T @ sub, sub.T @ data.y)
            coef_worst = max(coef_worst, float(np.max(np.abs(refit.theta[cols] - oracle))))
    ok = support_ok and coef_worst < 1e-8
    report_line(
        3, ok, f"two-step support preserved: {support_ok}; "
        f"restricted OLS max|diff|={coef_worst:.2e} (tol 1e-8)",
    )


def test_criterion_04_ci_selection():
    grid = log_grid(6.0, 1000.0, 10)
    start = time.perf_counter()
    successes = 0
    exclusions_seen = False
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cov = rng.normal(size=(400, 26))
        y = 50.0 + cov[:, :4] @ np.array([48.0, 48.0, -48.0, 48.0]) + rng.normal(
            scale=20.0, size=400
        )
        data = Dataset.from_covariates(y, cov)
        report = k_fold_cv(data, "lslasso", grid, k=10, seed=seed)
        exclusions_seen |= any(p.mean_abs_coef < 1e-10 for p in report.points)
        chosen = select_by_ci(report)
        fit = post_refit(data, fit_lasso(data, chosen.lam))
        support = set(fit.support)
        if {1, 2, 3, 4} <= support and len(support - {1, 2, 3, 4}) <= 2:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes >= 45 and exclusions_seen and elapsed < 60.0
    report_line(
        4, ok, f"support recovery {successes}/50 (need >= 45); over-penalized points "
        f"excluded: {exclusions_seen}; runtime {elapsed:.1f}s (cap 60s)",
    )


TIM1_CONFIG = SynthConfig(
    seed=1,
    n_events=200_000,
    kernel_buy=KernelSpec("exponential", 25.0, beta=0.4),
    noise_sd_bp=5.0,
    alpha=0.0,
)


def test_criterion_05_tim1_kernel_recovery():
    start = time.perf_counter()
    series, manifest = generate_tim_series(TIM1_CONFIG)
    kernel = estimate_tim1(series, n_lags=10, l_lags=10)
    truth = np.array(manifest.truth_kernels["+1"])
    rel = np.abs(kernel.g - truth) / truth
    elapsed = time.perf_counter() - start
    ok = bool(np.all(rel[:6] <= 0.05) and np.all(rel[6:] <= 0.10) and elapsed < 30.0)
    report_line(
        5, ok, f"exponential kernel recovery: max rel err lags 0-5 = {rel[:6].max():.4f} "
        f"(tol 0.05), lags 6-10 = {rel[6:].max():.4f} (tol 0.10), "
        f"runtime {elapsed:.1f}s (cap 30s)",
    )


def test_criterion_06_signature_consistency():
    series, _ = generate_tim_series(TIM1_CONFIG)
    kernel = estimate_tim1(series, n_lags=10, l_lags=10)
    emp = empirical_signature(series.mid, 10)
    corr = estimate_correlation(series, range(-11, 21))
    partial = model_signature_tim1(kernel, corr, 10)
    d_model = partial + fit_d_const(partial, emp.d)
    z = np.abs(d_model - emp.d) / emp.se
    fits_ok = bool(np.all(z <= 3.0))

    flat = ImpactKernel(
        cusip=series.cusip,
        event_type=None,
        delta=np.zeros(10),
        g=np.full(11, kernel.g0),
        n_lags=10,
        l_lags=10,
        condition_number=1.0,
    )
    partial_bad = model_signature_tim1(flat, corr, 10)
    d_bad = partial_bad + fit_d_const(partial_bad, emp.d)
    violations = int(np.sum(np.abs(d_bad - emp.d) / emp.se > 3.0))
    ok = fits_ok and violations >= 3
    report_line(
        6, ok, f"estimated kernel inside 3-SE band at all lags (max z={z.max():.2f}); "
        f"misspecified constant kernel violates at {violations} lags (need >= 3)",
    )


def test_criterion_07_tim2_asymmetry():
    ordered_all = True
    tol_all = True
    ssd_all = True
    for seed in range(20):
        cfg = SynthConfig(
            seed=seed,
            n_events=200_000,
            kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
            kernel_sell=KernelSpec("exponential", 20.0, beta=0.4),
            noise_sd_bp=5.0,
            alpha=1.0,
            volume_log_mean=0.0,
            volume_log_sd=1.0,
            volume_round=0.0,
        )
        series, manifest = generate_tim_series(cfg)
        kernels = solve_tim2(series, 10, 10)
        tp = np.array(manifest.truth_kernels["+1"])
        tm = np.array(manifest.truth_kernels["-1"])
        ordered_all &= bool(
            kernels[1].g[0] > kernels[-1].g[0] and kernels[1].g[1] > kernels[-1].g[1]
        )
        rel_p = np.abs(kernels[1].g[:2] - tp[:2]) / tp[:2]
        rel_m = np.abs(kernels[-1].g[:2] - tm[:2]) / tm[:2]
        tol_all &= bool(rel_p.max() <= 0.10 and rel_m.max() <= 0.10)

        emp = empirical_signature(series.mid, 10)
        moments = estimate_pair_moments(series, 25)
        tim1 = estimate_tim1(series, 10, 10)
        d1 = model_signature_tim1(
            tim1, moments.merged_series(), 10, mean_flow=moments.mean_flow
        )
        d1 += fit_d_const(d1, emp.d)
        d2 = model_signature_tim2(kernels, moments, 10)
        d2 += fit_d_const(d2, emp.d)
        ssd_all &= bool(np.sum((d2 - emp.d) ** 2) < np.sum((d1 - emp.d) ** 2))
    ok = ordered_all and tol_all and ssd_all
    report_line(
        7, ok, f"20/20 seeded runs: buy kernel above sell at lags 0-1 ({ordered_all}), "
        f"both within 10% of truth there ({tol_all}), two-type signature strictly "
        f"closer to data than single-type ({ssd_all})",
    )


def test_criterion_08_classification_oracle(parse_tape):
    rng = np.random.default_rng(108)
    legs = ["customer_buy", "customer_sell", "dealer_dealer"]
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 13))
        volumes = rng.integers(1, 4, size=n).astype(float)
        tape_legs = [legs[i] for i in rng.integers(0, 3, size=n)]
        trades = [
            make_trade(k=i, volume=v, leg=leg)
            for i, (v, leg) in enumerate(zip(volumes, tape_legs))
        ]
        got = [t.is_rpt for t in classify_bond(TradeTable.from_rows(trades))]
        want = brute_force_rpt_flags(list(volumes), tape_legs)
        mismatches += got != want

    cfg = SynthConfig(seed=9, n_events=5000, rpt_fraction=0.25)
    tape, manifest = generate_trace_fixture(cfg, BusinessCalendar())
    clean, _ = ingest_reports(parse_tape(tape), BusinessCalendar())
    signed = classify_trades(clean)
    flagged = {(t.cusip, t.timestamp.isoformat(sep=" ")) for t in signed if t.is_rpt}
    planted = [p for p in manifest.planted_rpts if not p.ambiguous]
    hits = sum(
        1
        for p in planted
        if (p.cusip, p.base_timestamp) in flagged and (p.cusip, p.partner_timestamp) in flagged
    )
    recall = hits / len(planted)
    ok = mismatches == 0 and recall >= 0.99
    report_line(
        8, ok, f"brute-force match on 10,000 random tapes: {10_000 - mismatches}/10000; "
        f"planted-RPT recall {recall:.4f} over {len(planted)} unambiguous pairs (need >= 0.99)",
    )


def test_criterion_09_filter_accounting(parse_tape):
    cfg = SynthConfig(
        seed=905,
        n_events=400,
        cancel_rate=0.08,
        correction_rate=0.04,
        reversal_rate=0.02,
        filter_violations={"2": 7, "3": 5, "4": 6, "5": 4, "6": 3, "7": 8},
    )
    calendar = BusinessCalendar()
    tape, manifest = generate_trace_fixture(cfg, calendar)
    reports = parse_tape(tape)
    clean, rep = ingest_reports(reports, calendar)
    by_step = {s.step: s for s in rep.steps}
    counts_ok = all(
        by_step[int(step)].removed == count
        for step, count in manifest.filter_violations.items()
    )
    lc = rep.lifecycle
    lifecycle_ok = (
        lc.cancels_applied == manifest.lifecycle_counts.get("cancels", 0)
        and lc.corrections_applied == manifest.lifecycle_counts.get("corrections", 0)
        and lc.reversals_applied == manifest.lifecycle_counts.get("reversals", 0)
    )
    pct_ok = True
    prev_remaining = rep.steps[0].remaining
    for s in rep.steps[1:]:
        input_count = prev_remaining
        expect_pct = 100.0 * s.removed / input_count if input_count else 0.0
        pct_ok &= abs(s.removed_pct - expect_pct) < 1e-12
        pct_ok &= s.remaining == input_count - s.removed
        prev_remaining = s.remaining
    total_ok = sum(s.removed for s in rep.steps) + len(clean) == len(reports)
    ok = counts_ok and lifecycle_ok and pct_ok and total_ok
    report_line(
        9, ok, f"planted per-step counts match manifest: {counts_ok}; lifecycle counts "
        f"match: {lifecycle_ok}; percentages and totals reconcile: {pct_ok and total_ok}",
    )


def test_criterion_10_spread_and_caps():
    mid, h = 100.0, 0.25  # dyadic half-spread: prices are exactly representable
    trades = []
    for i in range(60):
        buy = i % 2 == 0
        trades.append(
            make_trade(
                k=i,
                price=mid + h if buy else mid - h,
                leg="customer_buy" if buy else "customer_sell",
                timestamp=ts(60.0 * i),
            )
        )
    spread_ok = True
    for conv in ("paper", "corrected"):
        obs = estimate_spreads(TradeTable.from_rows(trades), mid_convention=conv)
        spread_ok &= len(obs) == 59
        for o in obs:
            spread_ok &= o.psi == 2 * h
            spread_ok &= abs(o.s_bp - o.psi / o.mid * 1e4) < 1e-9

    rng = np.random.default_rng(110)
    volumes = rng.uniform(1e3, 2e7, size=200)
    hy = cap_volumes(
        TradeTable.from_rows(make_trade(k=i, volume=float(v)) for i, v in enumerate(volumes)),
        {"TESTCUSIP": "HY"},
    )
    ig = cap_volumes(
        TradeTable.from_rows(make_trade(k=i, volume=float(v)) for i, v in enumerate(volumes)),
        {"TESTCUSIP": "IG"},
    )
    caps_ok = all(t.volume <= 1_000_000.0 for t in hy)
    caps_ok &= all(t.volume <= 5_000_000.0 for t in ig)
    caps_ok &= all(t.volume <= v for t, v in zip(hy, volumes))
    caps_ok &= all(
        t.volume == min(v, 5_000_000.0) for t, v in zip(ig, volumes)
    )
    ok = spread_ok and caps_ok
    report_line(
        10, ok, f"alternating tape gives psi = 2h exactly and s = psi/M x 1e4 to 1e-9 "
        f"under both conventions: {spread_ok}; volume caps respect 1MM/5MM: {caps_ok}",
    )


def test_criterion_11_stats_fixtures():
    f_res = anova_f([[0.0, 1.0], [2.0, 3.0]])
    h_res = kruskal_h([[1.0, 2.0], [3.0, 4.0]])
    ks_res = ks_two_sample([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    rng = np.random.default_rng(111)
    x = rng.normal(size=500)
    y = rng.normal(loc=3.0, size=500)
    w_res = welch_t(x, y)
    ok = (
        abs(f_res.statistic - 8.0) < 1e-6
        and abs(h_res.statistic - 2.4) < 1e-6
        and abs(ks_res.statistic - 0.4082482904638631) < 1e-6
        and w_res.p_value < 1e-6
    )
    report_line(
        11, ok, f"ANOVA F={f_res.statistic:.6f} (want 8), H={h_res.statistic:.6f} "
        f"(want 2.4), KS D={ks_res.statistic:.6f} (want 0.408248), "
        f"Welch p={w_res.p_value:.2e} for a 3-sigma shift (need < 1e-6)",
    )


ARTIFACTS = (
    "tape.csv",
    "manifest.json",
    "clean.csv",
    "filter_report.json",
    "signed.csv",
    "spreads.csv",
    "weekly.csv",
    "features.csv",
    "fit.json",
    "cv.json",
    "kernels.json",
    "signature.csv",
)


def _run_pipeline(outdir: Path) -> float:
    outdir.mkdir()
    def stage(args):
        assert cli_main([str(a) for a in args]) == 0

    start = time.perf_counter()
    stage(
        [
            "generate", "--seed", 12, "--events", 100_000, "--bonds", 10,
            "--rpt-fraction", 0.02, "--cancel-rate", 0.005, "--correction-rate", 0.002,
            "--out-tape", outdir / "tape.csv", "--out-manifest", outdir / "manifest.json",
            "--out-reference", outdir / "reference.csv", "--out-context", outdir / "context.csv",
        ]
    )
    stage(
        [
            "ingest", "--tape", outdir / "tape.csv", "--out-clean", outdir / "clean.csv",
            "--out-filter-report", outdir / "filter_report.json",
        ]
    )
    stage(["classify", "--clean", outdir / "clean.csv", "--out-signed", outdir / "signed.csv"])
    stage(
        [
            "spread", "--signed", outdir / "signed.csv",
            "--out-observations", outdir / "spreads.csv", "--out-weekly", outdir / "weekly.csv",
        ]
    )
    stage(
        [
            "features", "--signed", outdir / "signed.csv", "--weekly", outdir / "weekly.csv",
            "--reference", outdir / "reference.csv", "--context", outdir / "context.csv",
            "--out-features", outdir / "features.csv",
        ]
    )
    stage(
        [
            "fit", "--features", outdir / "features.csv", "--model", "lslasso",
            "--out-fit", outdir / "fit.json", "--out-cv", outdir / "cv.json",
        ]
    )
    stage(
        [
            "impact", "--signed", outdir / "signed.csv", "--out-kernel", outdir / "kernels.json",
            "--out-signature", outdir / "signature.csv",
        ]
    )
    return time.perf_counter() - start


def test_criterion_12_end_to_end_determinism(tmp_path):
    elapsed_1 = _run_pipeline(tmp_path / "run1")
    elapsed_2 = _run_pipeline(tmp_path / "run2")
    n_rows = sum(1 for _ in open(tmp_path / "run1" / "tape.csv")) - 1
    identical = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in ARTIFACTS
    )
    ok = identical and elapsed_1 < 300.0 and n_rows >= 1_000_000
    report_line(
        12, ok, f"pipeline over {n_rows} tape rows in {elapsed_1:.0f}s / {elapsed_2:.0f}s "
        f"(cap 300s); artifacts byte-identical across runs: {identical}",
    )

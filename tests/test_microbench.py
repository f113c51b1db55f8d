"""Micro-benchmarks of the per-row layers on a tape of dealer-heavy scale.

Nine bonds of 7,500 trades each (67,500 rows, as in the dealer-heavy
benchmark workload): one trade in three is inter-dealer, and about half of
the trades sit in equal-volume pairs that classify as RPT candidates. The
generator runs on dealer-heavy's own generate settings. The signature
benchmark takes one synthetic bond of dealer-heavy's 5,000 events, with
unequal buy and sell kernels, at the impact stage's default lags.
"""

import random

import pytest

from bondtca import artifacts
from bondtca.classify import classify_bond, classify_trades
from bondtca.impact import (
    estimate_pair_moments, estimate_tim1, model_signature_tim1, model_signature_tim2, solve_tim2,
)
from bondtca.calendars import BusinessCalendar
from bondtca.ingest import TradeTable, group_by_cusip, ingest_reports, parse_trace_csv
from bondtca.microstructure import estimate_spreads
from bondtca.synthgen import KernelSpec, SynthConfig, generate_tim_series, generate_trace_fixture

from conftest import make_trade, ts

BONDS, TRADES_PER_BOND = 9, 7_500
LEGS = ("customer_buy", "customer_sell", "dealer_dealer")


def clean_bond(cusip, rng):
    trades, volume = [], 0.0
    for k in range(TRADES_PER_BOND):
        if k % 2 == 0 or rng.random() < 0.5:  # odd trades repeat the last volume half the time
            volume = rng.choice([50_000.0, 100_000.0, 250_000.0, rng.uniform(1e4, 2e6)])
        trades.append(
            make_trade(
                k=k, cusip=cusip, timestamp=ts(30.0 * k), price=100.0 + rng.gauss(0.0, 0.5),
                volume=volume, leg=rng.choice(LEGS),
            )
        )
    return trades


@pytest.fixture(scope="module")
def tape():
    rng = random.Random(0)
    clean = TradeTable.from_rows(t for b in range(BONDS) for t in clean_bond(f"BOND{b:05d}", rng))
    clean.epsilon[:] = 0  # clean.csv holds no signs
    signed = classify_trades(TradeTable.from_rows(clean))
    return clean, signed


def test_read_clean_trades_benchmark(benchmark, tape, tmp_path):
    clean, _ = tape
    path = tmp_path / "clean.csv"
    artifacts.write_clean_trades(path, clean)
    rows = benchmark.pedantic(artifacts.read_clean_trades, args=(path,), rounds=3, iterations=1)
    assert rows == clean


def test_write_clean_trades_benchmark(benchmark, tape, tmp_path):
    clean, _ = tape
    path = tmp_path / "clean.csv"
    benchmark.pedantic(artifacts.write_clean_trades, args=(path, clean), rounds=3, iterations=1)
    assert len(path.read_text().splitlines()) == len(clean) + 2


def test_read_signed_trades_benchmark(benchmark, tape, tmp_path):
    _, signed = tape
    path = tmp_path / "signed.csv"
    artifacts.write_signed_trades(path, signed)
    rows = benchmark.pedantic(artifacts.read_signed_trades, args=(path,), rounds=3, iterations=1)
    assert rows == signed


@pytest.fixture(scope="module")
def tape_path(tmp_path_factory):
    # half of dealer-heavy's tape: 9 bonds of 2,500 events, with their RPT
    # partners and lifecycle records
    config = SynthConfig(
        seed=5, n_events=2_500, n_bonds=9, rpt_fraction=0.5, cancel_rate=0.005,
        correction_rate=0.002,
    )
    path = tmp_path_factory.mktemp("tape") / "tape.csv"
    path.write_bytes(generate_trace_fixture(config)[0])
    return path


def test_parse_trace_csv_benchmark(benchmark, tape_path):
    reports = benchmark.pedantic(parse_trace_csv, args=(tape_path,), rounds=3, iterations=1)
    assert len(reports) == len(tape_path.read_bytes().splitlines()) - 1


def test_ingest_reports_benchmark(benchmark, tape_path):
    tape = parse_trace_csv(tape_path)
    clean, report = benchmark.pedantic(
        ingest_reports, args=(tape, BusinessCalendar()), rounds=5, iterations=1
    )
    assert sum(step.removed for step in report.steps) + len(clean) == len(tape)
    assert 0.9 * len(tape) < len(clean) < len(tape)


def test_write_signed_trades_benchmark(benchmark, tape, tmp_path):
    _, signed = tape
    path = tmp_path / "signed.csv"
    benchmark.pedantic(artifacts.write_signed_trades, args=(path, signed), rounds=3, iterations=1)
    assert len(path.read_text().splitlines()) == len(signed) + 2


def test_classify_bond_benchmark(benchmark, tape):
    bond = TradeTable.from_rows(group_by_cusip(tape[0])["BOND00000"])
    signed = benchmark.pedantic(classify_bond, args=(bond,), rounds=5, iterations=1)
    assert 0 < sum(t.is_rpt for t in signed) < len(bond)


def test_estimate_spreads_benchmark(benchmark, tape):
    _, signed = tape
    bond = group_by_cusip(signed)["BOND00000"]
    obs = benchmark.pedantic(estimate_spreads, args=(bond,), rounds=5, iterations=1)
    assert obs


def test_generate_trace_fixture_benchmark(benchmark):
    config = SynthConfig(
        seed=5, n_events=5_000, n_bonds=9, rpt_fraction=0.5, cancel_rate=0.005,
        correction_rate=0.002,
    )
    tape, manifest = benchmark.pedantic(
        generate_trace_fixture, args=(config,), rounds=3, iterations=1
    )
    lifecycle = sum(manifest.lifecycle_counts.values())
    assert tape.count(b"\n") == 1 + 9 * 5_000 + len(manifest.planted_rpts) + lifecycle


@pytest.mark.parametrize("model", ["tim1", "tim2"])
def test_model_signature_benchmark(benchmark, model):
    n_lags = l_max = 10
    config = SynthConfig(
        seed=5, n_events=5_000, kernel_buy=KernelSpec("exponential", 30.0, beta=0.5),
        kernel_sell=KernelSpec("exponential", 20.0, beta=0.4),
    )
    series, _ = generate_tim_series(config)
    moments = estimate_pair_moments(series, l_max + n_lags)
    if model == "tim1":
        kernel, corr = estimate_tim1(series, n_lags, n_lags), moments.merged_series()

        def signature():
            return model_signature_tim1(kernel, corr, l_max, mean_flow=moments.mean_flow)
    else:
        kernels = solve_tim2(series, n_lags, n_lags)

        def signature():
            return model_signature_tim2(kernels, moments, l_max)

    d = benchmark.pedantic(signature, rounds=20, iterations=1)
    assert d.shape == (l_max,) and all(d > 0)

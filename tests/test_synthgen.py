import datetime as dt
import hashlib
import json
import math

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from bondtca.calendars import BusinessCalendar, IsoWeek
from bondtca.errors import ConfigError
from bondtca.impact import empirical_signature, estimate_correlation, estimate_response
from bondtca.synthgen import (
    KernelSpec,
    SignProcess,
    SynthConfig,
    _next_fast_len,
    generate_tim_series,
    generate_trace_fixture,
    market_context_rows,
    reference_rows,
)

from conftest import reports_of


class TestKernelSpec:
    def test_exponential_values(self):
        k = KernelSpec("exponential", 25.0, beta=0.4)
        vals = k.values(3)
        assert vals[0] == 25.0
        assert vals[1] == pytest.approx(25.0 * math.exp(-0.4))

    def test_power_law_values(self):
        k = KernelSpec("power_law", 10.0, gamma=1.0)
        assert k.values(3)[2] == pytest.approx(10.0 / 3.0)

    def test_constant(self):
        assert np.allclose(KernelSpec("constant", 7.0).values(5), 7.0)

    @pytest.mark.parametrize("field", ["g0", "beta", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ConfigError):
            KernelSpec("exponential", **{"g0": 25.0, field: value})


@pytest.mark.parametrize("field", ["noise_sd_bp", "alpha", "half_spread_bp", "base_price"])
def test_synth_config_rejects_non_finite(field):
    with pytest.raises(ConfigError):
        SynthConfig(**{field: math.nan})


class TestTimSeries:
    def test_single_event_constant_kernel(self):
        cfg = SynthConfig(
            seed=0, n_events=1, kernel_buy=KernelSpec("constant", 5.0), noise_sd_bp=0.0,
            volume_round=0.0, volume_log_sd=0.0, volume_log_mean=0.0,
        )
        s, _ = generate_tim_series(cfg)
        assert s.mid[0] == pytest.approx(5.0 * s.epsilon[0])

    def test_one_jump_then_flat(self):
        cfg = SynthConfig(
            seed=1, n_events=50, kernel_buy=KernelSpec("constant", 5.0), noise_sd_bp=0.0,
        )
        s, _ = generate_tim_series(cfg)
        # constant kernel: mid is 5 * cumulative signed flow (alpha = 0)
        assert np.allclose(s.mid, 5.0 * np.cumsum(s.epsilon))

    def test_pure_noise_random_walk(self):
        cfg = SynthConfig(
            seed=2, n_events=100_000, kernel_buy=KernelSpec("constant", 0.0), noise_sd_bp=3.0,
        )
        s, _ = generate_tim_series(cfg)
        sig = empirical_signature(s.mid, 10)
        for l in range(10):
            assert abs(sig.d[l] - 9.0) < 4 * sig.se[l]

    def test_sample_statistics_match_analytic(self):
        cfg = SynthConfig(
            seed=3, n_events=200_000, kernel_buy=KernelSpec("exponential", 25.0, beta=0.4),
            noise_sd_bp=5.0,
        )
        s, manifest = generate_tim_series(cfg)
        corr = estimate_correlation(s, range(-3, 4))
        assert corr(0) == pytest.approx(1.0)
        for n in (1, 2, 3):
            assert abs(corr(n)) < 3.5 / math.sqrt(s.t)
        resp = estimate_response(s, 5)
        truth = np.array(manifest.truth_kernels["+1"])
        se = float(np.std(s.returns)) / math.sqrt(s.t)
        for l in range(1, 6):
            assert resp(l) == pytest.approx(truth[l] - truth[l - 1], abs=3.5 * se)

    def test_markov_autocorrelation(self):
        cfg = SynthConfig(
            seed=4, n_events=100_000, sign=SignProcess("markov", flip_prob=0.25),
            kernel_buy=KernelSpec("constant", 0.0), noise_sd_bp=1.0,
        )
        s, _ = generate_tim_series(cfg)
        corr = estimate_correlation(s, range(0, 6))
        for n in range(6):
            assert corr(n) == pytest.approx(0.5**n, abs=3.5 / math.sqrt(s.t))

    def test_bit_exact_reproducibility(self):
        cfg = SynthConfig(seed=5, n_events=5000)
        s1, _ = generate_tim_series(cfg)
        s2, _ = generate_tim_series(cfg)
        assert np.array_equal(s1.mid, s2.mid)
        assert np.array_equal(s1.volume, s2.volume)

    @pytest.mark.parametrize("t", [1, 2, 7, 1000, 10007])
    @pytest.mark.parametrize("family", ["exponential", "power_law"])
    def test_impact_path_matches_fftconvolve(self, t, family):
        cfg = SynthConfig(
            seed=6, n_events=t, noise_sd_bp=0.0, alpha=0.5,
            kernel_buy=KernelSpec(family, 25.0, beta=0.4, gamma=0.7),
            kernel_sell=KernelSpec(family, 12.0, beta=0.1, gamma=1.3),
        )
        s, _ = generate_tim_series(cfg)
        # without noise the mid is the start plus each side's convolved flow
        expect = np.full(t, cfg.initial_mid_bp)
        u = s.volume**cfg.alpha * s.epsilon
        for pi in (1, -1):
            mask = s.epsilon == pi
            if mask.any():
                expect += fftconvolve(np.where(mask, u, 0.0), cfg.kernel_for(pi).values(t))[:t]
        assert np.array_equal(s.mid, expect)

    def test_fast_length_is_scipys(self):
        lengths = [*range(1, 5_000), *(2 * t - 1 for t in (20_000, 100_000, 1_000_000))]
        assert [_next_fast_len(n) for n in lengths] == [next_fast_len(n, True) for n in lengths]

    def test_bond_streams_differ(self):
        cfg = SynthConfig(seed=5, n_events=5000)
        s1, _ = generate_tim_series(cfg, bond_index=0)
        s2, _ = generate_tim_series(cfg, bond_index=1)
        assert not np.array_equal(s1.epsilon, s2.epsilon)


class TestTraceFixture:
    def test_bytes_reproducible(self):
        cfg = SynthConfig(seed=6, n_events=500, rpt_fraction=0.1, cancel_rate=0.05)
        t1, _ = generate_trace_fixture(cfg)
        t2, _ = generate_trace_fixture(cfg)
        assert t1 == t2

    def test_prices_straddle_mid_exactly(self, parse_tape):
        cfg = SynthConfig(seed=7, n_events=300, half_spread_bp=30.0)
        tape, _ = generate_trace_fixture(cfg)
        reports = reports_of(parse_tape(tape))
        s, _ = generate_tim_series(cfg)
        half_price = cfg.base_price * cfg.half_spread_bp / 1e4
        for k, r in enumerate(reports[: s.t]):
            mid_price = cfg.base_price * (1.0 + s.mid[k] / 1e4)
            expect = mid_price + (half_price if s.epsilon[k] > 0 else -half_price)
            assert r.price == pytest.approx(expect, abs=1e-9)
        buys = [r for r in reports if r.customer_side == "customer_buy"]
        sells = [r for r in reports if r.customer_side == "customer_sell"]
        assert buys and sells

    def test_timestamps_in_session_and_business_days(self, parse_tape):
        cal = BusinessCalendar()
        cfg = SynthConfig(seed=8, n_events=2000, rpt_fraction=0.1)
        tape, _ = generate_trace_fixture(cfg, cal)
        for r in reports_of(parse_tape(tape)):
            assert cal.is_business_day(r.exec_date)
            assert dt.time(8, 0) <= r.exec_time <= dt.time(17, 15)

    def test_manifest_counts(self, parse_tape):
        cfg = SynthConfig(seed=9, n_events=1000, cancel_rate=0.1)
        tape, manifest = generate_trace_fixture(cfg)
        reports = reports_of(parse_tape(tape))
        cancels = sum(1 for r in reports if r.kind == "cancel")
        assert cancels == manifest.lifecycle_counts.get("cancels", 0)
        assert cancels == pytest.approx(100, abs=35)

    def test_reference_and_context_cover_bonds_and_weeks(self):
        cfg = SynthConfig(seed=10, n_events=200, n_bonds=3)
        refs = reference_rows(cfg)
        assert [r.cusip for r in refs] == ["SYN00000X", "SYN00001X", "SYN00002X"]
        # 200 events fill one day of the slot grid: with ten days of margin,
        # 11 business days span 2 weeks, and four more weeks of margin make 6
        ctx = market_context_rows(cfg)
        assert [r.week for r in ctx] == [IsoWeek(2015, w) for w in range(2, 8)]
        assert all(0.0 < r.libor_ois < 1.0 for r in ctx)


PINNED = {  # config, calendar, sha256 of the tape, sha256 of the manifest
    "rpt_lifecycle_violations_markov": (
        SynthConfig(
            seed=21, n_events=1000, n_bonds=2, sign=SignProcess("markov", flip_prob=0.3),
            alpha=0.5, volume_log_sd=0.1, rpt_fraction=0.2, cancel_rate=0.04,
            correction_rate=0.04, reversal_rate=0.04,
            filter_violations={"2": 1, "3": 2, "4": 1, "5": 1, "6": 1, "7": 2},
        ),
        BusinessCalendar(),
        "6e0101f332e90cc4150ba5c290132648eddaa2e97884bd2d33b7e2229395ec1c",
        "d7e1229bc5fabd6d34e7baaa20e30e397f0481bd4b7ddb4a09a74ce246852b93",
    ),
    "holidays_skip_weekdays": (  # the start day and the Wednesday are holidays
        SynthConfig(seed=22, n_events=1200, rpt_fraction=0.6, filter_violations={"3": 1, "4": 1}),
        BusinessCalendar(frozenset({dt.date(2015, 1, 5), dt.date(2015, 1, 7)})),
        "2ef5e52165825952397442552819b6b0ec75dd9c5b0035d2b2c019892f38f0aa",
        "040f24875893046cdce0e53821cfd237d2e05c22a1ac25ceb1642240b121e5b5",
    ),
    "one_event": (
        SynthConfig(seed=23, n_events=1),
        BusinessCalendar(),
        "82c2722016b0f3a512bbc8766e31322a0f617222f5101d38fa151664b12b3352",
        "6bacbdd05d3e25dc21a86944f7b727f9d9ab7f518be4ebab108068ffc648f1b3",
    ),
}


@pytest.mark.parametrize("config, calendar, tape_sha, manifest_sha", PINNED.values(), ids=PINNED)
def test_tape_and_manifest_bytes_are_pinned(config, calendar, tape_sha, manifest_sha):
    """The digests are those of the tape and the manifest that the row-by-row
    generator wrote, before the tape was built column by column."""
    tape, manifest = generate_trace_fixture(config, calendar)
    assert hashlib.sha256(tape).hexdigest() == tape_sha
    text = json.dumps(manifest.to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == manifest_sha


def test_pinned_configs_cover_every_part_of_the_tape(parse_tape):
    tape, manifest = generate_trace_fixture(*PINNED["rpt_lifecycle_violations_markov"][:2])
    assert set(manifest.lifecycle_counts) == {"cancels", "corrections", "reversals"}
    assert {p.ambiguous for p in manifest.planted_rpts} == {False, True}
    assert {line.split("-")[1] for line in tape.decode().splitlines() if line.startswith("VIO-")} == {
        "2", "3", "4", "5", "6", "7"
    }
    tape, _ = generate_trace_fixture(*PINNED["holidays_skip_weekdays"][:2])
    days = {r.exec_date for r in reports_of(parse_tape(tape)) if r.exec_date.weekday() < 5}
    assert dt.date(2015, 1, 6) in days and days.isdisjoint({dt.date(2015, 1, 5), dt.date(2015, 1, 7)})


def test_session_that_ends_before_it_starts_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(day_start_second=10 * 3600, day_end_second=9 * 3600)

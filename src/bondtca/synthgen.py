"""Synthetic market generator with known ground truth.

Mid-prices follow the transient-impact equation exactly: every signed event
contributes its kernel value at the elapsed event lag plus an i.i.d.
Gaussian fair-price shock. The generator can wrap the resulting path into a
realistic trade tape (buys at the ask, sells at the bid) with planted RPT
pairs, lifecycle records and per-filter-step violations, all recorded in a
manifest so estimators can be checked against truth.

Randomness is a counter-based Philox stream split per bond and per concern
(series vs. planting), so any subset regenerates bit-identically.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator

import numpy as np

from .artifacts import TAPE
from .calendars import BusinessCalendar, IsoWeek
from .errors import ConfigError
from .features import BondReference, MarketContext
from .impact import SignSeries

KERNEL_FAMILIES = ("exponential", "power_law", "constant")


@dataclass(frozen=True)
class KernelSpec:
    """Ground-truth propagator: g0 * exp(-beta j), g0 * (1+j)^-gamma, or g0."""

    family: str
    g0: float  # bp
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        if not all(math.isfinite(v) for v in (self.g0, self.beta, self.gamma)):
            raise ConfigError("kernel parameters must be finite")
        if min(self.g0, self.beta, self.gamma) < 0:  # a negative decay grows without bound
            raise ConfigError("kernel g0, beta and gamma must be >= 0")

    def values(self, n: int) -> np.ndarray:
        j = np.arange(n, dtype=float)
        if self.family == "exponential":
            return self.g0 * np.exp(-self.beta * j)
        if self.family == "power_law":
            return self.g0 * (1.0 + j) ** (-self.gamma)
        return np.full(n, self.g0)


@dataclass(frozen=True)
class SignProcess:
    """Event-sign law: i.i.d. buys at p_buy, or a two-state Markov chain."""

    kind: str = "iid"
    p_buy: float = 0.5
    flip_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "markov"):
            raise ConfigError(f"unknown sign process {self.kind!r}")
        if not 0.0 <= self.p_buy <= 1.0 or not 0.0 <= self.flip_prob <= 1.0:
            raise ConfigError("sign probabilities must lie in [0, 1]")

    def analytic_correlation(self, n: int) -> float | None:
        """E[eps_t eps_{t+n}] in closed form, when one exists."""
        if self.kind == "markov":
            return (1.0 - 2.0 * self.flip_prob) ** abs(n)
        if self.p_buy == 0.5:
            return 1.0 if n == 0 else 0.0
        mu = 2.0 * self.p_buy - 1.0
        return 1.0 if n == 0 else mu * mu


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_events: int = 10_000
    n_bonds: int = 1
    kernel_buy: KernelSpec = KernelSpec("exponential", 25.0, beta=0.4)
    kernel_sell: KernelSpec | None = None  # None: same kernel for both types
    sign: SignProcess = SignProcess()
    noise_sd_bp: float = 5.0
    alpha: float = 0.0
    volume_log_mean: float = 12.0
    volume_log_sd: float = 1.0
    volume_round: float = 1000.0
    initial_mid_bp: float = 0.0
    half_spread_bp: float = 30.0
    base_price: float = 100.0
    rpt_fraction: float = 0.0
    cancel_rate: float = 0.0
    correction_rate: float = 0.0
    reversal_rate: float = 0.0
    filter_violations: dict[str, int] = field(default_factory=dict)  # step -> count
    start_date: dt.date = dt.date(2015, 1, 5)  # a Monday
    day_start_second: int = 9 * 3600
    day_end_second: int = 16 * 3600 + 1800
    trade_spacing_seconds: int = 60
    kernel_table_lags: int = 10

    def __post_init__(self) -> None:
        if self.n_events < 1 or self.n_bonds < 1:
            raise ConfigError("need at least one event and one bond")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("noise_sd_bp", "half_spread_bp"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("rpt_fraction", "cancel_rate", "correction_rate", "reversal_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.trade_spacing_seconds < 1 or self.day_end_second < self.day_start_second:
            raise ConfigError("need trade_spacing_seconds >= 1, day_end_second >= day_start_second")

    @property
    def slots_per_day(self) -> int:
        """Event slots per business day: every ``trade_spacing_seconds`` from
        ``day_start_second`` to ``day_end_second``, both ends included."""
        return (self.day_end_second - self.day_start_second) // self.trade_spacing_seconds + 1

    def kernel_for(self, pi: int) -> KernelSpec:
        if pi == -1 and self.kernel_sell is not None:
            return self.kernel_sell
        return self.kernel_buy


def _bond_cusip(index: int) -> str:
    return f"SYN{index:05d}X"


@dataclass
class PlantedRpt:
    cusip: str
    base_timestamp: str
    partner_timestamp: str
    volume: float
    ambiguous: bool = False


@dataclass
class SynthManifest:
    config: SynthConfig
    events_per_type: dict[str, int] = field(default_factory=dict)
    planted_rpts: list[PlantedRpt] = field(default_factory=list)
    lifecycle_counts: dict[str, int] = field(default_factory=dict)
    filter_violations: dict[str, int] = field(default_factory=dict)
    truth_kernels: dict[str, list[float]] = field(default_factory=dict)
    analytic_correlation: dict[str, float] = field(default_factory=dict)
    grades: dict[str, str] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        cfg = asdict(self.config)
        cfg["start_date"] = self.config.start_date.isoformat()
        if self.config.kernel_sell is None:
            cfg["kernel_sell"] = None
        return {
            "config": cfg,
            "events_per_type": self.events_per_type,
            "planted_rpts": [
                {
                    "cusip": p.cusip,
                    "base_timestamp": p.base_timestamp,
                    "partner_timestamp": p.partner_timestamp,
                    "volume": p.volume,
                    "ambiguous": p.ambiguous,
                }
                for p in self.planted_rpts
            ],
            "lifecycle_counts": self.lifecycle_counts,
            "filter_violations": self.filter_violations,
            "truth_kernels": self.truth_kernels,
            "analytic_correlation": self.analytic_correlation,
            "grades": self.grades,
        }


def _manifest_with_truth(config: SynthConfig) -> SynthManifest:
    """A manifest holding the true kernels and sign correlations of ``config``."""
    lags = config.kernel_table_lags
    return SynthManifest(
        config=config,
        truth_kernels={
            f"{pi:+d}": [float(v) for v in config.kernel_for(pi).values(lags + 1)]
            for pi in (1, -1)
        },
        analytic_correlation={
            str(n): c
            for n in range(-lags, lags + 1)
            if (c := config.sign.analytic_correlation(n)) is not None
        },
    )


def _bond_rng(config: SynthConfig, bond_index: int, concern: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(bond_index, concern))
    return np.random.Generator(np.random.Philox(ss))


def _draw_signs(rng: np.random.Generator, config: SynthConfig) -> np.ndarray:
    t = config.n_events
    if config.sign.kind == "iid":
        return np.where(rng.random(t) < config.sign.p_buy, 1.0, -1.0)
    flips = rng.random(t) < config.sign.flip_prob
    flips[0] = False
    start = 1.0 if rng.random() < 0.5 else -1.0
    return start * np.cumprod(np.where(flips, -1.0, 1.0))


def _draw_volumes(rng: np.random.Generator, config: SynthConfig) -> np.ndarray:
    v = np.exp(rng.normal(config.volume_log_mean, config.volume_log_sd, config.n_events))
    lat = config.volume_round
    if lat > 0:
        v = np.maximum(np.round(v / lat) * lat, lat)
    return v


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, as ``scipy.fft.next_fast_len(n, True)`` gives it."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _causal_convolution(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The first len(x) terms of the linear convolution of x with an equally long kernel.

    Bit for bit what ``scipy.signal.fftconvolve(x, kernel)[:len(x)]`` gives:
    numpy's pocketfft is scipy's, at the transform length scipy picks.
    """
    t = x.size
    n = _next_fast_len(2 * t - 1)
    return np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(kernel, n), n)[:t]


def generate_tim_series(config: SynthConfig, bond_index: int = 0) -> tuple[SignSeries, SynthManifest]:
    """Simulate one bond's signed events and exact model mid path."""
    rng = _bond_rng(config, bond_index, concern=0)
    eps = _draw_signs(rng, config)
    volumes = _draw_volumes(rng, config)
    eta = rng.normal(0.0, config.noise_sd_bp, config.n_events)
    u = volumes**config.alpha * eps

    t = config.n_events
    mid = np.full(t, config.initial_mid_bp) + np.cumsum(eta)
    for pi in (1, -1):
        mask = eps == pi
        if not mask.any():
            continue
        kv = config.kernel_for(pi).values(t)
        mid += _causal_convolution(np.where(mask, u, 0.0), kv)

    series = SignSeries(
        cusip=_bond_cusip(bond_index),
        epsilon=eps,
        volume=volumes,
        mid=mid,
        alpha=config.alpha,
        mid_source="mids",
    )
    manifest = _manifest_with_truth(config)
    manifest.events_per_type = {
        "+1": int((eps == 1).sum()),
        "-1": int((eps == -1).sum()),
    }
    return series, manifest


def _business_days(config: SynthConfig, calendar: BusinessCalendar) -> Iterator[dt.date]:
    """The business days from ``config.start_date`` on."""
    day = config.start_date
    while True:
        if calendar.is_business_day(day):
            yield day
        day += dt.timedelta(days=1)


def _slot_times(config: SynthConfig, calendar: BusinessCalendar) -> np.ndarray:
    """The time of each event slot, as ``datetime64[s]``.

    Each business day has ``slots_per_day`` slots, ``trade_spacing_seconds``
    apart from ``day_start_second``; event ``k`` takes slot ``k``.
    """
    per_day = config.slots_per_day
    n_days = -(-config.n_events // per_day)
    days = np.array(list(itertools.islice(_business_days(config, calendar), n_days)), "M8[s]")
    k = np.arange(config.n_events)
    seconds = config.day_start_second + (k % per_day) * config.trade_spacing_seconds
    return days[k // per_day] + seconds.astype("timedelta64[s]")


def _stamps(times: np.ndarray, sep: str) -> np.ndarray:
    """``YYYY-MM-DD<sep>HH:MM:SS`` for each time."""
    text = np.datetime_as_string(times, unit="s")
    return np.char.replace(text, "T", sep) if text.size else text  # fails on an empty array


# who traded a row, as the tape's contra and side columns: an RPT's dealer half,
# a customer sell, a customer buy
_COUNTERPARTY = np.array(["dealer,", "customer,customer_sell", "customer,customer_buy"])
_LIFECYCLE_KINDS = np.array(["cancel", "correction", "reversal"])


def _bond_tape(
    config: SynthConfig, bond_index: int, times: np.ndarray, manifest: SynthManifest
) -> str:
    """One bond's tape lines: its trades with each RPT's dealer half right
    after its customer trade, then its lifecycle records."""
    series, _ = generate_tim_series(config, bond_index)
    plant_rng = _bond_rng(config, bond_index, concern=1)
    cusip = series.cusip
    buy = series.epsilon > 0
    mid_price = config.base_price * (1.0 + series.mid / 1e4)
    half_price = config.base_price * config.half_spread_bp / 1e4
    customer_price = mid_price + np.where(buy, half_price, -half_price)  # buys at the ask
    rpt = plant_rng.random(series.t) < config.rpt_fraction

    # one row per trade, two per RPT: the customer trade, then the dealer
    # half at the mid, 1 s later
    event = np.repeat(np.arange(series.t), np.where(rpt, 2, 1))
    dealer = np.r_[False, event[1:] == event[:-1]]
    row_times = times[event] + dealer.astype("m8[s]")
    price = np.where(dealer, mid_price[event], customer_price[event])
    volume = series.volume[event]
    parties = _COUNTERPARTY[np.where(dealer, 0, 1 + buy[event])].tolist()

    # lifecycle records point at non-RPT customer trades only, so the
    # planted-pair accounting stays exact after reconciliation
    eligible = np.flatnonzero(~rpt[event])
    draws = plant_rng.random(eligible.size)
    hit = draws < config.cancel_rate + config.correction_rate + config.reversal_rate
    base = eligible[hit]
    # the index into _LIFECYCLE_KINDS of the rate band that holds the draw
    bands = [config.cancel_rate, config.cancel_rate + config.correction_rate]
    kind = np.digitize(draws[hit], bands)
    correction = _LIFECYCLE_KINDS[kind] == "correction"
    for name, n in zip(_LIFECYCLE_KINDS.tolist(), np.bincount(kind, minlength=3).tolist()):
        if n:
            key = f"{name}s"
            manifest.lifecycle_counts[key] = manifest.lifecycle_counts.get(key, 0) + n

    # a planted pair is ambiguous unless its two rows form a size run of their
    # own among the rows that survive cancels and reversals
    survives = np.ones(event.size, bool)
    survives[base[~correction]] = False
    kept_volume = volume[survives]
    run = np.cumsum(np.r_[False, kept_volume[1:] != kept_volume[:-1]])
    pairs = np.flatnonzero(dealer) - 1
    ambiguous = np.bincount(run)[run[np.cumsum(survives)[pairs] - 1]] != 2
    stamp = _stamps(row_times[np.c_[pairs, pairs + 1]], " ")
    manifest.planted_rpts += map(
        PlantedRpt, itertools.repeat(cusip), stamp[:, 0].tolist(), stamp[:, 1].tolist(),
        volume[pairs].tolist(), ambiguous.tolist(),
    )
    for pi, key in ((1, "+1"), (-1, "-1")):
        n = int((series.epsilon == pi).sum())
        manifest.events_per_type[key] = manifest.events_per_type.get(key, 0) + n

    stamps = _stamps(row_times, ",").tolist()
    prices = price.tolist()
    volumes = volume.tolist()
    lines = [
        f"{cusip}-{seq:08d},{cusip},{t},{p!r},{v!r},trade,,principal,{w},,corporate_bond\n"
        for seq, t, p, v, w in zip(itertools.count(1), stamps, prices, volumes, parties)
    ]
    corrected = np.where(correction, price[base] + 0.01, price[base])
    lines += [
        f"{cusip}-{seq:08d},{cusip},{stamps[b]},{p!r},{volumes[b]!r},{name},{cusip}-{b + 1:08d},"
        f"principal,{parties[b]},,corporate_bond\n"
        for seq, b, p, name in zip(
            itertools.count(event.size + 1), base.tolist(), corrected.tolist(),
            _LIFECYCLE_KINDS[kind].tolist(),
        )
    ]
    return "".join(lines)


def _violation_lines(config: SynthConfig, calendar: BusinessCalendar) -> str:
    """Extra reports on the first business day, each violating exactly one
    filter step: the step's line template after the record id and cusip."""
    day = next(_business_days(config, calendar))
    saturday = day + dt.timedelta(days=5 - day.weekday())
    buy = "10000.0,trade,,principal,customer,customer_buy"  # volume to side of a customer buy
    templates = {
        "2": f"{day},11:00:00,100.0,10000.0,trade,,agent,dealer,,,corporate_bond",  # agent
        "3": f"{saturday},11:00:00,100.0,{buy},,corporate_bond",  # weekend
        "4": f"{day},07:00:00,100.0,{buy},,corporate_bond",  # before the session
        "5": f"{day},11:00:00,100.0,{buy},W,corporate_bond",  # a sale condition
        "6": f"{day},11:00:00,5.0,{buy},,corporate_bond",  # a price below the floor
        "7": f"{day},11:00:00,100.0,{buy},,other",  # another sub-product
    }
    if unknown := sorted(str(s) for s in config.filter_violations if str(s) not in templates):
        raise ConfigError(f"cannot plant violations for step {unknown[0]!r}")
    steps = [s for s, count in sorted(config.filter_violations.items()) for _ in range(int(count))]
    cusip = _bond_cusip(0)
    return "".join(
        f"VIO-{step}-{seq:06d},{cusip},{templates[str(step)]}\n"
        for seq, step in enumerate(steps, start=1)
    )


def generate_trace_fixture(
    config: SynthConfig, calendar: BusinessCalendar | None = None
) -> tuple[bytes, SynthManifest]:
    """Render the synthetic market as a trade-tape CSV plus its manifest.

    Each bond's trades and lifecycle records come in bond order, then the
    filter-step violations.
    """
    calendar = calendar or BusinessCalendar()
    manifest = _manifest_with_truth(config)
    manifest.filter_violations = {str(k): int(v) for k, v in config.filter_violations.items()}
    manifest.grades = {
        _bond_cusip(i): ("IG" if i % 2 == 0 else "HY") for i in range(config.n_bonds)
    }
    violations = _violation_lines(config, calendar)
    times = _slot_times(config, calendar)
    parts = [",".join(TAPE.header) + "\n"]
    parts += [_bond_tape(config, bond, times, manifest) for bond in range(config.n_bonds)]
    parts.append(violations)
    return "".join(parts).encode("utf-8"), manifest


def reference_rows(config: SynthConfig) -> list[BondReference]:
    """Bond reference records matching the synthetic cusips."""
    return [
        BondReference(
            cusip=_bond_cusip(i),
            coupon_rate=3.0 + (i % 5),
            issue_date=config.start_date - dt.timedelta(days=730),
            maturity_date=config.start_date + dt.timedelta(days=365 * (3 + i % 10)),
            amount_outstanding=5e8,
            grade="IG" if i % 2 == 0 else "HY",
            sector=f"S{1 + i % 9}",
            frequency=2,
        )
        for i in range(config.n_bonds)
    ]


def market_context_rows(config: SynthConfig) -> list[MarketContext]:
    """A deterministic, mildly varying short-rate spread per week, over the
    weeks of the slot grid plus a margin."""
    n_days = -(-config.n_events // config.slots_per_day) + 10  # ceil plus margin
    n_weeks = -(-n_days * 7 // 5) // 7 + 4
    return [
        MarketContext(
            IsoWeek.of(config.start_date + dt.timedelta(weeks=i)), round(0.15 + 0.01 * (i % 10), 4)
        )
        for i in range(n_weeks)
    ]

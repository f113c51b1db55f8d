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
import io
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .calendars import BusinessCalendar
from .errors import ConfigError
from .features import BondReference, MarketContext
from .impact import SignSeries
from .ingest import TAPE_COLUMNS

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
        if self.g0 < 0:
            raise ConfigError("kernel g0 must be >= 0")

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


def _causal_convolution(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The first len(x) terms of the linear convolution of x with an equally long kernel.

    Bit for bit what ``scipy.signal.fftconvolve(x, kernel)[:len(x)]`` gives,
    without the import of ``scipy.signal``.
    """
    from scipy import fft

    t = x.size
    n = fft.next_fast_len(2 * t - 1, True)
    return fft.irfft(fft.rfft(x, n) * fft.rfft(kernel, n), n)[:t]


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
        event_type=eps.copy(),
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


@dataclass
class _Row:
    record_id: str
    cusip: str
    timestamp: dt.datetime
    price: float
    volume: float
    kind: str
    references: str
    capacity: str
    contra: str
    side: str
    condition: str
    sub_product: str


class _Clock:
    """Deterministic per-bond event clock over business days."""

    def __init__(self, config: SynthConfig, calendar: BusinessCalendar):
        self.config = config
        self.calendar = calendar
        self.day = config.start_date
        while not calendar.is_business_day(self.day):
            self.day += dt.timedelta(days=1)
        self.second = config.day_start_second

    def next_timestamp(self) -> dt.datetime:
        if self.second > self.config.day_end_second:
            self.day += dt.timedelta(days=1)
            while not self.calendar.is_business_day(self.day):
                self.day += dt.timedelta(days=1)
            self.second = self.config.day_start_second
        ts = dt.datetime.combine(self.day, dt.time(0)) + dt.timedelta(seconds=self.second)
        self.second += self.config.trade_spacing_seconds
        return ts


def _mid_to_price(config: SynthConfig, mid_bp: float) -> float:
    return config.base_price * (1.0 + mid_bp / 1e4)


def _tape_rows_for_bond(
    config: SynthConfig,
    bond_index: int,
    calendar: BusinessCalendar,
    manifest: SynthManifest,
) -> list[_Row]:
    series, _ = generate_tim_series(config, bond_index)
    plant_rng = _bond_rng(config, bond_index, concern=1)
    cusip = series.cusip
    clock = _Clock(config, calendar)
    half_price = config.base_price * config.half_spread_bp / 1e4

    rows: list[_Row] = []
    rpt_partner_of: dict[int, int] = {}  # base row position -> partner position
    seq = 0

    def rid() -> str:
        nonlocal seq
        seq += 1
        return f"{cusip}-{seq:08d}"

    plant_draws = plant_rng.random(series.t)
    for k in range(series.t):
        ts = clock.next_timestamp()
        mid_price = _mid_to_price(config, series.mid[k])
        buy = series.epsilon[k] > 0
        rows.append(
            _Row(
                record_id=rid(),
                cusip=cusip,
                timestamp=ts,
                price=mid_price + (half_price if buy else -half_price),
                volume=float(series.volume[k]),
                kind="trade",
                references="",
                capacity="principal",
                contra="customer",
                side="customer_buy" if buy else "customer_sell",
                condition="",
                sub_product="corporate_bond",
            )
        )
        if plant_draws[k] < config.rpt_fraction:
            base_pos = len(rows) - 1
            rows.append(
                _Row(
                    record_id=rid(),
                    cusip=cusip,
                    timestamp=ts + dt.timedelta(seconds=1),
                    price=mid_price,
                    volume=float(series.volume[k]),
                    kind="trade",
                    references="",
                    capacity="principal",
                    contra="dealer",
                    side="",
                    condition="",
                    sub_product="corporate_bond",
                )
            )
            rpt_partner_of[base_pos] = len(rows) - 1

    # Lifecycle records reference base trades that are not RPT halves, so the
    # planted-pair accounting stays exact after reconciliation.
    protected = set(rpt_partner_of) | set(rpt_partner_of.values())
    eligible = [i for i in range(len(rows)) if i not in protected]
    lifecycle: list[_Row] = []
    removed: set[int] = set()
    corrected: dict[int, float] = {}
    draws = plant_rng.random(len(eligible))
    total = config.cancel_rate + config.correction_rate + config.reversal_rate
    for pos, d in zip(eligible, draws):
        if total == 0.0 or d >= total:
            continue
        base = rows[pos]
        if d < config.cancel_rate:
            kind = "cancel"
            removed.add(pos)
        elif d < config.cancel_rate + config.correction_rate:
            kind = "correction"
            corrected[pos] = base.price + 0.01
        else:
            kind = "reversal"
            removed.add(pos)
        lifecycle.append(
            _Row(
                record_id=rid(),
                cusip=cusip,
                timestamp=base.timestamp,
                price=corrected.get(pos, base.price),
                volume=base.volume,
                kind=kind,
                references=base.record_id,
                capacity=base.capacity,
                contra=base.contra,
                side=base.side,
                condition=base.condition,
                sub_product=base.sub_product,
            )
        )
        key = f"{kind}s"
        manifest.lifecycle_counts[key] = manifest.lifecycle_counts.get(key, 0) + 1

    # Planted-pair bookkeeping with ambiguity flags on the surviving sequence.
    surviving = [i for i in range(len(rows)) if i not in removed]
    pos_in_surviving = {orig: j for j, orig in enumerate(surviving)}
    volumes = [rows[i].volume for i in surviving]
    run_id = [0] * len(surviving)
    rid_counter = 0
    for j in range(1, len(surviving)):
        if volumes[j] != volumes[j - 1]:
            rid_counter += 1
        run_id[j] = rid_counter
    run_sizes: dict[int, int] = {}
    for r in run_id:
        run_sizes[r] = run_sizes.get(r, 0) + 1

    for base_pos, partner_pos in sorted(rpt_partner_of.items()):
        a = pos_in_surviving[base_pos]
        b = pos_in_surviving[partner_pos]
        ambiguous = not (
            b == a + 1 and run_id[a] == run_id[b] and run_sizes[run_id[a]] == 2
        )
        manifest.planted_rpts.append(
            PlantedRpt(
                cusip=cusip,
                base_timestamp=rows[base_pos].timestamp.isoformat(sep=" "),
                partner_timestamp=rows[partner_pos].timestamp.isoformat(sep=" "),
                volume=rows[base_pos].volume,
                ambiguous=ambiguous,
            )
        )
    manifest.events_per_type["+1"] = manifest.events_per_type.get("+1", 0) + int(
        (series.epsilon == 1).sum()
    )
    manifest.events_per_type["-1"] = manifest.events_per_type.get("-1", 0) + int(
        (series.epsilon == -1).sum()
    )
    return rows + lifecycle


def _violation_rows(config: SynthConfig, calendar: BusinessCalendar) -> list[_Row]:
    """Extra reports violating exactly one filter step each."""
    out: list[_Row] = []
    base_day = config.start_date
    while not calendar.is_business_day(base_day):
        base_day += dt.timedelta(days=1)
    weekend = base_day
    while weekend.weekday() != 5:  # next Saturday
        weekend += dt.timedelta(days=1)
    in_session = dt.datetime.combine(base_day, dt.time(11, 0, 0))
    templates = {
        "2": dict(capacity="agent", contra="dealer", side="", timestamp=in_session),
        "3": dict(timestamp=dt.datetime.combine(weekend, dt.time(11, 0, 0))),
        "4": dict(timestamp=dt.datetime.combine(base_day, dt.time(7, 0, 0))),
        "5": dict(condition="W", timestamp=in_session),
        "6": dict(price=5.0, timestamp=in_session),
        "7": dict(sub_product="other", timestamp=in_session),
    }
    seq = 0
    for step, count in sorted(config.filter_violations.items()):
        if str(step) not in templates:
            raise ConfigError(f"cannot plant violations for step {step!r}")
        for _ in range(int(count)):
            seq += 1
            base = dict(
                record_id=f"VIO-{step}-{seq:06d}",
                cusip=_bond_cusip(0),
                timestamp=in_session,
                price=100.0,
                volume=10_000.0,
                kind="trade",
                references="",
                capacity="principal",
                contra="customer",
                side="customer_buy",
                condition="",
                sub_product="corporate_bond",
            )
            base.update(templates[str(step)])
            out.append(_Row(**base))
    return out


def generate_trace_fixture(
    config: SynthConfig, calendar: BusinessCalendar | None = None
) -> tuple[bytes, SynthManifest]:
    """Render the synthetic market as a trade-tape CSV plus its manifest."""
    calendar = calendar or BusinessCalendar()
    manifest = _manifest_with_truth(config)
    manifest.filter_violations = {str(k): int(v) for k, v in config.filter_violations.items()}
    manifest.grades = {
        _bond_cusip(i): ("IG" if i % 2 == 0 else "HY") for i in range(config.n_bonds)
    }

    rows: list[_Row] = []
    for bond in range(config.n_bonds):
        rows.extend(_tape_rows_for_bond(config, bond, calendar, manifest))
    rows.extend(_violation_rows(config, calendar))

    buf = io.StringIO()
    buf.write(",".join(TAPE_COLUMNS) + "\n")
    for r in rows:
        buf.write(
            f"{r.record_id},{r.cusip},{r.timestamp.date().isoformat()},"
            f"{r.timestamp.time().isoformat()},{float(r.price)!r},{float(r.volume)!r},{r.kind},"
            f"{r.references},{r.capacity},{r.contra},{r.side},{r.condition},{r.sub_product}\n"
        )
    return buf.getvalue().encode("utf-8"), manifest


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


def market_context_rows(config: SynthConfig, weeks: Sequence) -> list[MarketContext]:
    """A deterministic, mildly varying short-rate spread per week."""
    return [MarketContext(w, round(0.15 + 0.01 * (i % 10), 4)) for i, w in enumerate(weeks)]

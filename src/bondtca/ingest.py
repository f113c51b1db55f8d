"""Trade-tape ingestion: parsing, lifecycle reconciliation, filtering, caps.

The tape is a CSV of raw trade reports (trades plus cancel / correction /
reversal records). Reconciliation settles the lifecycle chains, then a
seven-step filter reduces the settled trades to the clean analysis set.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import logging
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .calendars import BusinessCalendar
from .errors import DataError, ParseError

log = logging.getLogger(__name__)

TRADE = "trade"
CANCEL = "cancel"
CORRECTION = "correction"
REVERSAL = "reversal"
REPORT_KINDS = frozenset({TRADE, CANCEL, CORRECTION, REVERSAL})

CUSTOMER_BUY = "customer_buy"
CUSTOMER_SELL = "customer_sell"
DEALER_DEALER = "dealer_dealer"

# Sale-condition codes treated as irregular at filter step 5:
# Z late report, U late after-hours, W weighted-average price, S special price.
DEFAULT_IRREGULAR_CODES = frozenset({"Z", "U", "W", "S"})

SESSION_OPEN = dt.time(8, 0, 0)
SESSION_CLOSE = dt.time(17, 15, 0)
MIN_PRICE = 10.0
HY_VOLUME_CAP = 1_000_000.0
IG_VOLUME_CAP = 5_000_000.0

TAPE_COLUMNS = (
    "record_id",
    "cusip",
    "exec_date",
    "exec_time",
    "price",
    "volume",
    "report_kind",
    "references_record",
    "capacity",
    "contra_party",
    "customer_side",
    "sale_condition",
    "sub_product",
)


@dataclass(slots=True)
class RawTradeReport:
    record_id: str
    cusip: str
    timestamp: dt.datetime
    price: float
    volume: float
    kind: str
    references: str | None
    capacity: str  # "principal" | "agent"
    contra_party: str  # "customer" | "dealer"
    customer_side: str | None  # "customer_buy" | "customer_sell"
    sale_conditions: frozenset[str]
    sub_product: str  # "corporate_bond" | "other"
    row: int = 0  # source row number, for error reporting

    @property
    def leg(self) -> str:
        if self.contra_party == "dealer":
            return DEALER_DEALER
        return self.customer_side  # type: ignore[return-value]


@dataclass(slots=True)
class Trade:
    """A clean trade; classification sets its sign and RPT flag in place."""

    cusip: str
    k: int  # per-bond chronological index
    timestamp: dt.datetime
    price: float
    volume: float
    leg: str
    epsilon: int = 0  # +1 customer buy, -1 customer sell, 0 undeterminable
    is_rpt: bool = False


@dataclass(slots=True)
class LifecycleStats:
    input_reports: int = 0
    settled_trades: int = 0
    cancels_applied: int = 0
    corrections_applied: int = 0
    reversals_applied: int = 0
    dangling_references: int = 0


@dataclass(slots=True)
class FilterStep:
    step: int
    label: str
    removed: int
    removed_pct: float
    remaining: int


@dataclass(slots=True)
class FilterReport:
    steps: list[FilterStep]
    lifecycle: LifecycleStats | None = None


def _open_text(source: str | Path | IO[bytes] | IO[str] | bytes) -> IO[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.TextIOBase):
        return source
    return io.TextIOWrapper(source, encoding="utf-8", newline="")  # type: ignore[arg-type]


def _parse_timestamp(
    date_text: str,
    time_text: str,
    row: int,
    date_cache: dict[str, dt.date],
    time_cache: dict[str, dt.time],
) -> dt.datetime:
    day = date_cache.get(date_text)
    if day is None:
        try:
            day = dt.date.fromisoformat(date_text)
        except ValueError:
            raise ParseError(f"bad exec_date {date_text!r}", row=row, column="exec_date")
        date_cache[date_text] = day
    tod = time_cache.get(time_text)
    if tod is None:
        try:
            hh, mm, ss = time_text.split(":")
            tod = dt.time(int(hh), int(mm), int(ss))
        except ValueError:
            raise ParseError(f"bad exec_time {time_text!r}", row=row, column="exec_time")
        time_cache[time_text] = tod
    return dt.datetime.combine(day, tod)


def parse_trace_csv(source: str | Path | IO[bytes] | IO[str] | bytes) -> list[RawTradeReport]:
    """Parse a trade-tape CSV into raw reports.

    Lines before the header whose first field starts with '#' are metadata
    and skipped; after it, every line is a report. The header must name
    every column of TAPE_COLUMNS, in any order.
    """
    fh = _open_text(source)
    reader = csv.reader(fh)

    header: list[str] | None = None
    row_no = 0
    for raw in reader:
        row_no += 1
        if raw and raw[0].startswith("#"):
            continue
        header = raw
        break
    if header is None:
        raise ParseError("empty tape: no header row", row=row_no)

    positions: dict[str, int] = {}
    for name in TAPE_COLUMNS:
        try:
            positions[name] = header.index(name)
        except ValueError:
            raise ParseError(f"missing column {name!r} in header", row=row_no, column=name)
    idx = [positions[name] for name in TAPE_COLUMNS]
    n_cols = len(header)

    date_cache: dict[str, dt.date] = {}
    time_cache: dict[str, dt.time] = {}
    cond_cache: dict[str, frozenset[str]] = {"": frozenset()}
    reports: list[RawTradeReport] = []

    for raw in reader:
        row_no += 1
        if not raw:
            continue
        if len(raw) != n_cols:
            raise ParseError(
                f"expected {n_cols} fields, got {len(raw)}", row=row_no, column=None
            )
        (
            record_id,
            cusip,
            exec_date,
            exec_time,
            price_text,
            volume_text,
            kind,
            references,
            capacity,
            contra,
            side,
            cond_text,
            sub_product,
        ) = (raw[i] for i in idx)

        if kind not in REPORT_KINDS:
            raise ParseError(f"unknown report_kind {kind!r}", row=row_no, column="report_kind")
        try:
            price = float(price_text)
        except ValueError:
            raise ParseError(f"bad price {price_text!r}", row=row_no, column="price")
        try:
            volume = float(volume_text)
        except ValueError:
            raise ParseError(f"bad volume {volume_text!r}", row=row_no, column="volume")
        if not math.isfinite(price):
            raise ParseError(f"non-finite price {price_text!r}", row=row_no, column="price")
        if not math.isfinite(volume):
            raise ParseError(f"non-finite volume {volume_text!r}", row=row_no, column="volume")
        # a correction's values replace the trade's, so they obey the same rules
        if kind in (TRADE, CORRECTION) and price <= 0:
            raise ParseError(f"non-positive price {price!r} on {kind}", row=row_no, column="price")
        if kind in (TRADE, CORRECTION) and volume <= 0:
            raise ParseError(
                f"non-positive volume {volume!r} on {kind}", row=row_no, column="volume"
            )

        if kind == TRADE:
            if references:
                raise ParseError(
                    "trade rows must not reference another record",
                    row=row_no,
                    column="references_record",
                )
            ref = None
        else:
            if not references:
                raise ParseError(
                    f"{kind} row missing references_record", row=row_no, column="references_record"
                )
            ref = references

        if capacity not in ("principal", "agent"):
            raise ParseError(f"unknown capacity {capacity!r}", row=row_no, column="capacity")
        if contra not in ("customer", "dealer"):
            raise ParseError(f"unknown contra_party {contra!r}", row=row_no, column="contra_party")
        if contra == "customer":
            if side not in (CUSTOMER_BUY, CUSTOMER_SELL):
                raise ParseError(
                    f"customer trade needs customer_side, got {side!r}",
                    row=row_no,
                    column="customer_side",
                )
        else:
            if side:
                raise ParseError(
                    "customer_side must be empty on dealer trades",
                    row=row_no,
                    column="customer_side",
                )
            side = ""
        if sub_product not in ("corporate_bond", "other"):
            raise ParseError(
                f"unknown sub_product {sub_product!r}", row=row_no, column="sub_product"
            )

        conds = cond_cache.get(cond_text)
        if conds is None:
            conds = frozenset(c for c in cond_text.replace(";", " ").split() if c)
            cond_cache[cond_text] = conds

        reports.append(
            RawTradeReport(
                record_id=record_id,
                cusip=cusip,
                timestamp=_parse_timestamp(exec_date, exec_time, row_no, date_cache, time_cache),
                price=price,
                volume=volume,
                kind=kind,
                references=ref,
                capacity=capacity,
                contra_party=contra,
                customer_side=side or None,
                sale_conditions=conds,
                sub_product=sub_product,
                row=row_no,
            )
        )
    return reports


def reconcile_lifecycle(
    reports: Sequence[RawTradeReport],
) -> tuple[list[RawTradeReport], LifecycleStats]:
    """Settle lifecycle chains: apply corrections, drop cancels and reversals.

    Records are processed in file order; the latest correction for a chain
    wins, and a cancel kills the chain whichever version it references.
    Dangling references are logged and skipped, leaving originals untouched.
    A record id that an earlier record has raises ParseError.
    """
    stats = LifecycleStats(input_reports=len(reports))
    family_of: dict[str, str | None] = {}
    live: dict[str, RawTradeReport] = {}
    position: dict[str, int] = {}
    dead: set[str] = set()

    for pos, rep in enumerate(reports):
        if rep.record_id in family_of:
            raise ParseError(
                f"repeated record_id {rep.record_id!r}", row=rep.row, column="record_id"
            )
        if rep.kind == TRADE:
            family_of[rep.record_id] = rep.record_id
            live[rep.record_id] = rep
            position[rep.record_id] = pos
            continue
        family = family_of.get(rep.references or "")
        family_of[rep.record_id] = None  # until it joins a chain, a reference to it dangles
        if family is None:
            stats.dangling_references += 1
            log.warning(
                "%s record %s references unknown record %s; skipped",
                rep.kind,
                rep.record_id,
                rep.references,
            )
            continue
        if rep.kind == CORRECTION:
            if family in dead:
                stats.dangling_references += 1
                log.warning(
                    "correction %s targets cancelled chain %s; skipped", rep.record_id, family
                )
                continue
            live[family] = replace(rep, kind=TRADE, references=None)
            family_of[rep.record_id] = family
            stats.corrections_applied += 1
        else:  # cancel or reversal: reversal semantics are cancel-equivalent
            dead.add(family)
            family_of[rep.record_id] = family
            if rep.kind == CANCEL:
                stats.cancels_applied += 1
            else:
                stats.reversals_applied += 1

    settled = [
        live[family]
        for family in sorted(live, key=position.__getitem__)
        if family not in dead
    ]
    stats.settled_trades = len(settled)
    return settled, stats


def _pct(removed: int, input_count: int) -> float:
    return 100.0 * removed / input_count if input_count else 0.0


def filter_pipeline(
    trades: Sequence[RawTradeReport],
    calendar: BusinessCalendar,
    irregular_codes: frozenset[str] = DEFAULT_IRREGULAR_CODES,
    lifecycle: LifecycleStats | None = None,
) -> tuple[list[Trade], FilterReport]:
    """Apply filter steps 2..7 to settled trades and account for each step.

    When ``lifecycle`` stats are supplied, the reconciliation is reported as
    step 1 so that removals plus the final remaining count add back up to the
    raw input count.
    """
    steps: list[FilterStep] = []
    if lifecycle is not None:
        removed = lifecycle.input_reports - lifecycle.settled_trades
        steps.append(
            FilterStep(
                step=1,
                label="keep settled trades",
                removed=removed,
                removed_pct=_pct(removed, lifecycle.input_reports),
                remaining=lifecycle.settled_trades,
            )
        )

    current = list(trades)

    def apply(step: int, label: str, keep) -> None:
        nonlocal current
        before = len(current)
        current = [t for t in current if keep(t)]
        steps.append(
            FilterStep(
                step=step,
                label=label,
                removed=before - len(current),
                removed_pct=_pct(before - len(current), before),
                remaining=len(current),
            )
        )

    apply(
        2,
        "keep trades reported by dealers",
        lambda t: not (t.capacity == "agent" and t.contra_party == "dealer"),
    )
    apply(3, "keep business days", lambda t: calendar.is_business_day(t.timestamp.date()))
    apply(
        4,
        "keep session hours",
        lambda t: SESSION_OPEN <= t.timestamp.time() <= SESSION_CLOSE,
    )
    apply(5, "keep regular trades", lambda t: not (t.sale_conditions & irregular_codes))
    apply(6, "keep compatible prices", lambda t: t.price >= MIN_PRICE)
    apply(7, "keep corporate bonds", lambda t: t.sub_product == "corporate_bond")

    # Stable sort: chronological per bond, ties keep file order.
    current.sort(key=attrgetter("cusip", "timestamp"))
    clean: list[Trade] = []
    counters: dict[str, int] = {}
    for t in current:
        k = counters.get(t.cusip, 0)
        counters[t.cusip] = k + 1
        clean.append(Trade(t.cusip, k, t.timestamp, t.price, t.volume, t.leg))
    return clean, FilterReport(steps=steps, lifecycle=lifecycle)


def ingest_reports(
    reports: Sequence[RawTradeReport],
    calendar: BusinessCalendar,
    irregular_codes: frozenset[str] = DEFAULT_IRREGULAR_CODES,
) -> tuple[list[Trade], FilterReport]:
    """Reconcile then filter, with full step 1..7 accounting."""
    settled, stats = reconcile_lifecycle(reports)
    return filter_pipeline(settled, calendar, irregular_codes, lifecycle=stats)


def cap_volumes(trades: Sequence[Trade], grade_of: Mapping[str, str]) -> Sequence[Trade]:
    """Emulate Standard-tape truncation in place: 1MM cap for HY, 5MM for IG.

    Returns ``trades``.
    """
    for t in trades:
        grade = grade_of.get(t.cusip)
        if grade == "HY":
            cap = HY_VOLUME_CAP
        elif grade == "IG":
            cap = IG_VOLUME_CAP
        else:
            raise DataError(f"unknown grade for cusip {t.cusip}")
        if t.volume > cap:
            t.volume = cap
    return trades


def group_by_cusip(trades: Iterable[Trade]) -> dict[str, list[Trade]]:
    """Group trades per bond, preserving order."""
    grouped: dict[str, list[Trade]] = {}
    for t in trades:
        grouped.setdefault(t.cusip, []).append(t)
    return grouped

"""Trade-tape ingestion: parsing, lifecycle reconciliation, filtering, caps.

The tape is a CSV of raw trade reports (trades plus cancel / correction /
reversal records). Reconciliation settles the lifecycle chains, then a
seven-step filter reduces the settled trades to the clean analysis set.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .calendars import BusinessCalendar
from .errors import DataError, ParseError

log = logging.getLogger(__name__)

TRADE = "trade"
CANCEL = "cancel"
CORRECTION = "correction"
REVERSAL = "reversal"
REPORT_KINDS = (TRADE, CANCEL, CORRECTION, REVERSAL)

CUSTOMER_BUY = "customer_buy"
CUSTOMER_SELL = "customer_sell"
DEALER_DEALER = "dealer_dealer"

PRINCIPAL = "principal"
AGENT = "agent"
CUSTOMER = "customer"
DEALER = "dealer"
CORPORATE_BOND = "corporate_bond"
OTHER_PRODUCT = "other"

# Sale-condition codes treated as irregular at filter step 5:
# Z late report, U late after-hours, W weighted-average price, S special price.
DEFAULT_IRREGULAR_CODES = frozenset({"Z", "U", "W", "S"})

SESSION_OPEN = dt.time(8, 0, 0)
SESSION_CLOSE = dt.time(17, 15, 0)
MIN_PRICE = 10.0
HY_VOLUME_CAP = 1_000_000.0
IG_VOLUME_CAP = 5_000_000.0

@dataclass(slots=True)
class RawTradeReport:
    """One row of the tape, its fields in the order of the tape's columns.

    The rules between fields raise ParseError naming the column at fault.
    """

    record_id: str
    cusip: str
    exec_date: dt.date
    exec_time: dt.time
    price: float
    volume: float
    kind: str
    references: str | None
    capacity: str  # PRINCIPAL | AGENT
    contra_party: str  # CUSTOMER | DEALER
    customer_side: str | None  # CUSTOMER_BUY | CUSTOMER_SELL, None on a dealer trade
    sale_conditions: frozenset[str]
    sub_product: str  # CORPORATE_BOND | OTHER_PRODUCT
    row: int = 0  # source line number, for error reporting

    def __post_init__(self) -> None:
        kind = self.kind
        # a correction's values replace the trade's, so they obey the same rules
        if kind in (TRADE, CORRECTION):
            if not self.price > 0:
                raise ParseError(f"non-positive price {self.price!r} on {kind}", column="price")
            if not self.volume > 0:
                raise ParseError(f"non-positive volume {self.volume!r} on {kind}", column="volume")
        if kind == TRADE and self.references is not None:
            raise ParseError(
                "trade rows must not reference another record", column="references_record"
            )
        if kind != TRADE and self.references is None:
            raise ParseError(f"{kind} row missing references_record", column="references_record")
        if self.contra_party == CUSTOMER and self.customer_side is None:
            raise ParseError("customer trade needs customer_side", column="customer_side")
        if self.contra_party == DEALER and self.customer_side is not None:
            raise ParseError("customer_side must be empty on dealer trades", column="customer_side")

    @property
    def leg(self) -> str:
        if self.contra_party == DEALER:
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


def parse_trace_csv(path: str | Path) -> list[RawTradeReport]:
    """Parse a trade-tape CSV into raw reports, each with its line number.

    The tape is read like every CSV artifact (see ``artifacts.TAPE``): lines
    before the header whose first field starts with '#' are metadata, the
    header names every tape column in any order, and other columns are
    ignored.
    """
    from .artifacts import TAPE, numbered_rows  # artifacts imports this module

    reports = []
    for line, report in numbered_rows(path, TAPE):
        report.row = line
        reports.append(report)
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
    live: dict[str, RawTradeReport] = {}  # in file order: a correction keeps its trade's place
    dead: set[str] = set()

    for rep in reports:
        if rep.record_id in family_of:
            raise ParseError(
                f"repeated record_id {rep.record_id!r}", row=rep.row, column="record_id"
            )
        if rep.kind == TRADE:
            family_of[rep.record_id] = rep.record_id
            live[rep.record_id] = rep
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

    settled = [rep for family, rep in live.items() if family not in dead]
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
        lambda t: not (t.capacity == AGENT and t.contra_party == DEALER),
    )
    apply(3, "keep business days", lambda t: calendar.is_business_day(t.exec_date))
    apply(4, "keep session hours", lambda t: SESSION_OPEN <= t.exec_time <= SESSION_CLOSE)
    apply(5, "keep regular trades", lambda t: not (t.sale_conditions & irregular_codes))
    apply(6, "keep compatible prices", lambda t: t.price >= MIN_PRICE)
    apply(7, "keep corporate bonds", lambda t: t.sub_product == CORPORATE_BOND)

    # Stable sort: chronological per bond, ties keep file order.
    current.sort(key=attrgetter("cusip", "exec_date", "exec_time"))
    combine = dt.datetime.combine
    clean: list[Trade] = []
    counters: dict[str, int] = {}
    for t in current:
        k = counters.get(t.cusip, 0)
        counters[t.cusip] = k + 1
        clean.append(
            Trade(t.cusip, k, combine(t.exec_date, t.exec_time), t.price, t.volume, t.leg)
        )
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

"""The row path of ingest, kept as the oracle of the column path.

``reconcile_lifecycle`` and ``filter_pipeline`` are ingest's list-based
lifecycle and filter as they were before ingest moved onto columns; only
their home changed. ``parse_rows`` parses a tape with the row codec.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import replace
from operator import attrgetter
from typing import Sequence

from bondtca.artifacts import TAPE, numbered_rows
from bondtca.calendars import BusinessCalendar
from bondtca.errors import ParseError
from bondtca.ingest import (
    AGENT, CANCEL, CORPORATE_BOND, CORRECTION, DEALER, DEFAULT_IRREGULAR_CODES, MIN_PRICE,
    SESSION_CLOSE, SESSION_OPEN, TRADE, FilterReport, FilterStep, LifecycleStats,
    RawTradeReport, TradeTable, _pct,
)


def parse_rows(path) -> list[RawTradeReport]:
    """The tape's reports through the row codec, each with its line number."""
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
    Dangling references are skipped, leaving originals untouched. A record
    id that an earlier record has raises ParseError.
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
            continue
        if rep.kind == CORRECTION:
            if family in dead:
                stats.dangling_references += 1
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


def filter_pipeline(
    trades: Sequence[RawTradeReport],
    calendar: BusinessCalendar,
    irregular_codes: frozenset[str] = DEFAULT_IRREGULAR_CODES,
    lifecycle: LifecycleStats | None = None,
) -> tuple[TradeTable, FilterReport]:
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
    clean = TradeTable.from_columns(  # k: each bond's trades numbered from 0 in time order
        [t.cusip for t in current],
        timestamp=[combine(t.exec_date, t.exec_time) for t in current],
        price=[t.price for t in current],
        volume=[t.volume for t in current],
        leg=[t.leg for t in current],
    )
    return clean, FilterReport(steps=steps, lifecycle=lifecycle)


def ingest_rows(
    reports: Sequence[RawTradeReport],
    calendar: BusinessCalendar,
    irregular_codes: frozenset[str] = DEFAULT_IRREGULAR_CODES,
) -> tuple[TradeTable, FilterReport]:
    """Reconcile then filter, with full step 1..7 accounting."""
    settled, stats = reconcile_lifecycle(reports)
    return filter_pipeline(settled, calendar, irregular_codes, lifecycle=stats)

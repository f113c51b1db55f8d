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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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
LEGS = (CUSTOMER_BUY, CUSTOMER_SELL, DEALER_DEALER)  # a TradeTable's leg codes index this

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
    """One row of ``clean.csv`` or ``signed.csv``; a TradeTable holds them as columns."""

    cusip: str
    k: int  # per-bond chronological index
    timestamp: dt.datetime
    price: float
    volume: float
    leg: str
    epsilon: int = 0  # +1 customer buy, -1 customer sell, 0 undeterminable
    is_rpt: bool = False


_EPOCH, _SECOND = dt.datetime(1970, 1, 1), dt.timedelta(seconds=1)


def _epoch_seconds(timestamp: dt.datetime) -> int:
    """Seconds since 1970-01-01 of a whole-second naive timestamp."""
    if timestamp.microsecond:
        raise ValueError(f"trade timestamp {timestamp} is not a whole second")
    return (timestamp - _EPOCH) // _SECOND


# a TradeTable's per-row columns, in Trade's field order after the cusip
TABLE_COLUMNS = ("k", "timestamp", "price", "volume", "leg", "epsilon", "is_rpt")
_DTYPES = dict(
    k=np.int64, timestamp="datetime64[s]", price=np.float64, volume=np.float64, leg=np.int8,
    epsilon=np.int8, is_rpt=np.bool_,
)


@dataclass(eq=False)
class TradeTable:
    """Clean or signed trades as columns, one bond after another.

    Bond i is ``cusips[i]`` and holds rows ``offsets[i]:offsets[i + 1]``.
    Bonds come in cusip order, and each bond's rows keep their input order,
    which is chronological in every file the pipeline writes. ``leg`` holds
    codes into LEGS. A bond's view (``group_by_cusip``) shares the columns,
    so classification writes through it into the table.
    """

    cusips: tuple[str, ...]
    offsets: np.ndarray
    k: np.ndarray
    timestamp: np.ndarray
    price: np.ndarray
    volume: np.ndarray
    leg: np.ndarray
    epsilon: np.ndarray
    is_rpt: np.ndarray

    @classmethod
    def from_codes(cls, cusips: Sequence[str], codes: np.ndarray, **columns) -> "TradeTable":
        """The rows, each of bond ``cusips[codes[i]]``; ``cusips`` is sorted.

        Rows are grouped by bond with a stable sort, so each bond's rows keep
        their order. ``k`` defaults to each bond's row number, ``epsilon``
        and ``is_rpt`` to 0 and False.
        """
        columns.setdefault("epsilon", np.zeros(len(codes)))
        columns.setdefault("is_rpt", np.zeros(len(codes)))
        columns = {
            name: np.ascontiguousarray(values, _DTYPES[name]) for name, values in columns.items()
        }
        if np.any(codes[1:] < codes[:-1]):
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            columns = {name: values[order] for name, values in columns.items()}
        offsets = np.searchsorted(codes, np.arange(len(cusips) + 1))
        columns.setdefault("k", np.arange(len(codes)) - offsets[codes])
        return cls(tuple(cusips), offsets, **columns)

    @classmethod
    def from_columns(cls, cusip: Sequence[str], **columns) -> "TradeTable":
        """The rows of per-row ``cusip`` names and TABLE_COLUMNS values, as in
        from_codes; legs are names, timestamps whole-second naive datetimes."""
        cusips = sorted(set(cusip))
        code_of = {name: i for i, name in enumerate(cusips)}
        codes = np.fromiter(map(code_of.__getitem__, cusip), np.int64, len(cusip))
        code_of_leg = {name: i for i, name in enumerate(LEGS)}
        columns["leg"] = np.fromiter(map(code_of_leg.__getitem__, columns["leg"]), np.int8)
        seconds = np.fromiter(map(_epoch_seconds, columns["timestamp"]), np.int64)
        columns["timestamp"] = seconds.astype("datetime64[s]")
        return cls.from_codes(cusips, codes, **columns)

    @classmethod
    def from_rows(cls, rows: Iterable[Trade]) -> "TradeTable":
        rows = list(rows)
        return cls.from_columns(
            [t.cusip for t in rows],
            **{name: [getattr(t, name) for t in rows] for name in TABLE_COLUMNS},
        )

    @property
    def codes(self) -> np.ndarray:
        """Each row's index into ``cusips``."""
        return np.repeat(np.arange(len(self.cusips)), np.diff(self.offsets))

    def groups(self, key: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """A stable order of the rows by (bond, ``key``), and the bounds of
        each (bond, key) group in it: group i is ``order[bounds[i]:bounds[i + 1]]``,
        its rows in table order."""
        codes = self.codes
        order = np.lexsort((key, codes))
        codes, key = codes[order], key[order]
        starts = np.flatnonzero((codes[1:] != codes[:-1]) | (key[1:] != key[:-1])) + 1
        return order, [0, *starts.tolist(), len(order)] if len(order) else [0]

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def __iter__(self) -> Iterator[Trade]:
        """The rows as Trade records."""
        counts = np.diff(self.offsets).tolist()
        cusip = [name for name, count in zip(self.cusips, counts) for _ in range(count)]
        legs = np.array(LEGS, dtype=object)[self.leg]
        return map(
            Trade,
            cusip,
            *(getattr(self, name).tolist() for name in ("k", "timestamp", "price", "volume")),
            legs.tolist(),
            self.epsilon.tolist(),
            self.is_rpt.tolist(),
        )

    def __getitem__(self, row: int) -> Trade:
        """Row ``row`` as a Trade record."""
        row = range(len(self))[row]  # a negative row counts from the end
        bond = int(np.searchsorted(self.offsets, row, side="right")) - 1
        k, timestamp, price, volume, leg, epsilon, is_rpt = (
            getattr(self, name)[row].item() for name in TABLE_COLUMNS
        )
        return Trade(self.cusips[bond], k, timestamp, price, volume, LEGS[leg], epsilon, is_rpt)

    def __eq__(self, other) -> bool:
        """Equal to a table with the same columns, or to a list of its rows."""
        if isinstance(other, list):
            return list(self) == other
        if not isinstance(other, TradeTable):
            return NotImplemented
        return self.cusips == other.cusips and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("offsets", *TABLE_COLUMNS)
        )


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


def ingest_reports(
    reports: Sequence[RawTradeReport],
    calendar: BusinessCalendar,
    irregular_codes: frozenset[str] = DEFAULT_IRREGULAR_CODES,
) -> tuple[TradeTable, FilterReport]:
    """Reconcile then filter, with full step 1..7 accounting."""
    settled, stats = reconcile_lifecycle(reports)
    return filter_pipeline(settled, calendar, irregular_codes, lifecycle=stats)


def cap_volumes(trades: TradeTable, grade_of: Mapping[str, str]) -> TradeTable:
    """Emulate Standard-tape truncation in place: 1MM cap for HY, 5MM for IG.

    Returns ``trades``.
    """
    caps = []
    for cusip in trades.cusips:
        grade = grade_of.get(cusip)
        if grade == "HY":
            caps.append(HY_VOLUME_CAP)
        elif grade == "IG":
            caps.append(IG_VOLUME_CAP)
        else:
            raise DataError(f"unknown grade for cusip {cusip}")
    np.minimum(trades.volume, np.repeat(caps, np.diff(trades.offsets)), out=trades.volume)
    return trades


def group_by_cusip(trades: TradeTable) -> dict[str, TradeTable]:
    """Each bond's rows as a view of ``trades``, in cusip order."""
    return {
        cusip: TradeTable(
            (cusip,),
            np.array([0, end - start]),
            *(getattr(trades, name)[start:end] for name in TABLE_COLUMNS),
        )
        for cusip, start, end in zip(
            trades.cusips, trades.offsets[:-1].tolist(), trades.offsets[1:].tolist()
        )
    }

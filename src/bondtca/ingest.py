"""Trade-tape ingestion: parsing, lifecycle reconciliation, filtering, caps.

The tape is a CSV of raw trade reports (trades plus cancel / correction /
reversal records), parsed into columns (a Tape). Reconciliation settles the
lifecycle chains, then a seven-step filter of boolean masks reduces the
settled trades to the clean analysis set.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass
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
SIDES = (CUSTOMER_BUY, CUSTOMER_SELL, None)  # no customer side: a dealer trade, as in LEGS

PRINCIPAL = "principal"
AGENT = "agent"
CAPACITIES = (PRINCIPAL, AGENT)
CUSTOMER = "customer"
DEALER = "dealer"
CONTRA_PARTIES = (CUSTOMER, DEALER)
CORPORATE_BOND = "corporate_bond"
OTHER_PRODUCT = "other"
SUB_PRODUCTS = (CORPORATE_BOND, OTHER_PRODUCT)

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


@dataclass(eq=False)
class Tape:
    """A trade tape's reports as columns, in file order.

    ``cusip`` indexes ``cusips``, which are sorted, and ``condition`` indexes
    ``conditions``, one set of sale-condition codes each. ``kind``,
    ``capacity``, ``leg`` and ``sub_product`` hold codes into REPORT_KINDS,
    CAPACITIES, LEGS and SUB_PRODUCTS: the rules between fields make the leg
    stand for both the contra party and the customer side. ``seconds`` counts
    from 1970-01-01. ``record_id`` holds each report's id and ``references``
    the id that each report other than a trade references, in file order,
    both as UTF-8 bytes.
    """

    cusips: tuple[str, ...]
    conditions: tuple[frozenset[str], ...]
    cusip: np.ndarray
    record_id: np.ndarray
    seconds: np.ndarray
    price: np.ndarray
    volume: np.ndarray
    kind: np.ndarray
    capacity: np.ndarray
    leg: np.ndarray
    condition: np.ndarray
    sub_product: np.ndarray
    references: np.ndarray

    @classmethod
    def from_reports(cls, reports: Sequence[RawTradeReport]) -> "Tape":
        """The columns of parsed reports. A record id that an earlier report
        has raises ParseError naming the later report's row."""
        seen: set[str] = set()
        for rep in reports:
            if rep.record_id in seen:
                raise ParseError(
                    f"repeated record_id {rep.record_id!r}", row=rep.row, column="record_id"
                )
            seen.add(rep.record_id)
        cusips = sorted({rep.cusip for rep in reports})
        conditions = list(dict.fromkeys(rep.sale_conditions for rep in reports))

        def codes(name: str, values: Sequence, dtype=np.int8) -> np.ndarray:
            code_of = {value: code for code, value in enumerate(values)}
            return np.array([code_of[getattr(rep, name)] for rep in reports], dtype)

        combine = dt.datetime.combine
        return cls(
            tuple(cusips),
            tuple(conditions),
            cusip=codes("cusip", cusips, np.int32),
            record_id=np.array([rep.record_id.encode() for rep in reports], "S"),
            seconds=np.array(
                [_epoch_seconds(combine(rep.exec_date, rep.exec_time)) for rep in reports],
                np.int64,
            ),
            price=np.array([rep.price for rep in reports], np.float64),
            volume=np.array([rep.volume for rep in reports], np.float64),
            kind=codes("kind", REPORT_KINDS),
            capacity=codes("capacity", CAPACITIES),
            leg=codes("leg", LEGS),
            condition=codes("sale_conditions", conditions, np.int32),
            sub_product=codes("sub_product", SUB_PRODUCTS),
            references=np.array(
                [rep.references.encode() for rep in reports if rep.kind != TRADE], "S"
            ),
        )

    def __len__(self) -> int:
        return len(self.kind)


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


def parse_trace_csv(path: str | Path) -> Tape:
    """Parse a trade-tape CSV into columns.

    The tape is read like every CSV artifact (see ``artifacts.TAPE``): lines
    before the header whose first field starts with '#' are metadata, the
    header names every tape column in any order, and other columns are
    ignored. A record id that an earlier row has raises ParseError, after
    every row has passed its own checks.
    """
    from .artifacts import load_tape  # artifacts imports this module

    return load_tape(path)


_TRADE, _CANCEL, _CORRECTION = map(REPORT_KINDS.index, (TRADE, CANCEL, CORRECTION))


def _rows_of(record_id: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The row of the record of each of ``ids``, or -1 where no record has it."""
    order = np.argsort(record_id, kind="stable")
    known = record_id[order]
    at = np.minimum(np.searchsorted(known, ids), max(len(known) - 1, 0))
    return np.where(known[at] == ids, order[at], -1)


def settle_lifecycle(tape: Tape) -> tuple[np.ndarray, LifecycleStats]:
    """Settle lifecycle chains: apply corrections, drop cancels and reversals.

    The settled trades come as the rows that hold their values, in the file
    order of the trades: a correction's row takes its trade's place. Only
    the records that are not trades are walked, in file order; the latest
    correction for a chain wins, and a cancel kills the chain whichever
    version it references. A reference to an unknown or a later record
    dangles, and a correction of a cancelled chain is skipped; each kind is
    counted and logged once, with its count.
    """
    kind = tape.kind
    others = np.flatnonzero(kind != _TRADE)
    targets = _rows_of(tape.record_id, tape.references)
    stats = LifecycleStats(input_reports=len(tape))
    family_of: dict[int, int] = {}  # row of a record in a chain -> row of its trade
    latest: dict[int, int] = {}  # row of a corrected trade -> row of its latest correction
    dead: set[int] = set()
    unknown = cancelled = 0
    for row, target, code in zip(others.tolist(), targets.tolist(), kind[others].tolist()):
        family = None
        if 0 <= target < row:  # a later record is not known yet
            family = target if kind[target] == _TRADE else family_of.get(target)
        if family is None:
            unknown += 1
            continue
        if code == _CORRECTION:
            if family in dead:
                cancelled += 1
                continue
            latest[family] = row
            stats.corrections_applied += 1
        else:  # cancel or reversal: reversal semantics are cancel-equivalent
            dead.add(family)
            if code == _CANCEL:
                stats.cancels_applied += 1
            else:
                stats.reversals_applied += 1
        family_of[row] = family
    if unknown:
        log.warning("%d lifecycle records reference no earlier record; skipped", unknown)
    if cancelled:
        log.warning("%d corrections target a cancelled chain; skipped", cancelled)

    trades = np.flatnonzero(kind == _TRADE)
    rows = trades[~np.isin(trades, np.fromiter(dead, np.int64, len(dead)))]
    fixed = [(trade, row) for trade, row in latest.items() if trade not in dead]
    if fixed:
        trade_rows, correction_rows = np.array(fixed).T
        rows[np.searchsorted(rows, trade_rows)] = correction_rows
    stats.settled_trades = len(rows)
    stats.dangling_references = unknown + cancelled
    return rows, stats


def _pct(removed: int, input_count: int) -> float:
    return 100.0 * removed / input_count if input_count else 0.0


def _seconds_of_day(time: dt.time) -> int:
    return time.hour * 3600 + time.minute * 60 + time.second


_DAY = 86_400
_EPOCH_DAY = _EPOCH.date()


def filter_trades(
    tape: Tape,
    rows: np.ndarray,
    calendar: BusinessCalendar,
    irregular_codes: frozenset[str] = DEFAULT_IRREGULAR_CODES,
    lifecycle: LifecycleStats | None = None,
) -> tuple[TradeTable, FilterReport]:
    """Apply filter steps 2..7 to the settled trades, the ``rows`` of
    ``tape``, and account for each step.

    When ``lifecycle`` stats are supplied, the reconciliation is reported as
    step 1 so that removals plus the final remaining count add back up to the
    raw input count. The calendar is asked once per distinct day, and the
    irregular codes once per distinct set of sale conditions.
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

    seconds = tape.seconds[rows]
    day = seconds // _DAY
    days, day_code = np.unique(day, return_inverse=True)
    business = np.array(
        [calendar.is_business_day(_EPOCH_DAY + dt.timedelta(days=d)) for d in days.tolist()], bool
    )
    time = seconds - day * _DAY
    regular = np.array([not (codes & irregular_codes) for codes in tape.conditions], bool)
    masks = [
        (
            2,
            "keep trades reported by dealers",
            (tape.capacity[rows] != CAPACITIES.index(AGENT))
            | (tape.leg[rows] != LEGS.index(DEALER_DEALER)),
        ),
        (3, "keep business days", business[day_code]),
        (
            4,
            "keep session hours",
            (time >= _seconds_of_day(SESSION_OPEN)) & (time <= _seconds_of_day(SESSION_CLOSE)),
        ),
        (5, "keep regular trades", regular[tape.condition[rows]]),
        (6, "keep compatible prices", tape.price[rows] >= MIN_PRICE),
        (7, "keep corporate bonds", tape.sub_product[rows] == SUB_PRODUCTS.index(CORPORATE_BOND)),
    ]
    keep = np.ones(len(rows), np.bool_)
    for step, label, mask in masks:
        before = int(np.count_nonzero(keep))
        keep &= mask
        remaining = int(np.count_nonzero(keep))
        steps.append(
            FilterStep(
                step=step,
                label=label,
                removed=before - remaining,
                removed_pct=_pct(before - remaining, before),
                remaining=remaining,
            )
        )

    # A stable sort: chronological per bond, ties keep file order.
    rows = rows[keep]
    rows = rows[np.lexsort((tape.seconds[rows], tape.cusip[rows]))]
    present, codes = np.unique(tape.cusip[rows], return_inverse=True)
    clean = TradeTable.from_codes(  # k: each bond's trades numbered from 0 in time order
        [tape.cusips[code] for code in present.tolist()],
        codes,
        timestamp=tape.seconds[rows].view("datetime64[s]"),
        price=tape.price[rows],
        volume=tape.volume[rows],
        leg=tape.leg[rows],
    )
    return clean, FilterReport(steps=steps, lifecycle=lifecycle)


def ingest_reports(
    tape: Tape,
    calendar: BusinessCalendar,
    irregular_codes: frozenset[str] = DEFAULT_IRREGULAR_CODES,
) -> tuple[TradeTable, FilterReport]:
    """Settle then filter, with full step 1..7 accounting."""
    rows, stats = settle_lifecycle(tape)
    return filter_trades(tape, rows, calendar, irregular_codes, lifecycle=stats)


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

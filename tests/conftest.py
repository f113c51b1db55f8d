"""Shared builders for hand-made tapes and trades."""

from __future__ import annotations

import datetime as dt

import pytest

from bondtca.artifacts import TAPE
from bondtca.calendars import BusinessCalendar
from bondtca.classify import SIGN_OF_LEG
from bondtca.ingest import (
    CAPACITIES, CONTRA_PARTIES, LEGS, REPORT_KINDS, SIDES, SUB_PRODUCTS, TRADE, RawTradeReport,
    Tape, Trade, parse_trace_csv,
)

MONDAY = dt.datetime(2015, 1, 5, 10, 0, 0)  # a business-day mid-morning


def ts(seconds: float = 0.0, base: dt.datetime = MONDAY) -> dt.datetime:
    return base + dt.timedelta(seconds=seconds)


def make_report(timestamp: dt.datetime = MONDAY, **kw) -> RawTradeReport:
    defaults = dict(
        record_id="R1",
        cusip="TESTCUSIP",
        exec_date=timestamp.date(),
        exec_time=timestamp.time(),
        price=100.0,
        volume=50_000.0,
        kind="trade",
        references=None,
        capacity="principal",
        contra_party="customer",
        customer_side="customer_buy",
        sale_conditions=frozenset(),
        sub_product="corporate_bond",
        row=0,
    )
    defaults.update(kw)
    if defaults["contra_party"] == "dealer":
        defaults["customer_side"] = None
    return RawTradeReport(**defaults)


def make_trade(k: int = 0, **kw) -> Trade:
    """A trade of TESTCUSIP, one minute after the last; unless given, its sign
    is its leg's, as classify sets it outside an RPT."""
    defaults = dict(
        cusip="TESTCUSIP",
        k=k,
        timestamp=ts(60.0 * k),
        price=100.0,
        volume=50_000.0,
        leg="customer_buy",
    )
    defaults.update(kw)
    defaults.setdefault("epsilon", SIGN_OF_LEG[defaults["leg"]])
    return Trade(**defaults)


@pytest.fixture
def calendar() -> BusinessCalendar:
    return BusinessCalendar()


def tape_csv(rows: list[str], header: list[str] = TAPE.header) -> bytes:
    return ("\n".join([",".join(header)] + rows) + "\n").encode()


def reports_of(tape: Tape) -> list[RawTradeReport]:
    """The tape's reports as row records, without their line numbers."""
    references = iter(tape.references.tolist())
    reports = []
    for record_id, cusip, seconds, price, volume, kind, capacity, leg, condition, product in zip(
        *(getattr(tape, name).tolist() for name in (
            "record_id", "cusip", "seconds", "price", "volume", "kind", "capacity", "leg",
            "condition", "sub_product",
        ))
    ):
        kind = REPORT_KINDS[kind]
        stamp = dt.datetime(1970, 1, 1) + dt.timedelta(seconds=seconds)
        reports.append(RawTradeReport(
            record_id.decode(), tape.cusips[cusip], stamp.date(), stamp.time(), price, volume,
            kind, None if kind == TRADE else next(references).decode(), CAPACITIES[capacity],
            CONTRA_PARTIES[leg == LEGS.index("dealer_dealer")], SIDES[leg],
            tape.conditions[condition], SUB_PRODUCTS[product],
        ))
    return reports


@pytest.fixture
def parse_tape(tmp_path):
    """parse_trace_csv on tape bytes, written to a file first."""

    def parse(tape: bytes) -> Tape:
        path = tmp_path / "tape.csv"
        path.write_bytes(tape)
        return parse_trace_csv(path)

    return parse


def trade_row(
    record_id: str,
    kind: str = "trade",
    references: str = "",
    cusip: str = "TESTCUSIP",
    date: str = "2015-01-05",
    time: str = "10:00:00",
    price: float = 100.0,
    volume: float = 50_000.0,
    capacity: str = "principal",
    contra: str = "customer",
    side: str = "customer_buy",
    condition: str = "",
    sub_product: str = "corporate_bond",
) -> str:
    if contra == "dealer":
        side = ""
    return (
        f"{record_id},{cusip},{date},{time},{price},{volume},{kind},"
        f"{references},{capacity},{contra},{side},{condition},{sub_product}"
    )

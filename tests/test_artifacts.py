"""The CSV codec: every declared artifact round-trips, and JSON is strict."""

import dataclasses
import datetime as dt
import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bondtca import artifacts
from bondtca.calendars import IsoWeek
from bondtca.classify import classify_bond, classify_trades
from bondtca.cli import main
from bondtca.errors import NumericalError, ParseError
from bondtca.features import GRADE_INDICATORS, GRADES, SECTOR_INDICATORS, SECTORS
from bondtca.ingest import Tape, Trade, TradeTable
from conftest import make_trade, reports_of, trade_row

DECLARATIONS = {
    name: value for name, value in vars(artifacts).items() if isinstance(value, artifacts.CsvArtifact)
}

FINITE = st.floats(allow_nan=False, allow_infinity=False)  # any magnitude, -0.0, subnormals
CUSIP = st.text(alphabet="#ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=1, max_size=9)
BY_CODEC = {
    artifacts.TEXT: CUSIP,
    artifacts.INT: st.integers(),
    artifacts.INT64: st.integers(-(2**63), 2**63 - 1),
    artifacts.FLOAT: FINITE,
    artifacts.POSITIVE_FLOAT: st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    artifacts.OPTIONAL_FLOAT: st.none() | FINITE,
    artifacts.TIMESTAMP: st.datetimes().map(lambda t: t.replace(microsecond=0)),
    artifacts.DATE: st.dates(),
    artifacts.WEEK: st.dates().map(IsoWeek.of),
    artifacts.CLOCK_TIME: st.times().map(lambda t: t.replace(microsecond=0)),
    artifacts.OPTIONAL_TEXT: st.none() | CUSIP,
    artifacts.CONDITIONS: st.frozensets(st.sampled_from("SUWZT")),
}
POSITIVE = BY_CODEC[artifacts.POSITIVE_FLOAT]
BY_NAME = {
    "grade": st.sampled_from(GRADES),
    "sector": st.sampled_from(SECTORS),
    "amount_outstanding": st.floats(min_value=1.0, allow_infinity=False),
}


def column_values(name, codec):
    if name in BY_NAME:
        return BY_NAME[name]
    choices = getattr(codec.parse, "__self__", None)  # a choice column parses by lookup
    if isinstance(choices, dict):
        return st.sampled_from(list(choices.values()))
    return BY_CODEC[codec]


@st.composite
def rows_of(draw, artifact):
    values = {name: draw(column_values(name, codec)) for name, codec in artifact.columns.items()}
    # the row types' own checks: one-hot indicators, issue before maturity
    for group in (GRADE_INDICATORS, SECTOR_INDICATORS):
        if group[0] in values:
            hot = draw(st.sampled_from(group))
            values.update({name: float(name == hot) for name in group})
    if "issue_date" in values:
        dates = draw(st.lists(st.dates(), min_size=2, max_size=2, unique=True))
        values["issue_date"], values["maturity_date"] = sorted(dates)
    if "report_kind" in values:  # a tape row, under RawTradeReport's rules between fields
        kind = values["report_kind"]
        if kind in ("trade", "correction"):
            values["price"], values["volume"] = draw(POSITIVE), draw(POSITIVE)
        values["references_record"] = None if kind == "trade" else draw(CUSIP)
        values["customer_side"] = (
            None if values["contra_party"] == "dealer"
            else draw(st.sampled_from(["customer_buy", "customer_sell"]))
        )
    return artifact.row_type(*values.values())


def test_every_artifact_is_declared():
    assert sorted(DECLARATIONS) == [
        "CLEAN", "CONTEXT", "FEATURES", "ONE_SIDED", "REFERENCES", "SIGNATURE", "SIGNED",
        "SPREADS", "TAPE", "WEEKLY",
    ]


@pytest.mark.parametrize("name", sorted(DECLARATIONS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_declaration_round_trip(tmp_path, name, data):
    artifact = DECLARATIONS[name]
    rows = data.draw(st.lists(rows_of(artifact), max_size=4))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    artifacts._write(first, artifact, rows, {"seed": 1})
    back = list(artifacts._read(first, artifact))
    assert back == rows
    artifacts._write(second, artifact, back, {"seed": 1})
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text().split("\n")[1] == ",".join(artifact.columns)


def test_classified_trades_write_six_columns_to_clean_csv(tmp_path):
    trades = classify_bond(
        TradeTable.from_rows([make_trade(k=0), make_trade(k=1, leg="customer_sell")])
    )
    assert all(t.is_rpt for t in trades)
    path = tmp_path / "clean.csv"
    artifacts.write_clean_trades(path, trades)
    header, *rows = path.read_text().splitlines()[1:]
    assert header == "cusip,k,timestamp,price,volume,leg"
    assert [len(row.split(",")) for row in rows] == [6, 6]
    unsigned = [dataclasses.replace(t, epsilon=0, is_rpt=False) for t in trades]
    assert artifacts.read_clean_trades(path) == unsigned


def test_numpy_scalars_write_as_python_floats(tmp_path):
    path = tmp_path / "signature.csv"
    artifacts.write_signature(path, np.arange(1, 3), np.array([0.5, -0.0]), np.array([1e-310, 2.0]))
    assert path.read_text().splitlines()[2:] == ["1,0.5,1e-310", "2,-0.0,2.0"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_non_finite_before_opening(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(NumericalError):
        artifacts.write_json(path, {"x": [1.0, value]})
    assert not path.exists()


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_degenerate_welch_t_is_written_as_null(tmp_path):
    # two bond-days, each with one dealer reference at 100.0, a buy at 101.0
    # and a sell at 99.5: both samples are constant, with different means
    trades = []
    for day in (5, 6):
        base = dt.datetime(2015, 1, day, 10, 0, 0)
        for k, (minutes, price, leg) in enumerate(
            [(0, 100.0, "dealer_dealer"), (60, 101.0, "customer_buy"), (90, 99.5, "customer_sell")]
        ):
            trades.append(
                make_trade(k=k, timestamp=base + dt.timedelta(minutes=minutes), price=price,
                           volume=200_000.0, leg=leg)
            )
    artifacts.write_signed_trades(tmp_path / "signed.csv", TradeTable.from_rows(trades))
    out = tmp_path / "report.json"
    assert main(["report", "--signed", str(tmp_path / "signed.csv"), "--out-report", str(out)]) == 0
    asymmetry = strict_json(out.read_text())["data"]["asymmetry"]
    assert asymmetry["welch_t"] is None
    assert asymmetry["p_value"] == 0.0
    assert asymmetry["mean_spread_buy_bp"] > asymmetry["mean_spread_sell_bp"]


# -- the column reader and the trade files' writer, against the row path ------

# field texts at the edge of what one reader or the other takes: numpy reads
# year 0 and a number between 0x1c-0x1f bytes but Python does not, Python
# reads 1_000 and Arabic-Indic digits but numpy does not, and a numpy S field
# cuts a long text silently
EDGE_TEXTS = {
    "cusip": [
        "A,B", '"A,B"', 'A"B', '"A""B"', "#HASH", "é", "X" * 31, "X" * 32, "X" * 64, " A", "",
        "A\x00", "A\r",
    ],
    "k": [
        "1_000", "٣", "+7", " 7", "-0", "1.0", "9223372036854775808", "99999999999999999999", "",
    ],
    "timestamp": [
        "0000-01-01 00:00:00", "2015-02-29 10:00:00", "2016-02-29 10:00:00", "2015-01-05 24:00:00",
        "2015-01-05 10:00:60", "2015-01-05T10:00", "2015-01-05X10:00:00", "2015-01-05 10:00:00.5",
        "20150105 10:00:00", "2015-W02-1 10:00", "2015-01-05 10:00:00+01:00", "2015-1-5 1:2:3",
        "٢٠١٥-01-05 10:00:00", "9999-12-31 23:59:59", "0001-01-01 00:00:00",
    ],
    "price": [
        "1e400", "infinity", "nan", "1_000.5", "٣", " 101.5", "101.5 ", "1e-400", "0x1p3", "-1.0",
        "0.0", "+.5", "5.", "", "101.5\x1c", "\x1f101.5", "\x0b101.5", "101.5\t",
    ],
    "leg": ["customer_sellX", "customer_sel", "Customer_buy", " dealer_dealer", "dealer_dealer "],
    "epsilon": ["-0", "+1", "01", " 1", "2", "-10"],
    "is_rpt": ["00", "true", "2", " 1", "1 "],
    "record_id": ["R" * 40, "R" * 31, "R" * 32, "R1 ", " R1", "", "é", "R\x00"],
    "exec_date": [
        "0000-01-01", "2015-02-29", "2016-02-29", "2015-13-01", "2015-01-00", "2015-1-5",
        "2015-01-05 ", "20150105", "٢٠١٥-01-05", "9999-12-31", "0001-01-01",
    ],
    "exec_time": [
        "24:00:00", "23:59:60", "23:60:00", "23:59:59", "00:00:00", "10:00", "10:00:00.5",
        "1:2:3", "10:00:00 ", "٣:00:00", "10:00:00Z",
    ],
    "report_kind": ["Trade", "trade ", "cancelled", "", "reversal\t"],
    "references_record": ["", "R" * 40, " R1", "R1 "],
    "capacity": ["principal ", "Agent", "", "dealer"],
    "contra_party": ["customer ", "DEALER", "", "agent"],
    "customer_side": ["customer_buy ", "dealer_dealer", "customer_sel", ""],
    "sale_condition": ["Z;T", "T S", " Z", "Z;", ";;", "X" * 40, "é", "Z\tT"],
    "sub_product": ["corporate_bond ", "other ", "bond", ""],
}
EDGE_TEXTS["volume"] = EDGE_TEXTS["price"]


def canonical_fields(artifact):
    """The texts of a row as the row path writes them."""
    formats = [codec.format for codec in artifact.columns.values()]
    names = [f.name for f in dataclasses.fields(artifact.row_type)][: len(formats)]
    return rows_of(artifact).map(
        lambda row: [fmt(getattr(row, name)) for fmt, name in zip(formats, names)]
    )


def read_by_rows(path, read):
    """``read``'s result by the row path alone, or its ParseError."""
    with mock.patch.object(artifacts, "_read_tape", return_value=None), \
            mock.patch.object(artifacts, "_read_table", return_value=None):
        try:
            return read(path)
        except ParseError as exc:
            return exc


def write_rows(path, artifact, rows):
    text = "\n".join([artifacts.meta_line({"seed": 1}), ",".join(artifact.header), *rows, ""])
    path.write_bytes(text.encode())
    return path


def comparable(result):
    """A table, or a tape's reports, which compare by value."""
    return reports_of(result) if isinstance(result, Tape) else result


# each column-read artifact: its column reader, which may defer, and its reader
COLUMN_READERS = {
    "TAPE": (artifacts.TAPE, artifacts._read_tape, artifacts.load_tape),
    "CLEAN": (
        artifacts.CLEAN,
        functools.partial(artifacts._read_table, artifact=artifacts.CLEAN),
        artifacts.read_clean_trades,
    ),
    "SIGNED": (
        artifacts.SIGNED,
        functools.partial(artifacts._read_table, artifact=artifacts.SIGNED),
        artifacts.read_signed_trades,
    ),
}


@pytest.mark.parametrize("name", sorted(COLUMN_READERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_column_reader_matches_the_row_path(tmp_path, name, data):
    artifact, fast_read, read = COLUMN_READERS[name]
    rows = []
    for i in range(data.draw(st.integers(0, 5))):
        fields = data.draw(canonical_fields(artifact))
        if "record_id" in artifact.columns:
            fields[0] = f"R{i}"  # a repeated record id sends the tape to the row path
        rows.append(fields)
    # one edge text in one row, so that the column reader's verdict is on it
    edge = bool(rows) and data.draw(st.booleans())
    if edge:
        fields = data.draw(st.sampled_from(rows))
        column = data.draw(st.integers(0, len(fields) - 1))
        fields[column] = data.draw(st.sampled_from(EDGE_TEXTS[artifact.header[column]]))
    path = write_rows(tmp_path / "trades.csv", artifact, map(",".join, rows))
    want = read_by_rows(path, read)
    fast = fast_read(path)
    if fast is not None:
        assert not isinstance(want, ParseError) and comparable(fast) == comparable(want)
    elif not edge:
        pytest.fail("the column reader deferred on canonical text")
    if isinstance(want, ParseError):
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == str(want)
    else:
        assert comparable(read(path)) == comparable(want)


def bond_rows(name):
    """Rows of bonds B, A and C, 20 each and in that order: they straddle
    blocks of a few hundred bytes, and a later block brings the first cusip.
    The last row's price is 159.0."""
    rows = []
    for i, cusip in enumerate(["B"] * 20 + ["A"] * 20 + ["C"] * 20):
        if name == "TAPE":
            rows.append(trade_row(f"R{i}", cusip=cusip, time=f"10:{i:02d}:00", price=100.0 + i))
        else:
            row = f"{cusip},{i},2015-01-05 10:{i:02d}:00,{100.0 + i},50000.0,customer_buy"
            rows.append(row + ",1,0" if name == "SIGNED" else row)
    return rows


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 300 bytes; a mock that counts the blocks read."""
    blocks = mock.Mock(wraps=artifacts._block_columns)
    monkeypatch.setattr(artifacts, "_BYTES_PER_READ", 300)
    monkeypatch.setattr(artifacts, "_block_columns", blocks)
    return blocks


@pytest.mark.parametrize("name", sorted(COLUMN_READERS))
def test_rows_of_a_bond_straddle_blocks(tmp_path, small_blocks, name):
    artifact, fast_read, read = COLUMN_READERS[name]
    path = write_rows(tmp_path / "bonds.csv", artifact, bond_rows(name))
    fast = fast_read(path)
    assert small_blocks.call_count > 6
    assert fast is not None and fast.cusips == ("A", "B", "C")
    assert comparable(fast) == comparable(read_by_rows(path, read))


# a last row that is not canonical sends the whole file to the row path,
# which reads it or names it
LAST_ROWS = {
    "quoted cusip": lambda row: row.replace("C,", '"C",', 1),
    "carriage return": lambda row: row + "\r",
    "non-finite price": lambda row: row.replace(",159.0,", ",nan,"),
}


@pytest.mark.parametrize("last", sorted(LAST_ROWS))
@pytest.mark.parametrize("name", sorted(COLUMN_READERS))
def test_a_last_row_not_canonical_sends_the_file_to_the_row_path(
    tmp_path, small_blocks, name, last
):
    artifact, fast_read, read = COLUMN_READERS[name]
    rows = bond_rows(name)
    canonical = comparable(fast_read(write_rows(tmp_path / "canonical.csv", artifact, rows)))
    path = write_rows(tmp_path / "last.csv", artifact, [*rows[:-1], LAST_ROWS[last](rows[-1])])
    small_blocks.reset_mock()
    assert fast_read(path) is None
    assert small_blocks.call_count > 6
    want = read_by_rows(path, read)
    if last == "non-finite price":
        assert (want.row, want.column) == (62, "price")
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == str(want)
    else:
        assert comparable(want) == canonical
        assert comparable(read(path)) == canonical


@pytest.mark.parametrize("name", sorted(COLUMN_READERS))
def test_a_header_without_rows(tmp_path, name):
    artifact, fast_read, read = COLUMN_READERS[name]
    path = write_rows(tmp_path / "empty.csv", artifact, [])
    fast, want = fast_read(path), read_by_rows(path, read)
    assert fast is not None and len(fast) == 0 and fast.cusips == ()
    assert {k: v.dtype for k, v in vars(fast).items() if isinstance(v, np.ndarray)} == {
        k: v.dtype for k, v in vars(want).items() if isinstance(v, np.ndarray)
    }


TRADE_ROWS = st.builds(
    Trade,
    cusip=st.text(alphabet='AB,"#é \n', max_size=4),
    k=st.integers(-(2**63), 2**63 - 1),
    timestamp=st.datetimes().map(lambda t: t.replace(microsecond=0)),
    price=POSITIVE,
    volume=POSITIVE,
    leg=st.sampled_from(["customer_buy", "customer_sell", "dealer_dealer"]),
    epsilon=st.sampled_from([-1, 0, 1]),
    is_rpt=st.booleans(),
)


@pytest.mark.parametrize("artifact", [artifacts.CLEAN, artifacts.SIGNED], ids=["CLEAN", "SIGNED"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(TRADE_ROWS, max_size=6))
def test_column_writer_matches_the_row_path(tmp_path, artifact, rows):
    table = TradeTable.from_rows(rows)
    artifacts._write_table(tmp_path / "columns.csv", artifact, table, {"seed": 1})
    artifacts._write(tmp_path / "rows.csv", artifact, table, {"seed": 1})
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


QUOTED_CUSIPS = ["A,B", 'A"B', '"', ",", 'SYN,"1"']


def test_quoted_cusip_round_trips_through_the_trade_files(tmp_path, capsys):
    trades = TradeTable.from_rows(
        make_trade(k=k, cusip=cusip, timestamp=make_trade().timestamp + dt.timedelta(minutes=k),
                   leg=leg, epsilon=0)
        for cusip in [*QUOTED_CUSIPS, "PLAIN"]
        for k, leg in enumerate(["customer_buy", "customer_sell", "dealer_dealer"])
    )
    clean, signed = tmp_path / "clean.csv", tmp_path / "signed.csv"
    artifacts.write_clean_trades(clean, trades)
    assert artifacts._read_table(clean, artifacts.CLEAN) is None  # quotes: the row path reads it
    assert artifacts.read_clean_trades(clean) == trades
    rows = clean.read_text().splitlines()[2:]
    assert rows[:2] == ['"""",0,2015-01-05 10:00:00,100.0,50000.0,customer_buy',
                        '"""",1,2015-01-05 10:01:00,100.0,50000.0,customer_sell']
    assert '"A,B",0,2015-01-05 10:00:00,100.0,50000.0,customer_buy' in rows
    assert main(["classify", "--clean", str(clean), "--out-signed", str(signed)]) == 0
    assert capsys.readouterr().out == "classified 18 trades, 12 RPT legs\n"
    classified = classify_trades(TradeTable.from_rows(trades))
    assert artifacts.read_signed_trades(signed) == classified
    artifacts.write_signed_trades(tmp_path / "copy.csv", classified)
    rows_of = lambda path: path.read_text().split("\n", 1)[1]  # noqa: E731
    assert rows_of(tmp_path / "copy.csv") == rows_of(signed)

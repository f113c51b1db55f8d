"""Readers and writers for the pipeline's on-disk artifacts.

Every artifact opens with a provenance line (tool version, config hash,
seed) so outputs are self-describing yet byte-reproducible: no timestamps
or absolute paths are ever written. Each CSV, the input trade tape and the
nine artifacts, is declared once, as an ordered list of columns that map in
order onto the leading fields of its row type; one reader and one writer
serve them all. The reader skips '#' comment lines before the header; after
it, every line is a row, so a field may begin with '#'. It finds each
declared column by name: the columns may come in any order, and columns
not declared are ignored.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import datetime as dt
import functools
import hashlib
import io
import json
import math
import operator
import re
import warnings
from operator import attrgetter, itemgetter, methodcaller
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import __version__
from .calendars import DATE_FORM, IsoWeek
from .errors import BondTcaError, NumericalError, ParseError
from .features import FEATURE_NAMES, BondReference, FeatureRow, MarketContext
from .impact import ImpactKernel
from .ingest import (
    CAPACITIES,
    CONTRA_PARTIES,
    CORRECTION,
    DEALER,
    LEGS,
    REPORT_KINDS,
    SIDES,
    SUB_PRODUCTS,
    TRADE,
    RawTradeReport,
    Tape,
    Trade,
    TradeTable,
)
from .microstructure import OneSidedSpread, SpreadObservation, WeeklySpread

_call = getattr(operator, "call", lambda fn, value: fn(value))  # operator.call: Python 3.11+


def config_hash(config: Mapping) -> str:
    """Stable short hash of the effective run configuration."""
    canon = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def meta_line(meta: Mapping | None) -> str:
    payload = {"tool": "bondtca", "version": __version__}
    payload.update(meta or {})
    return "# " + json.dumps(payload, sort_keys=True)


def write_json(path: str | Path, obj, meta: Mapping | None = None) -> None:
    """Write strict JSON: a NaN or an infinity in ``obj`` raises NumericalError
    before the file is opened."""
    payload = {"meta": json.loads(meta_line(meta)[2:]), "data": obj}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from exc
    Path(path).write_text(text + "\n")


def read_json(path: str | Path):
    payload = json.loads(Path(path).read_text())
    return payload["data"] if isinstance(payload, dict) and "data" in payload else payload


# -- the CSV codec ------------------------------------------------------------


class Codec(NamedTuple):
    """How a column's field is parsed from text and formatted back, and the
    numpy field that the column reader reads it into ('' where none does).
    An S field is one byte wider than its longest text that the column
    reader takes, so that a longer text shows."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    field: str = ""


class CsvArtifact(NamedTuple):
    """A CSV artifact: its header names, each with its codec, in the order of
    the leading fields of ``row_type``; the other fields keep their defaults."""

    row_type: type
    columns: dict[str, Codec]

    @property
    def header(self) -> list[str]:
        return list(self.columns)


def _csv(row_type: type, **columns: Codec) -> CsvArtifact:
    return CsvArtifact(row_type, columns)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise ValueError(f"non-positive number {text!r}")
    return value


def _optional_finite(text: str) -> float | None:
    return None if text == "" else _finite(text)


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer out of the int64 range {text!r}")
    return value


_TIME_FORM = "[0-9]{2}:[0-9]{2}:[0-9]{2}"


def _fixed_form(form: str, parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """``parse`` on texts of exactly ``form``: a fixed-width form reads the
    same through ``fromisoformat`` on every Python version."""
    match = re.compile(form).fullmatch

    def parse_form(text: str):
        if not match(text):
            raise ValueError(f"not of the form {form}: {text!r}")
        return parse(text)

    return parse_form


def _text(text: str) -> str:
    if "\0" in text:
        raise ValueError(f"NUL in {text!r}")
    return text


def _text_or_none(text: str) -> str | None:
    return _text(text) or None


def _none_as_empty(value: str | None) -> str:
    return "" if value is None else value


@functools.lru_cache(maxsize=1024)  # a tape repeats a few codes: one frozenset each
def _conditions(text: str) -> frozenset[str]:
    return frozenset(_text(text).replace(";", " ").split())


def _conditions_text(codes: frozenset[str]) -> str:
    return ";".join(sorted(codes))


def _float_text(value) -> str:
    value = float(value)  # repr of a numpy scalar is "np.float64(...)" under numpy 2
    if not math.isfinite(value):
        raise NumericalError(f"non-finite number {value!r}")
    return repr(value)


def _optional_float_text(value) -> str:
    return "" if value is None else _float_text(value)


def _choice(values: tuple, format: Callable[[Any], str] = str) -> Codec:
    """A field that is one of ``values``, each written with ``format``."""
    texts = {format(v): v for v in values}
    return Codec(texts.__getitem__, format, f"S{max(len(t.encode()) for t in texts) + 1}")


_int_text = "%d".__mod__  # str(int(value)), for bools and numpy integers too
TEXT = Codec(_text, str, "S32")  # any text without a NUL; the column reader's up to 31 bytes
INT = Codec(int, _int_text)
INT64 = Codec(_int64, _int_text, "i8")
FLOAT = Codec(_finite, _float_text, "f8")  # NaN, infinities and overflow are rejected
POSITIVE_FLOAT = Codec(_positive, _float_text, "f8")
OPTIONAL_FLOAT = Codec(_optional_finite, _optional_float_text)  # "" is None
# YYYY-MM-DD HH:MM:SS, YYYY-MM-DD and HH:MM:SS: no fraction, no UTC offset
TIMESTAMP = Codec(
    _fixed_form(f"{DATE_FORM} {_TIME_FORM}", dt.datetime.fromisoformat),
    methodcaller("isoformat", " "),
    "S20",
)
DATE = Codec(_fixed_form(DATE_FORM, dt.date.fromisoformat), dt.date.isoformat, "S11")
WEEK = Codec(IsoWeek.parse, attrgetter("label"))
CLOCK_TIME = Codec(_fixed_form(_TIME_FORM, dt.time.fromisoformat), dt.time.isoformat, "S9")
OPTIONAL_TEXT = Codec(_text_or_none, _none_as_empty, "S32")  # "" is None
CONDITIONS = Codec(_conditions, _conditions_text, "S32")  # codes separated by ';' or spaces
LEG = _choice(LEGS)

# the input trade tape; a choice column parses to its module constant
TAPE = _csv(
    RawTradeReport,
    record_id=TEXT,
    cusip=TEXT,
    exec_date=DATE,
    exec_time=CLOCK_TIME,
    price=FLOAT,
    volume=FLOAT,
    report_kind=_choice(REPORT_KINDS),
    references_record=OPTIONAL_TEXT,
    capacity=_choice(CAPACITIES),
    contra_party=_choice(CONTRA_PARTIES),
    customer_side=_choice(SIDES, _none_as_empty),
    sale_condition=CONDITIONS,
    sub_product=_choice(SUB_PRODUCTS),
)

CLEAN = _csv(
    Trade,
    cusip=TEXT,
    k=INT64,
    timestamp=TIMESTAMP,
    price=POSITIVE_FLOAT,
    volume=POSITIVE_FLOAT,
    leg=LEG,
)
SIGNED = _csv(
    Trade,
    **CLEAN.columns,
    epsilon=_choice((-1, 0, 1), _int_text),
    is_rpt=_choice((False, True), _int_text),
)
SPREADS = _csv(
    SpreadObservation, cusip=TEXT, k=INT, t=TIMESTAMP, psi=FLOAT, mid=POSITIVE_FLOAT, s_bp=FLOAT
)
WEEKLY = _csv(WeeklySpread, cusip=TEXT, iso_week=WEEK, mean_s_bp=FLOAT, n_obs=INT)
REFERENCES = _csv(
    BondReference,
    cusip=TEXT,
    coupon_rate=FLOAT,
    issue_date=DATE,
    maturity_date=DATE,
    amount_outstanding=FLOAT,
    grade=TEXT,
    sector=TEXT,
    frequency=INT,
)
CONTEXT = _csv(MarketContext, iso_week=WEEK, libor_ois=FLOAT)
FEATURES = _csv(
    FeatureRow, cusip=TEXT, iso_week=WEEK, mean_s_bp=FLOAT, **dict.fromkeys(FEATURE_NAMES, FLOAT)
)


@dataclasses.dataclass(slots=True)
class SignaturePoint:
    lag: int
    d_emp: float
    d_model: float


SIGNATURE = _csv(SignaturePoint, lag=INT, d_emp=FLOAT, d_model=FLOAT)
ONE_SIDED = _csv(
    OneSidedSpread,
    cusip=TEXT,
    day=DATE,
    spread_buy=OPTIONAL_FLOAT,
    spread_sell=OPTIONAL_FLOAT,
    reference_price=OPTIONAL_FLOAT,
)


def numbered_rows(path: str | Path, artifact: CsvArtifact) -> Iterator[tuple[int, Any]]:
    """The data rows of a CSV, each parsed into ``artifact.row_type``, with
    its line number.

    A header without a declared column, a row whose width differs from the
    header's, a field its column rejects, a row its row type rejects or a
    file that is not UTF-8 text raises ParseError with the path and, where
    known, the line and the column.
    """
    parsers = [c.parse for c in artifact.columns.values()]
    make = artifact.row_type
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # a BOM is dropped
            reader = csv.reader(fh)
            header = next((row for row in reader if not (row and row[0].startswith("#"))), None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            for name in artifact.columns:
                if name not in header:
                    raise ParseError(
                        f"{path}: missing column {name!r} in header",
                        row=reader.line_num,
                        column=name,
                    )
            # the declared columns in declaration order; every CSV has two or more
            pick = itemgetter(*map(header.index, artifact.columns))
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(
                        f"{path}: expected {width} fields, got {len(row)}", row=reader.line_num
                    )
                try:
                    value = make(*map(_call, parsers, pick(row)))
                except (ValueError, KeyError, BondTcaError) as exc:
                    raise _row_error(path, reader.line_num, artifact, pick(row), exc) from exc
                yield reader.line_num, value
    except UnicodeDecodeError:
        raise _decode_error(path) from None


def _read(path: str | Path, artifact: CsvArtifact) -> Iterator:
    """The data rows of a CSV, each parsed into ``artifact.row_type``."""
    return map(itemgetter(1), numbered_rows(path, artifact))


def _row_error(path, line: int, artifact: CsvArtifact, fields, exc) -> ParseError:
    """The ParseError for a row that failed to parse: its first bad field, if
    any, else the column that the row type's own check names, if any."""
    for (name, codec), text in zip(artifact.columns.items(), fields):
        try:
            codec.parse(text)
        except (ValueError, KeyError, BondTcaError):
            return ParseError(f"{path}: bad {name} {text!r}", row=line, column=name)
    if isinstance(exc, ParseError):
        return ParseError(f"{path}: {exc.message}", row=line, column=exc.column)
    return ParseError(f"{path}: {exc}", row=line)


def _decode_error(path) -> ParseError:
    """The ParseError for a file that is not UTF-8 text, naming its first bad line."""
    with open(path, "rb") as fh:
        for line, data in enumerate(fh, start=1):
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"{path}: not UTF-8 text: {exc.reason}", row=line)
    return ParseError(f"{path}: not UTF-8 text")


def _write(path: str | Path, artifact: CsvArtifact, rows: Iterable, meta: Mapping | None) -> None:
    """Write the provenance line, the header and one line per row. A NaN or
    an infinity raises NumericalError and leaves no file."""
    leading = dataclasses.fields(artifact.row_type)[: len(artifact.columns)]
    fields = attrgetter(*(f.name for f in leading))
    formats = [c.format for c in artifact.columns.values()]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(meta_line(meta) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(artifact.header)
            writer.writerows(map(_call, formats, fields(r)) for r in rows)
    except NumericalError as exc:
        Path(path).unlink()
        raise NumericalError(f"{path}: {exc}") from None


# -- the trade tape and the trade files, column by column --------------------

_BYTES_PER_READ = 1 << 20  # and the rest of the line: larger blocks raise peak RSS


def _preamble_lines(fh, artifact: CsvArtifact) -> int | None:
    """Read a binary file up to its header; the number of lines read, if
    they have the canonical shape, else None.

    The shape: a UTF-8 BOM or none, '#' lines of UTF-8 text in which no
    field opens a quote, then exactly the declared header.
    """
    header = ",".join(artifact.header).encode() + b"\n"
    lines = 0
    while line := fh.readline():
        if not lines:
            line = line.removeprefix(codecs.BOM_UTF8)
        lines += 1
        if line == header:
            return lines
        if not line.startswith(b"#") or b',"' in line or b"\r" in line or b"\0" in line:
            return None
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return None
    return None


def _plain_rows(data: bytes) -> bool:
    """Whether CSV rows are UTF-8 text with no quote and no control byte but
    the line feed: no NUL, no carriage return, and none of the bytes that
    numpy skips around a number and Python's float does not (0x1c-0x1f)."""
    controls = np.count_nonzero(np.frombuffer(data, np.uint8) < 0x20)
    if b'"' in data or controls != data.count(b"\n"):
        return False
    try:
        data.isascii() or data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _codes(values: np.ndarray, choices: Mapping[str, Any]) -> np.ndarray | None:
    """Each text's choice, or None if a text is none: the number itself where
    the choices are numbers (False and True too), else its index."""
    codes = np.zeros(len(values), np.int8)
    known = np.zeros(len(values), np.bool_)
    for index, (text, value) in enumerate(choices.items()):
        hit = values == text.encode()
        codes[hit] = value if isinstance(value, int) else index
        known |= hit
    return codes if known.all() else None


def _moments(text: np.ndarray, unit: str) -> np.ndarray | None:
    """Texts of 'YYYY-MM-DD HH:MM:SS' (an S20 field) or 'YYYY-MM-DD' (S11) as
    datetime64 ``unit``, or None if any is not a real date or time of that
    form."""
    form = b"dddd-dd-dd dd:dd:dd"[: text.itemsize - 1]  # 'd' a digit
    chars = np.ascontiguousarray(text).view(np.uint8).reshape(len(text), text.itemsize)
    ok = chars[:, -1] == 0  # the padding: the text is no longer than the form
    for i, byte in enumerate(form):
        if byte == ord("d"):
            ok &= chars[:, i] - np.uint8(48) < 10  # a byte that is no digit wraps above 9
        else:
            ok &= chars[:, i] == byte
    ok &= np.any(chars[:, :4] != ord("0"), axis=1)  # numpy reads year 0000, Python does not
    if not ok.all():
        return None
    try:
        return text.astype(unit)
    except ValueError:  # not a real date or time, such as 2015-02-29 or 24:00:00
        return None


def _column(values: np.ndarray, codec: Codec) -> np.ndarray | None:
    """A field of numpy's rows as the column reader's column, or None if any
    value is one that the row path would read otherwise or reject: a
    choice's codes (``_codes``), a date as datetime64[D], a timestamp as
    datetime64[s], a time of day as timedelta64[s], a free text as narrow as
    its longest, a number as it is."""
    choices = getattr(codec.parse, "__self__", None)  # a choice column parses by lookup
    if isinstance(choices, dict):
        return _codes(values, choices)
    if codec == CLOCK_TIME:  # the time on 1970-01-01
        stamps = _moments(np.char.add(b"1970-01-01 ", values), "datetime64[s]")
        return None if stamps is None else stamps - np.datetime64(0, "s")
    if codec in (DATE, TIMESTAMP):
        return _moments(values, "datetime64[D]" if codec == DATE else "datetime64[s]")
    if values.dtype.kind == "S":
        width = int(np.char.str_len(values).max(initial=0))
        return None if width >= values.itemsize else values.astype(f"S{max(width, 1)}")
    ok = np.isfinite(values) & (values > 0) if codec == POSITIVE_FLOAT else np.isfinite(values)
    return values.copy() if ok.all() else None  # a copy: a field keeps all the rows alive


def _block_columns(data: bytes, artifact: CsvArtifact, reduce: Callable) -> dict | None:
    """Whole lines of rows as their columns through ``reduce`` (none for
    blank lines), or None if any of their text is not canonical: rows that
    are not plain (``_plain_rows``), a row numpy cannot read, or a field
    that its column does not take (``_column``). A function of its own, so
    that numpy's rows are freed before the next block is read."""
    if not _plain_rows(data):
        return None
    fields = [(name, codec.field) for name, codec in artifact.columns.items()]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns about lines that are all blank
            rows = np.loadtxt(
                io.BytesIO(data), fields, delimiter=",", comments=None, encoding="latin1", ndmin=1
            )
    except ValueError:
        return None
    columns = {name: _column(rows[name], codec) for name, codec in artifact.columns.items()}
    if any(values is None for values in columns.values()):
        return None
    return reduce(columns)


def _read_columns(path, artifact: CsvArtifact, reduce: Callable) -> dict | None:
    """A CSV's columns, read a block of whole lines at a time, or None if any
    of its text is not canonical, in which case the row path decides.

    The canonical text is the preamble of ``_preamble_lines``, then rows
    that ``_block_columns`` takes. ``reduce`` turns each block's columns
    into the ones kept, or returns None to defer.
    """
    blocks = []
    with open(path, "rb") as fh:
        if _preamble_lines(fh, artifact) is None:
            return None
        # one block at least, so that a file without rows has typed columns
        while (data := fh.read(_BYTES_PER_READ) + fh.readline()) or not blocks:
            block = _block_columns(data, artifact, reduce)
            if block is None:
                return None
            blocks.append(block)
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}


def _recode(values: np.ndarray, code_of: dict[bytes, int]) -> np.ndarray:
    """Each text's code in ``code_of``, where a new text takes the next code;
    looked up once per run of equal texts."""
    heads = np.r_[True, values[1:] != values[:-1]][: len(values)]  # each run's first text
    codes = [code_of.setdefault(text, len(code_of)) for text in values[heads].tolist()]
    return np.array(codes, np.int32)[np.cumsum(heads) - 1]


def _ranked(code_of: dict[bytes, int], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The texts of ``code_of`` in sorted order, and ``codes`` as indices
    into them."""
    texts = sorted(code_of)  # UTF-8 bytes sort as their texts do
    rank = np.empty(len(texts), np.int32)
    rank[[code_of[text] for text in texts]] = np.arange(len(texts))
    return tuple(text.decode("utf-8") for text in texts), rank[codes]


def _read_table(path, artifact: CsvArtifact) -> TradeTable | None:
    """The trade file as a table, or None if the column reader defers."""
    cusip_of: dict[bytes, int] = {}
    columns = _read_columns(
        path, artifact, lambda block: {**block, "cusip": _recode(block["cusip"], cusip_of)}
    )
    if columns is None:
        return None
    cusips, codes = _ranked(cusip_of, columns.pop("cusip"))
    return TradeTable.from_codes(cusips, codes, **columns)


_TRADE_CODE, _CORRECTION_CODE = REPORT_KINDS.index(TRADE), REPORT_KINDS.index(CORRECTION)
_DEALER_CODE, _NO_SIDE_CODE = CONTRA_PARTIES.index(DEALER), SIDES.index(None)


def _tape_block(columns: dict, cusip_of: dict, condition_of: dict) -> dict | None:
    """A block of tape columns as Tape columns, or None if a row breaks a
    rule between fields (RawTradeReport's), which the row path reports."""
    kind, price, volume = columns["report_kind"], columns["price"], columns["volume"]
    references = columns["references_record"]
    valued = (kind == _TRADE_CODE) | (kind == _CORRECTION_CODE)  # a correction replaces a trade
    if not (
        np.all(((price > 0) & (volume > 0)) | ~valued)
        and np.array_equal(references != b"", kind != _TRADE_CODE)
        and np.array_equal(
            columns["contra_party"] == _DEALER_CODE, columns["customer_side"] == _NO_SIDE_CODE
        )
    ):
        return None
    return {
        "cusip": _recode(columns["cusip"], cusip_of),
        "record_id": columns["record_id"],
        "seconds": (columns["exec_date"] + columns["exec_time"]).view(np.int64),
        "price": price,
        "volume": volume,
        "kind": kind,
        "capacity": columns["capacity"],
        "leg": columns["customer_side"],  # a side's code is its leg's; no side is a dealer leg
        "condition": _recode(columns["sale_condition"], condition_of),
        "sub_product": columns["sub_product"],
        "references": references[kind != _TRADE_CODE],
    }


def _read_tape(path) -> Tape | None:
    """The tape as columns, or None if the column reader defers or a record
    id repeats, in which case the row path decides."""
    cusip_of: dict[bytes, int] = {}
    condition_of: dict[bytes, int] = {}
    columns = _read_columns(
        path, TAPE, functools.partial(_tape_block, cusip_of=cusip_of, condition_of=condition_of)
    )
    if columns is None:
        return None
    ids = np.sort(columns["record_id"], kind="stable")
    if np.any(ids[1:] == ids[:-1]):
        return None
    del ids
    cusips, columns["cusip"] = _ranked(cusip_of, columns["cusip"])
    conditions = tuple(_conditions(text.decode("utf-8")) for text in condition_of)
    return Tape(cusips, conditions, **columns)


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row, quoted if need be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


_ROWS_PER_WRITE = 4096  # rows formatted at a time: a small working set


def _write_table(path, artifact: CsvArtifact, table: TradeTable, meta: Mapping | None) -> None:
    """The trade file as ``_write`` writes it: each distinct cusip, k,
    timestamp, volume, leg, epsilon and flag formatted once, each price once
    per row. A NaN or an infinity raises NumericalError and leaves no file."""
    if not (np.isfinite(table.price).all() and np.isfinite(table.volume).all()):
        raise NumericalError(f"{path}: non-finite price or volume")
    texts = {"cusip": [_csv_field(c) for c in table.cusips]}
    index = {"cusip": table.codes}
    for name in list(artifact.columns)[1:]:
        if name != "price":
            distinct, index[name] = np.unique(getattr(table, name), return_inverse=True)
            values = distinct.tolist()
            if name == "leg":
                values = [LEGS[code] for code in values]
            texts[name] = list(map(artifact.columns[name].format, values))
    texts = {name: np.array(values, dtype=object) for name, values in texts.items()}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta_line(meta) + "\n")
        fh.write(",".join(artifact.header) + "\n")
        for start in range(0, len(table), _ROWS_PER_WRITE):
            rows = slice(start, start + _ROWS_PER_WRITE)
            fields = [
                map(repr, table.price[rows].tolist()) if name == "price"
                else texts[name][index[name][rows]].tolist()
                for name in artifact.columns
            ]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


# -- public readers and writers -----------------------------------------------


def _read_trades(path, artifact: CsvArtifact) -> TradeTable:
    """The column reader's table, or else the row path's rows as a table."""
    table = _read_table(path, artifact)
    return TradeTable.from_rows(_read(path, artifact)) if table is None else table


def load_tape(path) -> Tape:
    """The column reader's tape, or else the row path's reports as columns."""
    tape = _read_tape(path)
    if tape is None:
        reports = []
        for line, report in numbered_rows(path, TAPE):
            report.row = line
            reports.append(report)
        tape = Tape.from_reports(reports)
    return tape


def read_clean_trades(path) -> TradeTable:
    return _read_trades(path, CLEAN)


def write_clean_trades(path, trades: TradeTable, meta=None) -> None:
    _write_table(path, CLEAN, trades, meta)


def read_signed_trades(path) -> TradeTable:
    return _read_trades(path, SIGNED)


def write_signed_trades(path, trades: TradeTable, meta=None) -> None:
    _write_table(path, SIGNED, trades, meta)


def read_spread_observations(path) -> list[SpreadObservation]:
    return list(_read(path, SPREADS))


def write_spread_observations(path, obs: Iterable[SpreadObservation], meta=None) -> None:
    _write(path, SPREADS, obs, meta)


def read_weekly_spreads(path) -> list[WeeklySpread]:
    return list(_read(path, WEEKLY))


def write_weekly_spreads(path, weekly: Iterable[WeeklySpread], meta=None) -> None:
    _write(path, WEEKLY, weekly, meta)


def read_bond_references(path) -> dict[str, BondReference]:
    return {r.cusip: r for r in _read(path, REFERENCES)}


def write_bond_references(path, rows: Iterable[BondReference], meta=None) -> None:
    _write(path, REFERENCES, rows, meta)


def read_market_context(path) -> dict[IsoWeek, float]:
    return {r.week: r.libor_ois for r in _read(path, CONTEXT)}


def write_market_context(path, rows: Iterable[MarketContext], meta=None) -> None:
    _write(path, CONTEXT, rows, meta)


def read_feature_rows(path) -> list[FeatureRow]:
    return list(_read(path, FEATURES))


def write_feature_rows(path, rows: Iterable[FeatureRow], meta=None) -> None:
    _write(path, FEATURES, rows, meta)


def write_signature(path, lags, d_emp, d_model, meta=None) -> None:
    _write(path, SIGNATURE, map(SignaturePoint, lags, d_emp, d_model), meta)


def write_one_sided(path, rows: Iterable[OneSidedSpread], meta=None) -> None:
    _write(path, ONE_SIDED, rows, meta)


def kernel_json_obj(kernels: Mapping[int | None, ImpactKernel], model: str, alpha: float) -> dict:
    some = next(iter(kernels.values()))
    g: dict[str, list[float]] = {}
    g0: dict[str, float] = {}
    for key, kern in kernels.items():
        label = "all" if key is None else f"{key:+d}"
        g[label] = [float(v) for v in kern.g]
        g0[label] = kern.g0
    return {
        "cusip": some.cusip,
        "model": model,
        "alpha": alpha,
        "N": some.n_lags,
        "L": some.l_lags,
        "g": g,
        "g0": g0,
        "condition_number": max(k.condition_number for k in kernels.values()),
    }

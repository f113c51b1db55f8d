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

import csv
import dataclasses
import datetime as dt
import functools
import hashlib
import json
import math
import operator
from operator import attrgetter, itemgetter, methodcaller
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import __version__
from .calendars import IsoWeek
from .errors import BondTcaError, NumericalError, ParseError
from .features import FEATURE_NAMES, BondReference, FeatureRow, MarketContext
from .impact import ImpactKernel
from .ingest import (
    AGENT,
    CORPORATE_BOND,
    CUSTOMER,
    CUSTOMER_BUY,
    CUSTOMER_SELL,
    DEALER,
    DEALER_DEALER,
    OTHER_PRODUCT,
    PRINCIPAL,
    REPORT_KINDS,
    RawTradeReport,
    Trade,
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
    """How a column's field is parsed from text and formatted back."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]


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


def _naive_timestamp(text: str) -> dt.datetime:
    value = dt.datetime.fromisoformat(text)
    if value.tzinfo is not None:
        raise ValueError(f"timestamp with a UTC offset {text!r}")
    return value


def _clock_time(text: str) -> dt.time:
    hh, mm, ss = text.split(":")  # exactly HH:MM:SS: no fraction, no UTC offset
    return dt.time(int(hh), int(mm), int(ss))


def _text_or_none(text: str) -> str | None:
    return text or None


def _none_as_empty(value: str | None) -> str:
    return "" if value is None else value


@functools.lru_cache(maxsize=1024)  # a tape repeats a few codes: one frozenset each
def _conditions(text: str) -> frozenset[str]:
    return frozenset(text.replace(";", " ").split())


def _conditions_text(codes: frozenset[str]) -> str:
    return ";".join(sorted(codes))


def _float_text(value) -> str:
    return repr(float(value))  # repr of a numpy scalar is "np.float64(...)" under numpy 2


def _optional_float_text(value) -> str:
    return "" if value is None else repr(float(value))


def _choice(values: tuple, format: Callable[[Any], str] = str) -> Codec:
    """A field that is one of ``values``, each written with ``format``."""
    return Codec({format(v): v for v in values}.__getitem__, format)


_int_text = "%d".__mod__  # str(int(value)), for bools and numpy integers too
TEXT = Codec(str, str)
INT = Codec(int, _int_text)
FLOAT = Codec(_finite, _float_text)  # NaN, infinities and overflow are rejected
POSITIVE_FLOAT = Codec(_positive, _float_text)
OPTIONAL_FLOAT = Codec(_optional_finite, _optional_float_text)  # "" is None
TIMESTAMP = Codec(_naive_timestamp, methodcaller("isoformat", " "))  # no UTC offset
DATE = Codec(dt.date.fromisoformat, dt.date.isoformat)
WEEK = Codec(IsoWeek.parse, attrgetter("label"))
CLOCK_TIME = Codec(_clock_time, dt.time.isoformat)
OPTIONAL_TEXT = Codec(_text_or_none, _none_as_empty)  # "" is None
CONDITIONS = Codec(_conditions, _conditions_text)  # codes separated by ';' or spaces
LEG = _choice((CUSTOMER_BUY, CUSTOMER_SELL, DEALER_DEALER))

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
    capacity=_choice((PRINCIPAL, AGENT)),
    contra_party=_choice((CUSTOMER, DEALER)),
    customer_side=_choice((CUSTOMER_BUY, CUSTOMER_SELL, None), _none_as_empty),
    sale_condition=CONDITIONS,
    sub_product=_choice((CORPORATE_BOND, OTHER_PRODUCT)),
)

CLEAN = _csv(
    Trade,
    cusip=TEXT,
    k=INT,
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
        with open(path, "r", encoding="utf-8", newline="") as fh:
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
    """Write the provenance line, the header and one line per row."""
    leading = dataclasses.fields(artifact.row_type)[: len(artifact.columns)]
    fields = attrgetter(*(f.name for f in leading))
    formats = [c.format for c in artifact.columns.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta_line(meta) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(artifact.header)
        writer.writerows(map(_call, formats, fields(r)) for r in rows)


# -- public readers and writers -----------------------------------------------


def read_clean_trades(path) -> list[Trade]:
    return list(_read(path, CLEAN))


def write_clean_trades(path, trades: Iterable[Trade], meta=None) -> None:
    _write(path, CLEAN, trades, meta)


def read_signed_trades(path) -> list[Trade]:
    return list(_read(path, SIGNED))


def write_signed_trades(path, trades: Iterable[Trade], meta=None) -> None:
    _write(path, SIGNED, trades, meta)


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

"""Readers and writers for the pipeline's on-disk artifacts.

Every artifact opens with a provenance line (tool version, config hash,
seed) so outputs are self-describing yet byte-reproducible: no timestamps
or absolute paths are ever written. CSV readers skip '#' comment lines.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .calendars import IsoWeek
from .classify import SignedTrade
from .errors import BondTcaError, DataError, ParseError
from .features import BondReference, FeatureRow, DESIGN_FEATURES
from .impact import ImpactKernel
from .ingest import CleanTrade, FilterReport
from .microstructure import OneSidedSpread, SpreadObservation, WeeklySpread


def config_hash(config: Mapping) -> str:
    """Stable short hash of the effective run configuration."""
    canon = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def meta_line(meta: Mapping | None) -> str:
    payload = {"tool": "bondtca", "version": __version__}
    payload.update(meta or {})
    return "# " + json.dumps(payload, sort_keys=True)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    meta: Mapping | None = None,
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta_line(meta) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, obj, meta: Mapping | None = None) -> None:
    payload = {"meta": json.loads(meta_line(meta)[2:]), "data": obj}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path):
    payload = json.loads(Path(path).read_text())
    return payload["data"] if isinstance(payload, dict) and "data" in payload else payload


def _read_rows(path: str | Path, expected_header: Sequence[str], convert: Callable) -> Iterator:
    """``convert(*fields)`` of each data row of a CSV artifact.

    A row whose width differs from the header's, or whose fields ``convert``
    rejects, raises ParseError with the path and the row's line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for row in reader:
            if row and row[0].startswith("#"):
                continue
            header = row
            break
        if header is None:
            raise ParseError(f"{path}: empty file")
        if list(header) != list(expected_header):
            raise ParseError(f"{path}: unexpected header {header}")
        width = len(header)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) != width:
                raise ParseError(
                    f"{path}: expected {width} fields, got {len(row)}", row=reader.line_num
                )
            try:
                value = convert(*row)
            except (ValueError, OverflowError, BondTcaError) as exc:
                raise ParseError(f"{path}: {exc}", row=reader.line_num) from exc
            yield value


def _ts(value: str) -> dt.datetime:
    return dt.datetime.fromisoformat(value)


# -- clean trades -------------------------------------------------------------

CLEAN_HEADER = ("cusip", "k", "timestamp", "price", "volume", "leg")


def write_clean_trades(path, trades: Iterable[CleanTrade], meta=None) -> None:
    write_csv(
        path,
        CLEAN_HEADER,
        (
            (t.cusip, t.k, t.timestamp.isoformat(sep=" "), repr(t.price), repr(t.volume), t.leg)
            for t in trades
        ),
        meta,
    )


def read_clean_trades(path) -> list[CleanTrade]:
    def convert(c, k, ts, p, v, leg):
        return CleanTrade(c, int(k), _ts(ts), float(p), float(v), leg)

    return list(_read_rows(path, CLEAN_HEADER, convert))


# -- signed trades ------------------------------------------------------------

SIGNED_HEADER = CLEAN_HEADER + ("epsilon", "is_rpt")


def write_signed_trades(path, trades: Iterable[SignedTrade], meta=None) -> None:
    write_csv(
        path,
        SIGNED_HEADER,
        (
            (
                t.cusip,
                t.k,
                t.timestamp.isoformat(sep=" "),
                repr(t.price),
                repr(t.volume),
                t.leg,
                t.epsilon,
                int(t.is_rpt),
            )
            for t in trades
        ),
        meta,
    )


def read_signed_trades(path) -> list[SignedTrade]:
    def convert(c, k, ts, p, v, leg, e, r):
        return SignedTrade(c, int(k), _ts(ts), float(p), float(v), leg, int(e), bool(int(r)))

    return list(_read_rows(path, SIGNED_HEADER, convert))


# -- spreads ------------------------------------------------------------------

SPREAD_HEADER = ("cusip", "k", "t", "psi", "mid", "s_bp")
WEEKLY_HEADER = ("cusip", "iso_week", "mean_s_bp", "n_obs")


def write_spread_observations(path, obs: Iterable[SpreadObservation], meta=None) -> None:
    write_csv(
        path,
        SPREAD_HEADER,
        (
            (o.cusip, o.k, o.timestamp.isoformat(sep=" "), repr(o.psi), repr(o.mid), repr(o.s_bp))
            for o in obs
        ),
        meta,
    )


def read_spread_observations(path) -> list[SpreadObservation]:
    def convert(c, k, ts, psi, mid, s):
        return SpreadObservation(c, int(k), _ts(ts), float(psi), float(mid), float(s))

    return list(_read_rows(path, SPREAD_HEADER, convert))


def write_weekly_spreads(path, weekly: Iterable[WeeklySpread], meta=None) -> None:
    write_csv(
        path,
        WEEKLY_HEADER,
        ((w.cusip, w.week.label, repr(w.mean_s_bp), w.n_obs) for w in weekly),
        meta,
    )


def read_weekly_spreads(path) -> list[WeeklySpread]:
    def convert(c, w, s, n):
        return WeeklySpread(c, IsoWeek.parse(w), float(s), int(n))

    return list(_read_rows(path, WEEKLY_HEADER, convert))


# -- reference & context ------------------------------------------------------

REFERENCE_HEADER = (
    "cusip",
    "coupon_rate",
    "issue_date",
    "maturity_date",
    "amount_outstanding",
    "grade",
    "sector",
    "frequency",
)
CONTEXT_HEADER = ("iso_week", "libor_ois")


def read_bond_references(path) -> dict[str, BondReference]:
    def convert(c, coupon, issue, maturity, amount, grade, sector, freq):
        return BondReference(
            cusip=c,
            coupon_rate=float(coupon),
            issue_date=dt.date.fromisoformat(issue),
            maturity_date=dt.date.fromisoformat(maturity),
            amount_outstanding=float(amount),
            grade=grade,
            sector=sector,
            frequency=int(freq),
        )

    return {r.cusip: r for r in _read_rows(path, REFERENCE_HEADER, convert)}


def write_bond_references(path, rows: Iterable[Mapping], meta=None) -> None:
    write_csv(
        path,
        REFERENCE_HEADER,
        ((r[c] for c in REFERENCE_HEADER) for r in rows),
        meta,
    )


def read_market_context(path) -> dict[IsoWeek, float]:
    def convert(week, rate):
        return IsoWeek.parse(week), float(rate)

    return dict(_read_rows(path, CONTEXT_HEADER, convert))


def write_market_context(path, rows: Iterable[Mapping], meta=None) -> None:
    write_csv(path, CONTEXT_HEADER, ((r["iso_week"], r["libor_ois"]) for r in rows), meta)


# -- features -----------------------------------------------------------------

FEATURE_HEADER = ("cusip", "iso_week", "mean_s_bp") + tuple(DESIGN_FEATURES) + (
    "log_zero_trade_days",
)


def write_feature_rows(path, rows: Iterable[FeatureRow], meta=None) -> None:
    def encode(r: FeatureRow):
        m = r.as_mapping()
        return (
            (r.cusip, r.week.label, repr(r.mean_s_bp))
            + tuple(repr(m[name]) for name in DESIGN_FEATURES)
            + (repr(r.log_zero_trade_days),)
        )

    write_csv(path, FEATURE_HEADER, (encode(r) for r in rows), meta)


def read_feature_rows(path) -> list[FeatureRow]:
    from .features import SECTORS  # local to avoid cycles in type checkers

    def convert(*values):
        named = dict(zip(FEATURE_HEADER, values))
        sector = next(
            (s for s in SECTORS if float(named[f"sector_{s.lower()}"]) == 1.0), None
        )
        if sector is None:
            raise DataError(f"feature row for {named['cusip']} has no sector indicator")
        return FeatureRow(
            cusip=named["cusip"],
            week=IsoWeek.parse(named["iso_week"]),
            mean_s_bp=float(named["mean_s_bp"]),
            volatility=float(named["volatility"]),
            n_trading_days=int(float(named["n_trading_days"])),
            log_zero_trade_days=float(named["log_zero_trade_days"]),
            prop_n_buy=float(named["prop_n_buy"]),
            prop_n_sell=float(named["prop_n_sell"]),
            prop_vol_buy=float(named["prop_vol_buy"]),
            prop_vol_sell=float(named["prop_vol_sell"]),
            trading_activity=float(named["trading_activity"]),
            log_total_volume=float(named["log_total_volume"]),
            avg_price=float(named["avg_price"]),
            coupon=float(named["coupon"]),
            duration=float(named["duration"]),
            years_to_maturity=float(named["years_to_maturity"]),
            years_since_issuance=float(named["years_since_issuance"]),
            turnover=float(named["turnover"]),
            libor_ois=float(named["libor_ois"]),
            grade="HY" if float(named["ind_hy"]) == 1.0 else "IG",
            sector=sector,
        )

    return list(_read_rows(path, FEATURE_HEADER, convert))


# -- filter report, kernels, signatures ---------------------------------------


def write_filter_report(path, report: FilterReport, meta=None) -> None:
    write_json(path, report.to_json_obj(), meta)


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


SIGNATURE_HEADER = ("lag", "d_emp", "d_model")


def write_signature(path, lags, d_emp, d_model, meta=None) -> None:
    write_csv(
        path,
        SIGNATURE_HEADER,
        ((int(l), repr(float(e)), repr(float(m))) for l, e, m in zip(lags, d_emp, d_model)),
        meta,
    )


def write_one_sided(path, rows: Iterable[OneSidedSpread], meta=None) -> None:
    write_csv(
        path,
        ("cusip", "day", "spread_buy", "spread_sell", "reference_price"),
        (
            (
                r.cusip,
                r.day.isoformat(),
                "" if r.spread_buy is None else repr(r.spread_buy),
                "" if r.spread_sell is None else repr(r.spread_sell),
                "" if r.reference_price is None else repr(r.reference_price),
            )
            for r in rows
        ),
        meta,
    )

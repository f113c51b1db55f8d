"""Weekly feature construction for the spread regressions.

Each row pairs a bond-week response (mean bp spread) with trade-derived
features, bond reference data and market context. The default design has 26
covariates: 15 numeric features, the two grade indicators and the nine
sector indicators. Zero-trade-day counts are computed and emitted but sit
outside the default design.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, make_dataclass
from typing import Mapping, Sequence

import numpy as np

from .calendars import BusinessCalendar, IsoWeek
from .errors import DataError, NumericalError
from .ingest import CUSTOMER_BUY, CUSTOMER_SELL, LEGS, TradeTable

DAYS_PER_YEAR = 365.25
SECTORS = ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9")
GRADES = ("IG", "HY")
GRADE_INDICATORS = ("ind_hy", "ind_ig")
SECTOR_INDICATORS = tuple(f"sector_{s.lower()}" for s in SECTORS)

DESIGN_FEATURES: tuple[str, ...] = (
    "volatility",
    "n_trading_days",
    "prop_n_buy",
    "prop_n_sell",
    "prop_vol_buy",
    "prop_vol_sell",
    "trading_activity",
    "log_total_volume",
    "avg_price",
    "coupon",
    "duration",
    "years_to_maturity",
    "years_since_issuance",
    "turnover",
    "libor_ois",
    *GRADE_INDICATORS,
    *SECTOR_INDICATORS,
)
# the named values of a feature row, in features.csv column order
FEATURE_NAMES = (*DESIGN_FEATURES, "log_zero_trade_days")


def _add_months(day: dt.date, months: int) -> dt.date:
    month = day.month - 1 + months
    year = day.year + month // 12
    month = month % 12 + 1
    # clamp to end of month
    last = [31, 29 if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0) else 28,
            31, 30, 31, 30, 31, 31, 30, 31, 30, 31][month - 1]
    return dt.date(year, month, min(day.day, last))


@dataclass(frozen=True)
class BondReference:
    cusip: str
    coupon_rate: float  # percent per annum
    issue_date: dt.date
    maturity_date: dt.date
    amount_outstanding: float
    grade: str  # "IG" | "HY"
    sector: str  # "S1".."S9"
    frequency: int = 2  # coupons per year; 0 for zero-coupon

    def __post_init__(self) -> None:
        if self.issue_date >= self.maturity_date:
            raise DataError(f"{self.cusip}: issue date not before maturity")
        if self.amount_outstanding <= 0:
            raise DataError(f"{self.cusip}: non-positive amount outstanding")
        if self.grade not in GRADES:
            raise DataError(f"{self.cusip}: unknown grade {self.grade!r}")
        if self.sector not in SECTORS:
            raise DataError(f"{self.cusip}: unknown sector {self.sector!r}")

    def cashflow_schedule(self) -> list[tuple[dt.date, float]]:
        """Coupon and principal flows per 100 face, derived from the terms."""
        flows: list[tuple[dt.date, float]] = []
        if self.coupon_rate > 0 and self.frequency > 0:
            step = 12 // self.frequency
            coupon = self.coupon_rate / self.frequency
            day = self.maturity_date
            dates = []
            while day > self.issue_date:
                dates.append(day)
                day = _add_months(day, -step)
            flows = [(d, coupon) for d in sorted(dates)]
        flows.append((self.maturity_date, 100.0))
        return flows


@dataclass(frozen=True)
class MarketContext:
    week: IsoWeek
    libor_ois: float


def weekly_volatility(prices: Sequence[float]) -> float | None:
    """Dispersion of log returns across the week's trades, scaled by 100.

    Needs at least two returns (three prices); otherwise the feature is
    undefined and the bond-week is dropped from the regression set.
    """
    if len(prices) < 3:
        return None
    r = np.diff(np.log(np.asarray(prices, dtype=float)))
    return float(np.sqrt(np.mean((r - r.mean()) ** 2)) * 100.0)


def _present_value(flows: Sequence[tuple[float, float]], y: float) -> float:
    return sum(amount * (1.0 + y) ** (-t) for t, amount in flows)


def duration(
    bond: BondReference,
    clean_price: float,
    as_of: dt.date,
    y_lo: float = -0.5,
    y_hi: float = 2.0,
    tol: float = 1e-8,
) -> float:
    """Macaulay duration in years at the yield implied by the price.

    The yield solves sum of discounted cashflows = price by bisection on
    [y_lo, y_hi] to ``tol`` on price.
    """
    if as_of >= bond.maturity_date:
        raise DataError(f"{bond.cusip}: as_of on or after maturity")
    if clean_price <= 0:
        raise DataError(f"{bond.cusip}: non-positive price")
    flows = [
        ((d - as_of).days / DAYS_PER_YEAR, amount)
        for d, amount in bond.cashflow_schedule()
        if d > as_of
    ]
    lo, hi = y_lo, y_hi
    f_lo = _present_value(flows, lo) - clean_price
    f_hi = _present_value(flows, hi) - clean_price
    if f_lo < 0 or f_hi > 0:
        raise NumericalError(
            f"{bond.cusip}: no yield in [{y_lo}, {y_hi}] reprices to {clean_price}"
        )
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        f_mid = _present_value(flows, mid) - clean_price
        if abs(f_mid) < tol:
            lo = hi = mid
            break
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    pv = [(t, amount * (1.0 + y) ** (-t)) for t, amount in flows]
    total = sum(v for _, v in pv)
    return sum(t * v for t, v in pv) / total


def _check_indicators(row) -> None:
    for kind, group in (("grade", GRADE_INDICATORS), ("sector", SECTOR_INDICATORS)):
        if sorted(getattr(row, name) for name in group) != [0.0] * (len(group) - 1) + [1.0]:
            raise DataError(f"feature row for {row.cusip} has no single {kind} indicator set")


FeatureRow = make_dataclass(
    "FeatureRow",
    [("cusip", str), ("week", IsoWeek), ("mean_s_bp", float), *((n, float) for n in FEATURE_NAMES)],
    namespace={
        "__doc__": "One bond-week: the response mean_s_bp and the FEATURE_NAMES values.",
        "__post_init__": _check_indicators,
    },
    slots=True,
)


def build_feature_matrix(
    weekly: Sequence,  # WeeklySpread
    trades: TradeTable,
    references: Mapping[str, BondReference],
    context: Mapping[IsoWeek, float],
    calendar: BusinessCalendar,
) -> list[FeatureRow]:
    """One feature row per bond-week with a spread response.

    Bond-weeks with fewer than two returns (undefined volatility) are
    dropped. Missing reference data or market context is an error.
    """
    days = trades.timestamp.astype("datetime64[D]")
    day_numbers = days.view(np.int64)
    mondays = day_numbers - (day_numbers + 3) % 7  # day 0, 1970-01-01, is a Thursday
    order, bounds = trades.groups(mondays)
    codes, mondays = trades.codes[order].tolist(), mondays[order].tolist()
    epoch = dt.date(1970, 1, 1)
    week_of = {m: IsoWeek.of(epoch + dt.timedelta(days=m)) for m in set(mondays)}
    by_bond_week = {  # each bond-week's rows, in table order
        (trades.cusips[codes[start]], week_of[mondays[start]]): order[start:end]
        for start, end in zip(bounds, bounds[1:])
    }
    buy, sell = LEGS.index(CUSTOMER_BUY), LEGS.index(CUSTOMER_SELL)

    rows: list[FeatureRow] = []
    for ws in weekly:
        ref = references.get(ws.cusip)
        if ref is None:
            raise DataError(f"missing bond reference for cusip {ws.cusip}")
        if ws.week not in context:
            raise DataError(f"missing market context (libor_ois) for week {ws.week.label}")
        bucket = by_bond_week.get((ws.cusip, ws.week))
        if bucket is None:
            continue
        prices = trades.price[bucket].tolist()

        vol = weekly_volatility(prices)
        if vol is None:
            continue

        volumes = trades.volume[bucket].tolist()
        legs = trades.leg[bucket].tolist()
        n_trades = len(prices)
        total_volume = sum(volumes)
        trade_days = set(days[bucket].tolist())
        zero_days = max(0, calendar.business_days_in_week(ws.week) - len(trade_days))

        n_buy = legs.count(buy)
        n_sell = legs.count(sell)
        v_buy = sum(v for v, leg in zip(volumes, legs) if leg == buy)
        v_sell = sum(v for v, leg in zip(volumes, legs) if leg == sell)
        n_cust = n_buy + n_sell
        v_cust = v_buy + v_sell

        avg_price = sum(prices) / n_trades
        as_of = max(trade_days)

        rows.append(
            FeatureRow(
                cusip=ws.cusip,
                week=ws.week,
                mean_s_bp=ws.mean_s_bp,
                volatility=vol,
                n_trading_days=float(len(trade_days)),
                prop_n_buy=n_buy / n_cust if n_cust else 0.0,
                prop_n_sell=n_sell / n_cust if n_cust else 0.0,
                prop_vol_buy=v_buy / v_cust if v_cust else 0.0,
                prop_vol_sell=v_sell / v_cust if v_cust else 0.0,
                trading_activity=math.log10(n_trades),
                log_total_volume=math.log10(total_volume),
                avg_price=avg_price,
                coupon=ref.coupon_rate,
                duration=duration(ref, avg_price, as_of),
                years_to_maturity=(ref.maturity_date - as_of).days / DAYS_PER_YEAR,
                years_since_issuance=(as_of - ref.issue_date).days / DAYS_PER_YEAR,
                turnover=total_volume / ref.amount_outstanding,
                libor_ois=context[ws.week],
                ind_hy=float(ref.grade == "HY"),
                ind_ig=float(ref.grade == "IG"),
                **{name: float(ref.sector == s) for name, s in zip(SECTOR_INDICATORS, SECTORS)},
                log_zero_trade_days=math.log10(1 + zero_days),
            )
        )
    return rows


def design_matrix(
    rows: Sequence[FeatureRow], feature_names: Sequence[str] = DESIGN_FEATURES
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Response vector and covariate matrix in a fixed column order."""
    unknown = [name for name in feature_names if name not in FEATURE_NAMES]
    if unknown:
        raise DataError(f"unknown feature {unknown[0]!r}")
    y = np.array([r.mean_s_bp for r in rows], dtype=float)
    x = np.array([[getattr(r, name) for name in feature_names] for r in rows], dtype=float)
    return y, x, tuple(feature_names)

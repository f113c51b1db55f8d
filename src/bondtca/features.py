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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .calendars import BusinessCalendar, IsoWeek
from .classify import SignedTrade
from .errors import DataError, NumericalError
from .ingest import CUSTOMER_BUY, CUSTOMER_SELL

DAYS_PER_YEAR = 365.25
SECTORS = ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9")
GRADES = ("IG", "HY")

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
    "ind_hy",
    "ind_ig",
    *(f"sector_{s.lower()}" for s in SECTORS),
)


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


@dataclass(slots=True)
class FeatureRow:
    cusip: str
    week: IsoWeek
    mean_s_bp: float  # response
    volatility: float
    n_trading_days: int
    log_zero_trade_days: float
    prop_n_buy: float
    prop_n_sell: float
    prop_vol_buy: float
    prop_vol_sell: float
    trading_activity: float
    log_total_volume: float
    avg_price: float
    coupon: float
    duration: float
    years_to_maturity: float
    years_since_issuance: float
    turnover: float
    libor_ois: float
    grade: str
    sector: str

    def as_mapping(self) -> dict[str, float]:
        m = {
            "volatility": self.volatility,
            "n_trading_days": float(self.n_trading_days),
            "log_zero_trade_days": self.log_zero_trade_days,
            "prop_n_buy": self.prop_n_buy,
            "prop_n_sell": self.prop_n_sell,
            "prop_vol_buy": self.prop_vol_buy,
            "prop_vol_sell": self.prop_vol_sell,
            "trading_activity": self.trading_activity,
            "log_total_volume": self.log_total_volume,
            "avg_price": self.avg_price,
            "coupon": self.coupon,
            "duration": self.duration,
            "years_to_maturity": self.years_to_maturity,
            "years_since_issuance": self.years_since_issuance,
            "turnover": self.turnover,
            "libor_ois": self.libor_ois,
            "ind_hy": 1.0 if self.grade == "HY" else 0.0,
            "ind_ig": 1.0 if self.grade == "IG" else 0.0,
        }
        for s in SECTORS:
            m[f"sector_{s.lower()}"] = 1.0 if self.sector == s else 0.0
        return m


def build_feature_matrix(
    weekly: Sequence,  # WeeklySpread
    trades: Iterable[SignedTrade],
    references: Mapping[str, BondReference],
    context: Mapping[IsoWeek, float],
    calendar: BusinessCalendar,
) -> list[FeatureRow]:
    """One feature row per bond-week with a spread response.

    Bond-weeks with fewer than two returns (undefined volatility) are
    dropped. Missing reference data or market context is an error.
    """
    by_bond_week: dict[tuple[str, IsoWeek], list[SignedTrade]] = {}
    for t in trades:
        key = (t.cusip, IsoWeek.of(t.timestamp.date()))
        by_bond_week.setdefault(key, []).append(t)

    rows: list[FeatureRow] = []
    for ws in weekly:
        ref = references.get(ws.cusip)
        if ref is None:
            raise DataError(f"missing bond reference for cusip {ws.cusip}")
        if ws.week not in context:
            raise DataError(f"missing market context (libor_ois) for week {ws.week.label}")
        bucket = by_bond_week.get((ws.cusip, ws.week), [])
        if not bucket:
            continue

        vol = weekly_volatility([t.price for t in bucket])
        if vol is None:
            continue

        n_trades = len(bucket)
        total_volume = sum(t.volume for t in bucket)
        trade_days = {t.timestamp.date() for t in bucket}
        zero_days = max(0, calendar.business_days_in_week(ws.week) - len(trade_days))

        n_buy = sum(1 for t in bucket if t.leg == CUSTOMER_BUY)
        n_sell = sum(1 for t in bucket if t.leg == CUSTOMER_SELL)
        v_buy = sum(t.volume for t in bucket if t.leg == CUSTOMER_BUY)
        v_sell = sum(t.volume for t in bucket if t.leg == CUSTOMER_SELL)
        n_cust = n_buy + n_sell
        v_cust = v_buy + v_sell

        avg_price = sum(t.price for t in bucket) / n_trades
        as_of = max(t.timestamp for t in bucket).date()

        rows.append(
            FeatureRow(
                cusip=ws.cusip,
                week=ws.week,
                mean_s_bp=ws.mean_s_bp,
                volatility=vol,
                n_trading_days=len(trade_days),
                log_zero_trade_days=math.log10(1 + zero_days),
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
                grade=ref.grade,
                sector=ref.sector,
            )
        )
    return rows


def design_matrix(
    rows: Sequence[FeatureRow], feature_names: Sequence[str] = DESIGN_FEATURES
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Response vector and covariate matrix in a fixed column order."""
    y = np.array([r.mean_s_bp for r in rows], dtype=float)
    maps = [r.as_mapping() for r in rows]
    try:
        x = np.array([[m[name] for name in feature_names] for m in maps], dtype=float)
    except KeyError as exc:
        raise DataError(f"unknown feature {exc.args[0]!r}") from exc
    return y, x, tuple(feature_names)

"""Spread and mid-price estimation from signed trades.

A vanilla spread observation comes from two consecutive opposite-sign
trades of one bond executed close together in time. Two mid-price
conventions are supported because the source convention places the
reconstructed mid outside [bid, ask] in the canonical sell-then-buy case:

* ``paper``:     M = P_k - eps_{k+1} * psi / 2   (as printed)
* ``corrected``: M = P_k + eps_{k+1} * psi / 2   (mid between bid and ask)
"""

from __future__ import annotations

import datetime as dt
import logging
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping

import numpy as np

from .calendars import IsoWeek
from .errors import ConfigError
from .ingest import CUSTOMER_BUY, DEALER_DEALER, LEGS, TradeTable, group_by_cusip

log = logging.getLogger(__name__)

DEFAULT_DELTA_T = 300.0  # seconds
MID_CONVENTIONS = ("paper", "corrected")


@dataclass(slots=True)
class SpreadObservation:
    cusip: str
    k: int  # index of the later trade of the pair
    timestamp: dt.datetime
    psi: float  # price units
    mid: float
    s_bp: float  # basis points


@dataclass(slots=True)
class WeeklySpread:
    cusip: str
    week: IsoWeek
    mean_s_bp: float
    n_obs: int


@dataclass(slots=True)
class OneSidedSpread:
    cusip: str
    day: dt.date
    spread_buy: float | None  # fraction, volume-weighted over customer buys
    spread_sell: float | None
    reference_price: float | None


def estimate_spreads(
    trades: TradeTable,
    delta_t: float = DEFAULT_DELTA_T,
    mid_convention: str = "paper",
    dropped: Counter[str] | None = None,
) -> list[SpreadObservation]:
    """Vanilla spread, mid and bp spread from opposite-sign adjacent pairs.

    ``trades`` must be one bond in chronological order. Pairs with a
    non-positive reconstructed mid are dropped and counted in ``dropped``
    by cusip; without it, one warning for the call says how many.
    """
    if mid_convention not in MID_CONVENTIONS:
        raise ConfigError(f"mid_convention must be one of {MID_CONVENTIONS}")
    sign = -1.0 if mid_convention == "paper" else 1.0
    eps = trades.epsilon
    # the later trade b of each pair (b - 1, b): opposite signs, less than delta_t apart
    later = 1 + np.flatnonzero(
        (eps[:-1] != 0)
        & (eps[1:] == -eps[:-1])
        & (np.abs(np.diff(trades.timestamp.view(np.int64))) < delta_t)
    )
    out: list[SpreadObservation] = []
    counts = Counter() if dropped is None else dropped
    for price_a, price_b, eps_b, k, stamp in zip(
        trades.price[later - 1].tolist(),
        trades.price[later].tolist(),
        eps[later].tolist(),
        trades.k[later].tolist(),
        trades.timestamp[later].tolist(),
    ):
        psi = (price_b - price_a) * eps_b
        mid = price_a + sign * eps_b * psi / 2.0
        cusip = trades.cusips[0]  # one bond
        if mid <= 0:
            counts[cusip] += 1
            continue
        out.append(
            SpreadObservation(
                cusip=cusip,
                k=k,
                timestamp=stamp,
                psi=psi,
                mid=mid,
                s_bp=psi / mid * 1e4,
            )
        )
    if dropped is None:
        log_degenerate_mids(counts)
    return out


def log_degenerate_mids(dropped: Mapping[str, int]) -> None:
    """One warning for every pair ``estimate_spreads`` dropped, if any."""
    if dropped:
        total = sum(dropped.values())
        log.warning("%d degenerate mids in %d bonds; observations dropped", total, len(dropped))


def used_trades(observations: Iterable[SpreadObservation]) -> int:
    """Number of one bond's trades that take part in any spread pair."""
    return len({k for o in observations for k in (o.k - 1, o.k)})


def aggregate_weekly(obs: Iterable[SpreadObservation]) -> list[WeeklySpread]:
    """Unweighted mean bp spread per (bond, ISO week)."""
    sums: dict[tuple[str, IsoWeek], tuple[float, int]] = {}
    for o in obs:
        key = (o.cusip, IsoWeek.of(o.timestamp.date()))
        total, count = sums.get(key, (0.0, 0))
        sums[key] = (total + o.s_bp, count + 1)
    return [
        WeeklySpread(cusip=c, week=w, mean_s_bp=total / count, n_obs=count)
        for (c, w), (total, count) in sorted(sums.items())
    ]


def one_sided_spreads_by_day(
    trades: TradeTable,
    min_volume: float = 100_000.0,
    exclusion_minutes: float = 15.0,
) -> list[OneSidedSpread]:
    """Bond-day one-sided spreads against an inter-dealer VWAP reference.

    Dealer-dealer trades with volume strictly above ``min_volume`` qualify.
    Each customer trade is marked against the VWAP of the day's qualifying
    trades more than ``exclusion_minutes`` away from it (a dealer trade
    exactly that far away is excluded), and is skipped when there are none.
    The bond-day figure is the volume-weighted average of the trade-level
    spreads. Customer trades are visited in input order and
    ``reference_price`` is the reference of the day's last marked trade, not
    a bond-day VWAP. A day with no marked trade gives no row.

    The day's qualifying trades are sorted by time (stably) and summed once
    into running totals of price x volume and of volume; a customer trade's
    reference is the day total minus the in-window slice found by bisection,
    so a bond-day costs O((c + d) log d) for c customer and d dealer trades.
    """
    window = dt.timedelta(minutes=exclusion_minutes)
    dealer, buy = LEGS.index(DEALER_DEALER), LEGS.index(CUSTOMER_BUY)
    out: list[OneSidedSpread] = []
    for cusip, bond in group_by_cusip(trades).items():  # one bond's lists at a time
        days = bond.timestamp.astype("datetime64[D]")
        order, bounds = bond.groups(days)
        days, stamps = days[order].tolist(), bond.timestamp[order].tolist()
        price, volume = bond.price[order].tolist(), bond.volume[order].tolist()
        leg = bond.leg[order].tolist()
        for start, end in zip(bounds, bounds[1:]):
            dealers = sorted(
                (i for i in range(start, end) if leg[i] == dealer and volume[i] > min_volume),
                key=stamps.__getitem__,
            )
            if not dealers:
                continue
            times = [stamps[d] for d in dealers]
            pv_sum = list(accumulate((price[d] * volume[d] for d in dealers), initial=0.0))
            v_sum = list(accumulate((volume[d] for d in dealers), initial=0.0))
            n = len(dealers)
            buy_pv = buy_v = sell_pv = sell_v = 0.0
            ref_any = None
            for i in range(start, end):
                if leg[i] == dealer:
                    continue
                lo = bisect_left(times, stamps[i] - window)
                hi = bisect_right(times, stamps[i] + window)
                if lo == 0 and hi == n:
                    continue  # every qualifying trade is inside the window
                pv = pv_sum[lo] + (pv_sum[n] - pv_sum[hi])
                v = v_sum[lo] + (v_sum[n] - v_sum[hi])
                ref = pv / v
                ref_any = ref
                if leg[i] == buy:
                    buy_pv += (price[i] - ref) / ref * volume[i]
                    buy_v += volume[i]
                else:
                    sell_pv += (ref - price[i]) / ref * volume[i]
                    sell_v += volume[i]
            if ref_any is None:
                continue
            out.append(
                OneSidedSpread(
                    cusip=cusip,
                    day=days[start],
                    spread_buy=buy_pv / buy_v if buy_v > 0 else None,
                    spread_sell=sell_pv / sell_v if sell_v > 0 else None,
                    reference_price=ref_any,
                )
            )
    return out

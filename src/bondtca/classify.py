"""Trade-sign assignment and riskless-principal-trade (RPT) detection.

RPT candidates are found inside size runs: maximal stretches of adjacent
equal-volume trades within a bond's chronological tape. Adjacent pairs in a
run qualify when one side is a dealer trade, or when both are customer
trades and the dealer both buys and sells across the pair. Pairing is
greedy left-to-right without overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ingest import CUSTOMER_BUY, CUSTOMER_SELL, DEALER_DEALER, CleanTrade, group_by_cusip


@dataclass(slots=True)
class SizeRun:
    cusip: str
    start: int  # first trade index (per-bond k)
    stop: int  # one past the last trade index
    volume: float


@dataclass(slots=True)
class SignedTrade:
    cusip: str
    k: int
    timestamp: object  # datetime
    price: float
    volume: float
    leg: str
    epsilon: int  # +1 buy, -1 sell, 0 undeterminable
    is_rpt: bool


def find_size_runs(trades: Sequence[CleanTrade]) -> list[SizeRun]:
    """Maximal runs of >= 2 consecutive equal-volume trades of one bond."""
    runs: list[SizeRun] = []
    i, n = 0, len(trades)
    while i < n:
        j = i + 1
        while j < n and trades[j].volume == trades[i].volume:
            j += 1
        if j - i >= 2:
            runs.append(SizeRun(trades[i].cusip, i, j, trades[i].volume))
        i = j
    return runs


def _pair_qualifies(leg_a: str, leg_b: str) -> bool:
    legs = {leg_a, leg_b}
    if DEALER_DEALER in legs and legs != {DEALER_DEALER}:
        return True  # one customer trade crossed with a dealer trade
    # Both customer trades: the dealer must both buy and sell across the pair.
    return legs == {CUSTOMER_BUY, CUSTOMER_SELL}


def mark_rpts(run: SizeRun, legs: Sequence[str]) -> list[tuple[int, int]]:
    """Greedy non-overlapping qualifying pairs inside one size run.

    ``legs`` is indexed by the bond's trade index k (the run's coordinates).
    """
    pairs: list[tuple[int, int]] = []
    i = run.start
    while i + 1 < run.stop:
        if _pair_qualifies(legs[i], legs[i + 1]):
            pairs.append((i, i + 1))
            i += 2
        else:
            i += 1
    return pairs


def assign_signs(trades: Sequence[CleanTrade], rpt_flags: Sequence[bool]) -> list[SignedTrade]:
    """Attach the initiator sign: +1 customer buy, -1 customer sell, 0 otherwise."""
    out = []
    for t, is_rpt in zip(trades, rpt_flags):
        if is_rpt or t.leg == DEALER_DEALER:
            eps = 0
        elif t.leg == CUSTOMER_BUY:
            eps = 1
        else:
            eps = -1
        out.append(
            SignedTrade(t.cusip, t.k, t.timestamp, t.price, t.volume, t.leg, eps, is_rpt)
        )
    return out


def classify_bond(trades: Sequence[CleanTrade]) -> list[SignedTrade]:
    """Full per-bond classification: size runs -> RPT pairs -> signs."""
    legs = [t.leg for t in trades]
    flags = [False] * len(trades)
    for run in find_size_runs(trades):
        for a, b in mark_rpts(run, legs):
            flags[a] = True
            flags[b] = True
    return assign_signs(trades, flags)


def classify_trades(trades: Iterable[CleanTrade]) -> list[SignedTrade]:
    """Classify a whole tape; bonds are independent."""
    grouped = group_by_cusip(trades)
    out: list[SignedTrade] = []
    for cusip in sorted(grouped):
        out.extend(classify_bond(grouped[cusip]))
    return out

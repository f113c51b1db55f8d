"""Trade-sign assignment and riskless-principal-trade (RPT) detection.

RPT candidates are adjacent equal-volume trades within a bond's
chronological tape. A pair qualifies when one side is a dealer trade, or
when both are customer trades and the dealer both buys and sells across the
pair: with three legs, exactly when the two legs differ. Pairing is greedy
left-to-right without overlap.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .ingest import CUSTOMER_BUY, CUSTOMER_SELL, DEALER_DEALER, Trade, group_by_cusip

SIGN_OF_LEG = {CUSTOMER_BUY: 1, CUSTOMER_SELL: -1, DEALER_DEALER: 0}


def classify_bond(trades: Sequence[Trade]) -> Sequence[Trade]:
    """Flag the RPT legs of one bond's chronological trades and sign them, in
    place: +1 customer buy, -1 customer sell, 0 for dealer trades and RPT legs.

    Returns ``trades``.
    """
    prev = None
    for t in trades:
        # prev.is_rpt, set on the step before, means prev already closes a pair
        t.is_rpt = (
            prev is not None
            and not prev.is_rpt
            and t.volume == prev.volume
            and t.leg != prev.leg
        )
        if t.is_rpt:
            prev.is_rpt, prev.epsilon = True, 0
        t.epsilon = 0 if t.is_rpt else SIGN_OF_LEG[t.leg]
        prev = t
    return trades


def classify_trades(trades: Iterable[Trade]) -> list[Trade]:
    """Classify a whole tape, in place; bonds are independent."""
    grouped = group_by_cusip(trades)
    out: list[Trade] = []
    for cusip in sorted(grouped):
        out.extend(classify_bond(grouped[cusip]))
    return out

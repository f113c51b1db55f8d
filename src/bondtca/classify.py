"""Trade-sign assignment and riskless-principal-trade (RPT) detection.

RPT candidates are adjacent equal-volume trades within a bond's
chronological tape. A pair qualifies when one side is a dealer trade, or
when both are customer trades and the dealer both buys and sells across the
pair: with three legs, exactly when the two legs differ. Pairing is greedy
left-to-right without overlap.
"""

from __future__ import annotations

import numpy as np

from .ingest import CUSTOMER_BUY, CUSTOMER_SELL, DEALER_DEALER, LEGS, TradeTable, group_by_cusip

SIGN_OF_LEG = {CUSTOMER_BUY: 1, CUSTOMER_SELL: -1, DEALER_DEALER: 0}
_SIGN_OF_CODE = np.array([SIGN_OF_LEG[leg] for leg in LEGS], np.int8)


def classify_bond(trades: TradeTable) -> TradeTable:
    """Flag the RPT legs of one bond's chronological trades and sign them, in
    place: +1 customer buy, -1 customer sell, 0 for dealer trades and RPT legs.

    Returns ``trades``.
    """
    volume, leg = trades.volume, trades.leg
    # trade i may close a pair with trade i - 1: the same volume, another leg
    candidates = np.flatnonzero((volume[1:] == volume[:-1]) & (leg[1:] != leg[:-1])) + 1
    closers: list[int] = []
    for i in candidates.tolist():  # greedy, left to right
        if not closers or closers[-1] != i - 1:  # trade i - 1 closes no pair itself
            closers.append(i)
    closing = np.array(closers, dtype=np.intp)
    trades.is_rpt[:] = False
    trades.is_rpt[closing] = trades.is_rpt[closing - 1] = True
    trades.epsilon[:] = np.where(trades.is_rpt, 0, _SIGN_OF_CODE[leg])
    return trades


def classify_trades(trades: TradeTable) -> TradeTable:
    """Classify a whole tape, in place; bonds are independent.

    Returns ``trades``.
    """
    for bond in group_by_cusip(trades).values():
        classify_bond(bond)
    return trades

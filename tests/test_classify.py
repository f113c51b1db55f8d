import pytest
from hypothesis import given, settings, strategies as st

from bondtca.calendars import BusinessCalendar
from bondtca.classify import classify_bond, classify_trades
from bondtca.ingest import TradeTable, ingest_reports
from bondtca.synthgen import SynthConfig, generate_trace_fixture

from conftest import make_trade

BUY_SELL = ["customer_buy", "customer_sell"]


def trades_with(volumes, legs=None):
    legs = legs or ["customer_buy"] * len(volumes)
    return TradeTable.from_rows(
        make_trade(k=i, volume=v, leg=leg) for i, (v, leg) in enumerate(zip(volumes, legs))
    )


def rpt_pairs(volumes, legs):
    """The RPT pairs classify_bond marks, as (k, k + 1); pairs never overlap,
    so each flagged trade met from the left opens one."""
    trades = classify_bond(trades_with(volumes, legs))
    pairs, i = [], 0
    while i < len(trades):
        if trades[i].is_rpt:
            pairs.append((i, i + 1))
            i += 2
        else:
            i += 1
    return pairs


class TestSizeRuns:
    """Pairs form only inside stretches of equal volume. Legs alternate buy and
    sell, so every adjacent pair of equal volume qualifies."""

    def alternating(self, volumes):
        return rpt_pairs(volumes, [BUY_SELL[i % 2] for i in range(len(volumes))])

    def test_all_equal(self):
        assert self.alternating([50, 50, 50]) == [(0, 1)]

    def test_inner_run(self):
        assert self.alternating([50, 60, 60, 50]) == [(1, 2)]

    def test_all_distinct(self):
        assert self.alternating([50, 60, 70]) == []

    def test_two_disjoint_runs(self):
        assert self.alternating([10, 10, 20, 30, 30, 30]) == [(0, 1), (3, 4)]


class TestMarkRpts:
    """Greedy non-overlapping qualifying pairs among trades of one volume."""

    def test_customer_dealer_pair_greedy(self):
        legs = ["customer_sell", "dealer_dealer", "customer_buy"]
        assert rpt_pairs([50.0] * 3, legs) == [(0, 1)]

    def test_two_buys_not_rpt(self):
        assert rpt_pairs([50.0] * 2, ["customer_buy", "customer_buy"]) == []

    def test_non_overlapping_pairs(self):
        legs = ["customer_buy", "customer_sell", "dealer_dealer", "customer_buy"]
        assert rpt_pairs([50.0] * 4, legs) == [(0, 1), (2, 3)]

    def test_two_dealer_trades_not_rpt(self):
        assert rpt_pairs([50.0] * 2, ["dealer_dealer", "dealer_dealer"]) == []

    def test_buy_sell_pair_is_rpt(self):
        assert rpt_pairs([50.0] * 2, ["customer_buy", "customer_sell"]) == [(0, 1)]


class TestAssignSigns:
    """Each case starts from a trade whose sign and flag are wrong."""

    def test_buy_is_plus_one(self):
        [t] = classify_bond(
            TradeTable.from_rows([make_trade(leg="customer_buy", epsilon=0, is_rpt=True)])
        )
        assert t.epsilon == 1 and not t.is_rpt

    def test_rpt_sell_is_zero(self):
        buy = make_trade(k=0, leg="customer_buy")
        sell = make_trade(k=1, leg="customer_sell", epsilon=-1, is_rpt=False)
        _, sell = classify_bond(TradeTable.from_rows([buy, sell]))
        assert sell.epsilon == 0 and sell.is_rpt

    def test_dealer_dealer_is_zero(self):
        [t] = classify_bond(TradeTable.from_rows([make_trade(leg="dealer_dealer", epsilon=1)]))
        assert t.epsilon == 0

    def test_sign_never_contradicts_leg(self):
        trades = trades_with(
            [10, 10, 20, 20],
            ["customer_buy", "customer_sell", "customer_sell", "dealer_dealer"],
        )
        for t in classify_bond(trades):
            if t.epsilon == 1:
                assert t.leg == "customer_buy"
            if t.epsilon == -1:
                assert t.leg == "customer_sell"


def brute_force_rpt_flags(volumes, legs):
    """Independent re-derivation: scan every adjacent pair left to right."""
    n = len(volumes)
    flags = [False] * n
    i = 0
    while i + 1 < n:
        if flags[i]:
            i += 1
            continue
        a, b = i, i + 1
        same_size = volumes[a] == volumes[b]
        # the pair must sit inside a >= 2 run, which adjacency plus equality gives
        la, lb = legs[a], legs[b]
        customer = {"customer_buy", "customer_sell"}
        rule_a = (la in customer) != (lb in customer)  # exactly one dealer leg
        rule_b = {la, lb} == customer
        if same_size and not flags[b] and (rule_a or rule_b):
            flags[a] = flags[b] = True
            i += 2
        else:
            i += 1
    return flags


LEGS = ["customer_buy", "customer_sell", "dealer_dealer"]


@given(
    data=st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from(LEGS)), min_size=0, max_size=12
    )
)
@settings(max_examples=300)
def test_classify_matches_brute_force(data):
    volumes = [float(v) for v, _ in data]
    legs = [leg for _, leg in data]
    trades = trades_with(volumes, legs)
    flags = [t.is_rpt for t in classify_bond(trades)]
    assert flags == brute_force_rpt_flags(volumes, legs)


@given(
    data=st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from(LEGS), st.booleans()), max_size=12
    )
)
@settings(max_examples=200)
def test_classifying_twice_gives_the_same_result(data):
    """classify_bond overwrites every flag and sign, so stale ones do not leak."""
    trades = TradeTable.from_rows(
        make_trade(k=i, volume=float(v), leg=leg, epsilon=int(stale), is_rpt=stale)
        for i, (v, leg, stale) in enumerate(data)
    )
    once = [(t.is_rpt, t.epsilon) for t in classify_bond(trades)]
    twice = [(t.is_rpt, t.epsilon) for t in classify_bond(trades)]
    fresh = trades_with([float(v) for v, _, _ in data], [leg for _, leg, _ in data])
    assert once == twice == [(t.is_rpt, t.epsilon) for t in classify_bond(fresh)]


def test_planted_rpt_recovery(parse_tape):
    cfg = SynthConfig(seed=9, n_events=4000, rpt_fraction=0.25)
    tape, manifest = generate_trace_fixture(cfg, BusinessCalendar())
    clean, _ = ingest_reports(parse_tape(tape), BusinessCalendar())
    signed = classify_trades(clean)
    flagged = {
        (t.cusip, t.timestamp.isoformat(sep=" ")) for t in signed if t.is_rpt
    }
    planted = [p for p in manifest.planted_rpts if not p.ambiguous]
    assert planted, "fixture must plant unambiguous pairs"
    hits = sum(
        1
        for p in planted
        if (p.cusip, p.base_timestamp) in flagged and (p.cusip, p.partner_timestamp) in flagged
    )
    assert hits / len(planted) >= 0.99
    # realized fraction is close to the planted rate
    n_pairs = len(manifest.planted_rpts)
    assert n_pairs == pytest.approx(0.25 * cfg.n_events, rel=0.15)


def test_rpt_fraction_close_to_manifest(parse_tape):
    cfg = SynthConfig(seed=10, n_events=3000, rpt_fraction=0.10)
    tape, manifest = generate_trace_fixture(cfg, BusinessCalendar())
    clean, _ = ingest_reports(parse_tape(tape), BusinessCalendar())
    signed = classify_trades(clean)
    n_rpt_trades = sum(1 for t in signed if t.is_rpt)
    planted_trades = 2 * len(manifest.planted_rpts)
    # greedy pairing may add chance pairs from random equal volumes, never lose
    # more than the ambiguous ones
    ambiguous = sum(1 for p in manifest.planted_rpts if p.ambiguous)
    assert n_rpt_trades >= planted_trades - 2 * ambiguous
    assert n_rpt_trades <= planted_trades + 0.02 * len(signed) + 2 * ambiguous

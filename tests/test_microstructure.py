import datetime as dt
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from bondtca.calendars import IsoWeek
from bondtca.errors import ConfigError
from bondtca.ingest import TradeTable
from bondtca.microstructure import (
    OneSidedSpread,
    aggregate_weekly,
    estimate_spreads,
    one_sided_spreads_by_day,
    used_trades,
)

from conftest import make_trade, ts


def pair(p0, p1, leg0, leg1, gap=120.0):
    return TradeTable.from_rows(
        [
            make_trade(k=0, price=p0, leg=leg0, timestamp=ts(0)),
            make_trade(k=1, price=p1, leg=leg1, timestamp=ts(gap)),
        ]
    )


class TestEstimateSpreads:
    def test_sell_then_buy(self):
        obs = estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy"))
        assert len(obs) == 1
        o = obs[0]
        assert o.psi == pytest.approx(1.0)
        assert o.mid == pytest.approx(99.5)
        assert o.s_bp == pytest.approx(100.50251256281408)

    def test_zero_spread(self):
        obs = estimate_spreads(pair(100.0, 100.0, "customer_sell", "customer_buy"))
        assert obs[0].psi == 0.0
        assert obs[0].s_bp == 0.0

    def test_buy_then_sell(self):
        obs = estimate_spreads(pair(101.0, 100.0, "customer_buy", "customer_sell"))
        o = obs[0]
        assert o.psi == pytest.approx(1.0)
        assert o.mid == pytest.approx(101.5)
        assert o.s_bp == pytest.approx(98.52216748768473)

    def test_corrected_convention_mid_between(self):
        obs = estimate_spreads(
            pair(100.0, 101.0, "customer_sell", "customer_buy"), mid_convention="corrected"
        )
        assert obs[0].mid == pytest.approx(100.5)
        obs2 = estimate_spreads(
            pair(101.0, 100.0, "customer_buy", "customer_sell"), mid_convention="corrected"
        )
        assert obs2[0].mid == pytest.approx(100.5)

    def test_unknown_mid_convention_is_config_error(self):
        with pytest.raises(ConfigError):
            estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy"), mid_convention="x")

    def test_same_sign_pair_skipped(self):
        assert estimate_spreads(pair(100.0, 101.0, "customer_buy", "customer_buy")) == []

    def test_wide_gap_skipped(self):
        obs = estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy", gap=300.0))
        assert obs == []  # strict window: |dt| < delta_t

    def test_zero_sign_breaks_adjacency(self):
        trades = [
            make_trade(k=0, price=100.0, leg="customer_sell", timestamp=ts(0)),
            make_trade(k=1, price=100.5, leg="dealer_dealer", timestamp=ts(30)),
            make_trade(k=2, price=101.0, leg="customer_buy", timestamp=ts(60)),
        ]
        assert estimate_spreads(TradeTable.from_rows(trades)) == []

    def test_alternating_constant_spread_tape(self):
        # buys at mid + h, sells at mid - h
        mid, h = 100.0, 0.25
        trades = []
        for i in range(40):
            buy = i % 2 == 0
            trades.append(
                make_trade(
                    k=i,
                    price=mid + h if buy else mid - h,
                    leg="customer_buy" if buy else "customer_sell",
                    timestamp=ts(60.0 * i),
                )
            )
        # corrected places the mid at m exactly; the printed form lands one
        # full spread outside on the same side as the earlier trade
        for conv, offset in (("paper", 2 * h), ("corrected", 0.0)):
            obs = estimate_spreads(TradeTable.from_rows(trades), mid_convention=conv)
            assert len(obs) == 39
            for o in obs:
                assert o.psi == pytest.approx(2 * h, abs=1e-12)
                assert abs(abs(o.mid - mid) - offset) <= 1e-12
                assert o.s_bp == pytest.approx(o.psi / o.mid * 1e4, abs=1e-9)

    def test_used_fraction_mechanism(self):
        trades = [
            make_trade(k=0, price=100.0, leg="customer_sell", timestamp=ts(0)),
            make_trade(k=1, price=101.0, leg="customer_buy", timestamp=ts(60)),
            make_trade(k=2, price=101.0, leg="customer_buy", timestamp=ts(120)),
            make_trade(k=3, price=101.0, leg="customer_buy", timestamp=ts(10_000)),
        ]
        obs = estimate_spreads(TradeTable.from_rows(trades))
        assert [o.k for o in obs] == [1]
        assert used_trades(obs) == 2  # half of the four trades

    @given(scale=st.floats(0.1, 50.0))
    def test_bp_spread_scale_invariant(self, scale):
        base = pair(100.0, 101.0, "customer_sell", "customer_buy")
        scaled = [
            make_trade(k=t.k, price=t.price * scale, leg=t.leg, timestamp=t.timestamp)
            for t in base
        ]
        o1 = estimate_spreads(base)[0]
        o2 = estimate_spreads(TradeTable.from_rows(scaled))[0]
        assert o2.psi == pytest.approx(o1.psi * scale, rel=1e-12)
        assert o2.mid == pytest.approx(o1.mid * scale, rel=1e-12)
        assert o2.s_bp == pytest.approx(o1.s_bp, rel=1e-9)


class TestWeekly:
    def test_mean_within_week(self):
        obs = estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy"))
        obs2 = estimate_spreads(pair(100.0, 99.4, "customer_buy", "customer_sell"))
        weekly = aggregate_weekly(obs + obs2)
        assert len(weekly) == 1
        w = weekly[0]
        assert w.n_obs == 2
        assert w.mean_s_bp == pytest.approx((obs[0].s_bp + obs2[0].s_bp) / 2)

    def test_hand_mean(self):
        a = estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy"))[0]
        b = estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy"))[0]
        a.s_bp, b.s_bp = 40.0, 60.0
        assert aggregate_weekly([a, b])[0].mean_s_bp == pytest.approx(50.0)

    def test_different_iso_weeks_split(self):
        a = estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy"))[0]
        b = estimate_spreads(pair(100.0, 101.0, "customer_sell", "customer_buy"))[0]
        b.timestamp = b.timestamp + dt.timedelta(days=7)
        weekly = aggregate_weekly([a, b])
        assert len(weekly) == 2
        assert weekly[0].week.next() == weekly[1].week

    def test_empty(self):
        assert aggregate_weekly([]) == []

    def test_iso_week_label_roundtrip(self):
        w = IsoWeek.of(dt.date(2015, 1, 5))
        assert IsoWeek.parse(w.label) == w


def dealer(seconds, price, volume=200_000.0):
    return make_trade(leg="dealer_dealer", price=price, volume=volume, timestamp=ts(seconds))


def customer(seconds, leg, price, volume=100.0):
    return make_trade(leg=leg, price=price, volume=volume, timestamp=ts(seconds))


# (trades of one bond-day, expected rows as (spread_buy, spread_sell, reference_price))
ONE_SIDED_CASES = {
    "volume_weighting": (
        [
            dealer(-3600, 99.0),
            customer(0, "customer_buy", 101.0, volume=300.0),
            customer(60, "customer_buy", 100.0, volume=100.0),
            dealer(3600, 101.0),
        ],
        [(0.01 * 0.75, None, 100.0)],
    ),
    "sell_only_day": (
        [customer(0, "customer_sell", 99.0), dealer(3600, 100.0)],
        [(None, 0.01, 100.0)],
    ),
    "buy_at_reference": (
        [customer(0, "customer_buy", 100.0), dealer(3600, 100.0)],
        [(0.0, None, 100.0)],
    ),
    "dealer_at_100k_never_reference": (
        [
            customer(0, "customer_buy", 101.0),
            dealer(3600, 90.0, volume=100_000.0),
            dealer(7200, 100.0),
        ],
        [(0.01, None, 100.0)],
    ),
    # 900 s from the buy, so out of its reference; 3,600 s from the sell, so in
    "dealer_at_15_min_excluded_for_that_trade_only": (
        [
            customer(0, "customer_buy", 101.0),
            dealer(900, 104.0),
            customer(4500, "customer_sell", 101.0),
            dealer(7200, 100.0),
        ],
        [(0.01, 1.0 / 102.0, 102.0)],
    ),
    "customer_with_every_dealer_in_window_skipped": (
        [
            customer(0, "customer_buy", 101.0),
            dealer(600, 100.0),
            customer(7200, "customer_sell", 99.0),
        ],
        [(None, 0.01, 100.0)],
    ),
    "no_qualifying_dealer_no_row": (
        [customer(0, "customer_buy", 101.0), dealer(3600, 100.0, volume=50_000.0)],
        [],
    ),
    "no_marked_customer_no_row": (
        [customer(0, "customer_buy", 101.0), dealer(600, 100.0)],
        [],
    ),
}


class TestReferencePrice:
    def test_vwap(self):
        trades = [
            dealer(-3600, 100.0),
            customer(0, "customer_buy", 101.0),
            dealer(3600, 102.0),
        ]
        [day] = one_sided_spreads_by_day(TradeTable.from_rows(trades))
        assert day.reference_price == pytest.approx(101.0)

    def test_single_qualifying(self):
        trades = [customer(0, "customer_buy", 100.0), dealer(3600, 99.0)]
        [day] = one_sided_spreads_by_day(TradeTable.from_rows(trades))
        assert day.reference_price == pytest.approx(99.0)


class TestOneSided:
    def test_buy_spread(self):
        trades = [customer(0, "customer_buy", 101.0), dealer(3600, 100.0)]
        [day] = one_sided_spreads_by_day(TradeTable.from_rows(trades))
        assert day.spread_buy == pytest.approx(0.01)
        assert day.spread_sell is None

    def test_buy_at_reference_is_zero(self):
        trades = [customer(0, "customer_buy", 100.0), dealer(3600, 100.0)]
        [day] = one_sided_spreads_by_day(TradeTable.from_rows(trades))
        assert day.spread_buy == 0.0

    def test_volume_weighting(self):
        trades = [
            customer(0, "customer_buy", 101.0, volume=300.0),
            customer(60, "customer_buy", 100.0, volume=100.0),
            dealer(3600, 100.0),
        ]
        [day] = one_sided_spreads_by_day(TradeTable.from_rows(trades))
        assert day.spread_buy == pytest.approx(0.01 * 0.75)

    @pytest.mark.parametrize("trades, expected", ONE_SIDED_CASES.values(), ids=ONE_SIDED_CASES)
    def test_by_day(self, trades, expected):
        rows = one_sided_spreads_by_day(TradeTable.from_rows(trades))
        assert [(r.cusip, r.day) for r in rows] == [("TESTCUSIP", ts(0).date())] * len(expected)
        for row, want in zip(rows, expected):
            got = (row.spread_buy, row.spread_sell, row.reference_price)
            for value, expect in zip(got, want):
                if expect is None:
                    assert value is None
                else:
                    assert value == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_by_day_per_trade_reference(self):
        trades = [
            make_trade(k=0, leg="customer_buy", price=101.0, volume=100.0, timestamp=ts(0)),
            make_trade(
                k=1, leg="dealer_dealer", price=100.0, volume=200_000.0, timestamp=ts(3600)
            ),
        ]
        [day] = one_sided_spreads_by_day(TradeTable.from_rows(trades))
        assert day.spread_buy == pytest.approx(0.01)
        assert day.spread_sell is None


def quadratic_one_sided(trades, min_volume=100_000.0, exclusion_minutes=15.0):
    """The oracle: one_sided_spreads_by_day as it was before prefix sums.

    Re-sums every qualifying dealer trade for each customer trade, so it
    costs O(customers x dealers) per bond-day.
    """
    window = dt.timedelta(minutes=exclusion_minutes)
    by_day = {}
    for t in trades:
        by_day.setdefault((t.cusip, t.timestamp.date()), []).append(t)
    out = []
    for (cusip, day), day_trades in sorted(by_day.items()):
        dealers = [t for t in day_trades if t.leg == "dealer_dealer" and t.volume > min_volume]
        if not dealers:
            continue
        buy_pv = buy_v = sell_pv = sell_v = 0.0
        ref_any = None
        for t in day_trades:
            if t.leg == "dealer_dealer":
                continue
            pv = sum(
                d.price * d.volume for d in dealers if abs(d.timestamp - t.timestamp) > window
            )
            v = sum(d.volume for d in dealers if abs(d.timestamp - t.timestamp) > window)
            if v <= 0:
                continue
            ref = pv / v
            ref_any = ref
            if t.leg == "customer_buy":
                buy_pv += (t.price - ref) / ref * t.volume
                buy_v += t.volume
            else:
                sell_pv += (ref - t.price) / ref * t.volume
                sell_v += t.volume
        if ref_any is None:
            continue
        out.append(
            OneSidedSpread(
                cusip=cusip,
                day=day,
                spread_buy=buy_pv / buy_v if buy_v > 0 else None,
                spread_sell=sell_pv / sell_v if sell_v > 0 else None,
                reference_price=ref_any,
            )
        )
    return out


def assert_matches_oracle(trades):
    """Same rows and None pattern; values within the prefix-sum rounding.

    Spreads are fractions that can be near zero, so they get an absolute
    tolerance; the reference is a price, so it gets a relative one.
    """
    got = one_sided_spreads_by_day(TradeTable.from_rows(trades))
    want = quadratic_one_sided(trades)
    assert [(r.cusip, r.day) for r in got] == [(r.cusip, r.day) for r in want]
    for g, w in zip(got, want):
        for name in ("spread_buy", "spread_sell"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a is None) == (b is None), name
            if b is not None:
                assert a == pytest.approx(b, rel=0.0, abs=1e-12), name
        assert g.reference_price == pytest.approx(w.reference_price, rel=1e-12, abs=0.0)


# times on a 300 s grid over half an hour with a one-second jitter, so many
# pairs lie exactly 900 s apart and others just inside or outside; three
# slots put every dealer in every customer's window
_trade = st.tuples(
    st.sampled_from(["A", "B"]),
    st.integers(0, 1),  # day
    st.integers(0, 6),  # slot
    st.sampled_from([0, 0, 0, -1, 1]),  # jitter, seconds
    st.sampled_from(["customer_buy", "customer_sell", "dealer_dealer", "dealer_dealer"]),
    st.floats(90.0, 110.0),
    st.one_of(
        st.sampled_from([99_999.0, 100_000.0, 100_000.5, 100_001.0]),
        st.floats(99_000.0, 101_000.0),
        st.floats(1_000.0, 5e6),
    ),
)


# no explain phase: on a failing example of this size it runs for minutes
@settings(
    max_examples=300,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
)
@given(
    rows=st.lists(_trade, min_size=8, max_size=40),
    slots=st.sampled_from([3, 7]),
    in_time_order=st.booleans(),
)
def test_one_sided_matches_quadratic_oracle(rows, slots, in_time_order):
    trades = [
        make_trade(
            k=k,
            cusip=cusip,
            leg=leg,
            price=price,
            volume=volume,
            timestamp=ts(86_400 * day + 300 * (slot % slots) + jitter),
        )
        for k, (cusip, day, slot, jitter, leg, price, volume) in enumerate(rows)
    ]
    if in_time_order:
        trades.sort(key=lambda t: (t.cusip, t.timestamp))
    assert_matches_oracle(trades)


def liquid_bond_day():
    """2,000 customer and 1,000 dealer trades of one bond, in time order over 8 hours."""
    rng = random.Random(0)
    legs = ["customer_buy", "customer_sell"] * 1_000 + ["dealer_dealer"] * 1_000
    rng.shuffle(legs)
    seconds = sorted(rng.randrange(0, 8 * 3600) for _ in legs)
    return [
        make_trade(
            k=k,
            leg=leg,
            price=100.0 + rng.gauss(0.0, 0.5),
            volume=rng.choice([100_000.0, rng.uniform(5e4, 2e6)]),
            timestamp=ts(s),
        )
        for k, (leg, s) in enumerate(zip(legs, seconds))
    ]


def test_one_sided_liquid_day_matches_quadratic_oracle():
    trades = liquid_bond_day()
    assert_matches_oracle(trades)
    random.Random(1).shuffle(trades)  # out of time order, so the sort matters
    assert_matches_oracle(trades)


def test_one_sided_liquid_day_benchmark(benchmark):
    trades = TradeTable.from_rows(liquid_bond_day())
    rows = benchmark.pedantic(one_sided_spreads_by_day, args=(trades,), rounds=5, iterations=1)
    assert len(rows) == 1

import datetime as dt
import math

import numpy as np
import pytest

from bondtca.calendars import BusinessCalendar, IsoWeek
from bondtca.errors import DataError, NumericalError
from bondtca.features import (
    BondReference,
    DESIGN_FEATURES,
    build_feature_matrix,
    design_matrix,
    duration,
    weekly_volatility,
)
from bondtca.ingest import TradeTable
from bondtca.microstructure import WeeklySpread

from conftest import make_trade, ts


def bond(**kw) -> BondReference:
    defaults = dict(
        cusip="TESTCUSIP",
        coupon_rate=5.0,
        issue_date=dt.date(2012, 1, 15),
        maturity_date=dt.date(2025, 1, 15),
        amount_outstanding=5e8,
        grade="IG",
        sector="S3",
        frequency=2,
    )
    defaults.update(kw)
    return BondReference(**defaults)


class TestVolatility:
    def test_constant_prices(self):
        assert weekly_volatility([100.0, 100.0, 100.0]) == 0.0

    def test_hand_value(self):
        assert weekly_volatility([100.0, 101.0, 100.0]) == pytest.approx(
            0.9950330853, abs=1e-9
        )

    def test_single_return_undefined(self):
        assert weekly_volatility([100.0, 102.0]) is None

    def test_oracle_population_std(self):
        prices = [100.0, 100.7, 99.8, 101.2, 100.9]
        r = np.diff(np.log(prices))
        expect = math.sqrt(float(np.mean((r - r.mean()) ** 2))) * 100
        assert weekly_volatility(prices) == pytest.approx(expect, abs=1e-12)


class TestDuration:
    def test_zero_coupon_equals_maturity(self):
        zero = bond(coupon_rate=0.0, frequency=0, maturity_date=dt.date(2020, 1, 15))
        as_of = dt.date(2015, 1, 15)
        t_years = (dt.date(2020, 1, 15) - as_of).days / 365.25
        for price in (60.0, 80.0, 99.0):
            assert duration(zero, price, as_of) == pytest.approx(t_years, abs=1e-10)

    def test_single_period_left(self):
        b = bond(maturity_date=dt.date(2015, 7, 15), frequency=2)
        as_of = dt.date(2015, 3, 1)
        t_years = (dt.date(2015, 7, 15) - as_of).days / 365.25
        assert duration(b, 100.0, as_of) == pytest.approx(t_years, abs=1e-10)

    def test_par_bond_vs_brute_force_pv_oracle(self):
        from scipy.optimize import brentq

        b = bond(coupon_rate=6.0, frequency=1, issue_date=dt.date(2010, 1, 15),
                 maturity_date=dt.date(2023, 1, 15))
        as_of = dt.date(2015, 2, 1)
        price = 97.5
        flows = [(d, a) for d, a in b.cashflow_schedule() if d > as_of]
        times = [(d - as_of).days / 365.25 for d, _ in flows]
        amounts = [a for _, a in flows]

        def pv(y):
            return sum(a * (1 + y) ** (-t) for t, a in zip(times, amounts))

        y_star = brentq(lambda y: pv(y) - price, -0.4, 1.5, xtol=1e-14)
        pvs = [a * (1 + y_star) ** (-t) for t, a in zip(times, amounts)]
        expect = sum(t * v for t, v in zip(times, pvs)) / sum(pvs)
        assert duration(b, price, as_of) == pytest.approx(expect, abs=1e-6)

    def test_annual_par_bond_annuity_closed_form(self):
        # at par with integer annual periods, Macaulay = (1+y)/y (1 - (1+y)^-T)
        coupon = 4.0
        b = bond(coupon_rate=coupon, frequency=1, issue_date=dt.date(2010, 1, 1),
                 maturity_date=dt.date(2020, 1, 1))
        as_of = dt.date(2015, 1, 1)
        # calendar years are not exactly 365.25 days; solve closed form at the
        # effective yield of the solver and compare loosely
        y = coupon / 100.0
        t_total = 5
        closed = (1 + y) / y * (1 - (1 + y) ** -t_total)
        assert duration(b, 100.0, as_of) == pytest.approx(closed, rel=5e-3)

    def test_pathological_price_errors(self):
        with pytest.raises(NumericalError):
            duration(bond(), 1e-6, dt.date(2015, 1, 15))


def weekly_rows(trades):
    from bondtca.microstructure import aggregate_weekly, estimate_spreads

    obs = estimate_spreads(trades)
    return aggregate_weekly(obs)


class TestFeatureMatrix:
    def setup_method(self):
        self.calendar = BusinessCalendar()
        self.refs = {"TESTCUSIP": bond()}
        self.week = IsoWeek.of(dt.date(2015, 1, 5))
        self.context = {self.week: 0.21}

    def build(self, trades, weekly=None):
        weekly = weekly or [WeeklySpread("TESTCUSIP", self.week, 50.0, 4)]
        return build_feature_matrix(
            weekly, TradeTable.from_rows(trades), self.refs, self.context, self.calendar
        )

    def test_trading_activity_log10(self):
        trades = [
            make_trade(k=i, price=100.0 + 0.1 * (i % 3), timestamp=ts(600.0 * i))
            for i in range(18)
        ]
        [row] = self.build(trades)
        assert row.trading_activity == pytest.approx(math.log10(18), abs=1e-12)
        assert row.trading_activity == pytest.approx(1.2553, abs=1e-4)

    def test_log_total_volume(self):
        trades = [
            make_trade(k=i, price=100.0 + 0.1 * (i % 3), volume=2_000_000.0, timestamp=ts(600.0 * i))
            for i in range(4)
        ]
        [row] = self.build(trades)
        assert row.log_total_volume == pytest.approx(math.log10(8.0e6), abs=1e-12)
        assert row.log_total_volume == pytest.approx(6.903, abs=1e-3)

    def test_buy_only_proportions(self):
        trades = [
            make_trade(k=i, price=100.0 + 0.1 * (i % 2), leg="customer_buy", timestamp=ts(600.0 * i))
            for i in range(5)
        ]
        [row] = self.build(trades)
        assert row.prop_n_buy == 1.0
        assert row.prop_n_sell == 0.0
        assert row.prop_vol_buy == 1.0

    def test_row_dropped_without_volatility(self):
        trades = [
            make_trade(k=0, price=100.0, timestamp=ts(0)),
            make_trade(k=1, price=101.0, timestamp=ts(60)),
        ]
        assert self.build(trades) == []

    def test_missing_reference_errors(self):
        trades = [make_trade(k=i, price=100.0 + 0.1 * i, cusip="GHOST") for i in range(3)]
        weekly = [WeeklySpread("GHOST", self.week, 50.0, 2)]
        with pytest.raises(DataError, match="GHOST"):
            self.build(trades, weekly)

    def test_missing_context_errors(self):
        trades = [make_trade(k=i, price=100.0 + 0.1 * i) for i in range(3)]
        weekly = [WeeklySpread("TESTCUSIP", IsoWeek(2015, 30), 50.0, 2)]
        trades = [
            make_trade(k=i, price=100.0 + 0.1 * i, timestamp=ts(i * 60, dt.datetime(2015, 7, 20, 10, 0)))
            for i in range(3)
        ]
        with pytest.raises(DataError, match="2015-W30"):
            self.build(trades, weekly)

    def test_indicators_one_hot(self):
        trades = [make_trade(k=i, price=100.0 + 0.1 * (i % 3), timestamp=ts(600.0 * i)) for i in range(6)]
        [row] = self.build(trades)
        assert row.ind_hy + row.ind_ig == 1.0
        assert sum(getattr(row, f"sector_s{i}") for i in range(1, 10)) == 1.0
        assert row.sector_s3 == 1.0

    def test_volume_scaling_property(self):
        trades = [
            make_trade(k=i, price=100.0 + 0.1 * (i % 3), volume=50_000.0 * (i + 1), timestamp=ts(600.0 * i))
            for i in range(6)
        ]
        scaled = [
            make_trade(k=t.k, price=t.price, volume=t.volume * 10, leg=t.leg, timestamp=t.timestamp)
            for t in trades
        ]
        [row] = self.build(trades)
        [row10] = self.build(scaled)
        assert row10.log_total_volume == pytest.approx(row.log_total_volume + 1.0, abs=1e-12)
        assert row10.prop_vol_buy == pytest.approx(row.prop_vol_buy, abs=1e-12)
        assert row10.turnover == pytest.approx(row.turnover * 10, rel=1e-12)

    def test_maturity_identity(self):
        trades = [make_trade(k=i, price=100.0 + 0.1 * (i % 3), timestamp=ts(600.0 * i)) for i in range(6)]
        [row] = self.build(trades)
        span = (self.refs["TESTCUSIP"].maturity_date - self.refs["TESTCUSIP"].issue_date).days / 365.25
        assert row.years_to_maturity + row.years_since_issuance == pytest.approx(
            span, abs=2 / 365.25
        )

    def test_zero_trade_days(self):
        trades = [
            make_trade(k=i, price=100.0 + 0.1 * (i % 3), timestamp=ts(600.0 * i))
            for i in range(6)
        ]  # all on one business day
        [row] = self.build(trades)
        assert row.n_trading_days == 1
        assert row.log_zero_trade_days == pytest.approx(math.log10(1 + 4), abs=1e-12)

    def test_design_matrix_shape_and_names(self):
        trades = [make_trade(k=i, price=100.0 + 0.1 * (i % 3), timestamp=ts(600.0 * i)) for i in range(6)]
        rows = self.build(trades)
        y, x, names = design_matrix(rows)
        assert x.shape == (1, 26)
        assert len(DESIGN_FEATURES) == 26
        assert names == DESIGN_FEATURES
        assert y[0] == 50.0

"""Backtester tests: daily marking, terminal settlement, cohort metrics.

The anchor property is settlement consistency: because legs settle to
intrinsic at expiry, the final PnL of any single-expiry position must
equal its terminal payoff times the contract multiplier. The metric
layer is pinned by a 20-path hand fixture whose WR/RE/ROC numbers were
worked out by hand, including the inclusive risk-exposure boundary.
"""

import dataclasses
import datetime as dt
import random

import pytest

from oql import pricing
from oql.backtest import (
    IV_POLICIES,
    PnLPath,
    Position,
    PositionLeg,
    classify_side,
    entry_cash_of,
    load_spots,
    mark_path,
    positions_from_results,
    report,
    risk_exposure,
    run_cohorts,
)
from helpers import backtest_hand_fixture as hand_fixture
from helpers import Leg, oracle_mark_path, result_instances, strategy_payoff
from oql.chain import ChainSnapshot, ContractRecord, occ_ticker
from oql.config import RunConfig
from oql.engine import execute, result_to_json
from oql.errors import BacktestError, MissingSpot

ENTRY = dt.date(2025, 6, 2)


def leg(direction: int, option_type: str, strike: float, days: int,
        quantity: int = 1, entry_price: float = 0.0,
        entry_iv: float = 0.25) -> PositionLeg:
    return PositionLeg(direction=direction, option_type=option_type,
                       strike=strike, expiry=ENTRY + dt.timedelta(days=days),
                       quantity=quantity, entry_price=entry_price,
                       entry_iv=entry_iv)


def flat_spots(level: float, days: int) -> dict[dt.date, float]:
    return {ENTRY + dt.timedelta(days=i): level for i in range(days + 1)}


def path_of(label: str, entry_cash: float, *pnl: float) -> PnLPath:
    dates = tuple(ENTRY + dt.timedelta(days=i) for i in range(len(pnl)))
    return PnLPath(label=label, dates=dates, pnl=tuple(pnl),
                   entry_cash=entry_cash)


# ============================================================
# Terminal settlement == strategy payoff
# ============================================================


class TestTerminalConsistency:
    def test_final_pnl_equals_terminal_payoff_on_1000_positions(self):
        rng = random.Random(314159)
        config = RunConfig()
        for case in range(1000):
            days = rng.randint(3, 15)
            n_legs = rng.randint(1, 4)
            legs = tuple(
                leg(rng.choice((1, -1)), rng.choice(("call", "put")),
                    strike=rng.choice((80.0, 90.0, 100.0, 110.0, 120.0)),
                    days=days, quantity=rng.randint(1, 3),
                    entry_price=round(rng.uniform(0.5, 12.0), 2),
                    entry_iv=round(rng.uniform(0.1, 0.9), 3))
                for _ in range(n_legs))
            position = Position(label=f"case{case}", legs=legs)
            spots = {}
            level = rng.uniform(60.0, 140.0)
            for i in range(days + 1):
                level *= (1.0 + rng.uniform(-0.05, 0.05))
                spots[ENTRY + dt.timedelta(days=i)] = level
            path = mark_path(position, spots, ENTRY,
                             ENTRY + dt.timedelta(days=days), config)
            terminal_spot = spots[ENTRY + dt.timedelta(days=days)]
            payoff_legs = [
                Leg(direction=pl.direction, option_type=pl.option_type,
                    strike=pl.strike, quantity=pl.quantity,
                    premium=pl.entry_price)
                for pl in legs
            ]
            expected = strategy_payoff(payoff_legs, terminal_spot)
            assert path.final_pnl() == pytest.approx(
                expected * config.multiplier, abs=1e-9)

    def test_entry_day_pnl_is_zero_when_marked_at_entry_values(self):
        # A leg entered exactly at its model value shows zero PnL on day 0.
        iv, days, strike, spot = 0.3, 30, 100.0, 100.0
        params = pricing.MarketParams(spot, 0.04, iv, days / 365.0)
        fair = pricing.bsm_price(params, strike, "call")
        position = Position("fair", (leg(1, "call", strike, days,
                                         entry_price=fair, entry_iv=iv),))
        path = mark_path(position, flat_spots(spot, days), ENTRY,
                         ENTRY + dt.timedelta(days=days),
                         RunConfig(rate=0.04))
        assert path.pnl[0] == pytest.approx(0.0, abs=1e-9)

    def test_bought_straddle_on_flat_path_loses_its_premium(self):
        position = Position("straddle", (
            leg(1, "call", 100.0, 20, entry_price=3.0),
            leg(1, "put", 100.0, 20, entry_price=3.0),
        ))
        path = mark_path(position, flat_spots(100.0, 20), ENTRY,
                         ENTRY + dt.timedelta(days=20), RunConfig(rate=0.0))
        assert path.final_pnl() == pytest.approx(-600.0, abs=1e-9)
        assert path.final_pnl() < 0

    def test_sold_condor_on_flat_path_keeps_the_credit(self):
        position = Position("condor", (
            leg(1, "put", 85.0, 20, entry_price=1.2),
            leg(-1, "put", 90.0, 20, entry_price=2.9),
            leg(-1, "call", 110.0, 20, entry_price=3.1),
            leg(1, "call", 115.0, 20, entry_price=1.4),
        ))
        path = mark_path(position, flat_spots(100.0, 20), ENTRY,
                         ENTRY + dt.timedelta(days=20), RunConfig(rate=0.0))
        assert path.entry_cash == pytest.approx(-340.0)
        assert path.final_pnl() == pytest.approx(340.0, abs=1e-9)


# ============================================================
# Path mechanics
# ============================================================


class TestMarkPath:
    def test_path_covers_entry_through_exit_inclusive(self):
        position = Position("p", (leg(1, "call", 100.0, 30, entry_price=2.0),))
        path = mark_path(position, flat_spots(100.0, 10), ENTRY,
                         ENTRY + dt.timedelta(days=10))
        assert len(path.dates) == 11
        assert path.dates[0] == ENTRY
        assert path.dates[-1] == ENTRY + dt.timedelta(days=10)

    def test_exit_clamps_to_earliest_leg_expiry(self):
        position = Position("p", (
            leg(1, "call", 100.0, 10, entry_price=2.0),
            leg(-1, "call", 110.0, 20, entry_price=1.0),
        ))
        path = mark_path(position, flat_spots(100.0, 30), ENTRY,
                         ENTRY + dt.timedelta(days=30))
        assert path.dates[-1] == ENTRY + dt.timedelta(days=10)
        assert len(path.dates) == 11

    def test_missing_spot_names_the_date(self):
        spots = flat_spots(100.0, 10)
        gap = ENTRY + dt.timedelta(days=4)
        del spots[gap]
        position = Position("p", (leg(1, "call", 100.0, 10, entry_price=2.0),))
        with pytest.raises(MissingSpot, match=str(gap)):
            mark_path(position, spots, ENTRY, ENTRY + dt.timedelta(days=10))

    def test_entry_after_effective_exit_rejected(self):
        position = Position("p", (leg(1, "call", 100.0, 5, entry_price=2.0),))
        with pytest.raises(BacktestError, match="after effective exit"):
            mark_path(position, flat_spots(100.0, 10),
                      ENTRY + dt.timedelta(days=6),
                      ENTRY + dt.timedelta(days=10))

    def test_empty_position_rejected(self):
        with pytest.raises(BacktestError, match="empty position"):
            mark_path(Position("p", ()), flat_spots(100.0, 5), ENTRY,
                      ENTRY + dt.timedelta(days=5))

    def test_unknown_iv_policy_rejected(self):
        position = Position("p", (leg(1, "call", 100.0, 5, entry_price=2.0),))
        with pytest.raises(BacktestError, match="iv_policy"):
            mark_path(position, flat_spots(100.0, 5), ENTRY,
                      ENTRY + dt.timedelta(days=5), iv_policy="frozen")
        assert IV_POLICIES == ("sticky_entry", "snapshot")


class TestSnapshotIvPolicy:
    def snapshot_for(self, day: dt.date, iv: float) -> ChainSnapshot:
        expiry = ENTRY + dt.timedelta(days=30)
        record = ContractRecord(
            ticker=occ_ticker("SPY", expiry, "call", 100.0),
            underlying="SPY", as_of=day, expiry=expiry, strike=100.0,
            option_type="call", price=2.0, volume=10, iv=iv, delta=0.5,
            gamma=0.01, vega=0.2, theta=-0.05)
        return ChainSnapshot(underlying="SPY", as_of=day, spot=100.0,
                             rate=0.04, records=(record,))

    def test_marks_use_each_days_snapshot_iv(self):
        position = Position("p", (leg(1, "call", 100.0, 30,
                                      entry_price=2.0, entry_iv=0.20),))
        day1 = ENTRY + dt.timedelta(days=1)
        snapshots = {ENTRY: self.snapshot_for(ENTRY, 0.20),
                     day1: self.snapshot_for(day1, 0.35)}
        spots = flat_spots(100.0, 1)
        sticky = mark_path(position, spots, ENTRY, day1,
                           iv_policy="sticky_entry")
        marked = mark_path(position, spots, ENTRY, day1,
                           iv_policy="snapshot", snapshots=snapshots)
        assert marked.pnl[0] == pytest.approx(sticky.pnl[0])
        # a higher marked vol lifts the long call's value
        assert marked.pnl[1] > sticky.pnl[1] + 10.0

    def test_snapshot_policy_requires_the_map(self):
        position = Position("p", (leg(1, "call", 100.0, 30, entry_price=2.0),))
        with pytest.raises(BacktestError, match="snapshot"):
            mark_path(position, flat_spots(100.0, 1), ENTRY,
                      ENTRY + dt.timedelta(days=1), iv_policy="snapshot")

    def test_missing_snapshot_date(self):
        position = Position("p", (leg(1, "call", 100.0, 30, entry_price=2.0),))
        with pytest.raises(MissingSpot, match="no snapshot"):
            mark_path(position, flat_spots(100.0, 1), ENTRY,
                      ENTRY + dt.timedelta(days=1), iv_policy="snapshot",
                      snapshots={ENTRY: self.snapshot_for(ENTRY, 0.2)})

    def test_contract_absent_from_snapshot(self):
        position = Position("p", (leg(1, "put", 100.0, 30, entry_price=2.0),))
        day1 = ENTRY + dt.timedelta(days=1)
        snapshots = {ENTRY: self.snapshot_for(ENTRY, 0.2),
                     day1: self.snapshot_for(day1, 0.2)}
        with pytest.raises(BacktestError, match="no iv for put"):
            mark_path(position, flat_spots(100.0, 1), ENTRY, day1,
                      iv_policy="snapshot", snapshots=snapshots)


    def test_first_record_with_an_iv_is_the_mark(self):
        position = Position("p", (leg(1, "call", 100.0, 30,
                                      entry_price=2.0, entry_iv=0.20),))
        day1 = ENTRY + dt.timedelta(days=1)
        first = self.snapshot_for(day1, 0.35)
        blank = dataclasses.replace(first.records[0], iv=None)
        second = dataclasses.replace(first.records[0], iv=0.50)
        snapshots = {ENTRY: self.snapshot_for(ENTRY, 0.20),
                     day1: dataclasses.replace(
                         first, records=(blank,) + first.records + (second,))}
        want = mark_path(position, flat_spots(100.0, 1), ENTRY, day1,
                         iv_policy="snapshot",
                         snapshots={ENTRY: snapshots[ENTRY], day1: first})
        got = mark_path(position, flat_spots(100.0, 1), ENTRY, day1,
                        iv_policy="snapshot", snapshots=snapshots)
        assert got == want
        assert snapshots[day1].iv_by_contract == {
            (blank.expiry, "call"): {100.0: 0.35}}

# ============================================================
# mark_path against the day-by-day oracle
# ============================================================


class TestMarkPathOracle:
    """mark_path computes each leg's constants once per path; the oracle
    reads them afresh every day and prices with the composed kernel."""

    STRIKES = (80.0, 90.0, 97.5, 100.0, 102.5, 110.0, 120.0)

    def random_case(self, rng: random.Random):
        n_legs = rng.randint(1, 4)
        legs = tuple(
            leg(rng.choice((1, -1)), rng.choice(("call", "put")),
                rng.choice(self.STRIKES), days=rng.randint(2, 20),
                quantity=rng.randint(1, 3),
                entry_price=round(rng.uniform(0.0, 12.0), 2),
                entry_iv=rng.choice((0.0, round(rng.uniform(0.05, 1.2), 4))))
            for _ in range(n_legs))
        position = Position(label=f"p{rng.randrange(1000)}", legs=legs)
        days = rng.randint(0, 25)
        level, spots = 100.0, {}
        for i in range(days + 1):
            level *= rng.uniform(0.95, 1.05)
            spots[ENTRY + dt.timedelta(days=i)] = level
        snapshots = {day: self.snapshot(rng, day, spot, legs)
                     for day, spot in spots.items()}
        config = RunConfig(rate=rng.choice((0.0, 0.04, -0.01)),
                           multiplier=rng.choice((1.0, 100.0)))
        exit = ENTRY + dt.timedelta(days=days)
        return position, spots, exit, config, snapshots

    def snapshot(self, rng, day, spot, legs) -> ChainSnapshot:
        # every leg's contract, some twice or first without an iv, so the
        # first record carrying an iv is the mark
        records = []
        for pl in legs:
            ivs = [None] * rng.randint(0, 1) + [
                rng.uniform(0.05, 1.5) for _ in range(rng.randint(1, 2))]
            records += [ContractRecord(
                ticker=occ_ticker("SPY", pl.expiry, pl.option_type, pl.strike),
                underlying="SPY", as_of=day, expiry=pl.expiry,
                strike=pl.strike, option_type=pl.option_type, price=1.0,
                volume=1, iv=iv) for iv in ivs]
        rng.shuffle(records)
        return ChainSnapshot(underlying="SPY", as_of=day, spot=spot,
                             rate=0.04, records=tuple(records))

    def assert_same(self, *args, **kwargs):
        try:
            want = oracle_mark_path(*args, **kwargs)
        except BacktestError as exc:
            with pytest.raises(type(exc)) as caught:
                mark_path(*args, **kwargs)
            assert str(caught.value) == str(exc)
            return None
        got = mark_path(*args, **kwargs)
        assert got.label == want.label
        assert got.dates == want.dates
        assert got.pnl == want.pnl
        assert got.entry_cash == want.entry_cash
        return got

    @pytest.mark.parametrize("iv_policy", IV_POLICIES)
    def test_random_positions_mark_as_the_oracle_does(self, iv_policy):
        rng = random.Random(2027)
        marked = 0
        for _ in range(300):
            position, spots, exit, config, snapshots = self.random_case(rng)
            path = self.assert_same(position, spots, ENTRY, exit, config,
                                    iv_policy, snapshots)
            marked += path is not None and len(path.dates) > 1
        assert marked > 200

    def test_missing_spot_fails_as_the_oracle_does(self):
        rng = random.Random(11)
        raised = 0
        for _ in range(100):
            position, spots, exit, config, snapshots = self.random_case(rng)
            if len(spots) < 3:
                continue
            # a gap past the earliest expiry is never read
            del spots[rng.choice(sorted(spots)[1:])]
            for iv_policy in IV_POLICIES:
                raised += self.assert_same(position, spots, ENTRY, exit,
                                           config, iv_policy, snapshots) is None
        assert raised > 50

    def test_missing_later_snapshot_fails_as_the_oracle_does(self):
        position = Position("p", (leg(1, "call", 100.0, 10, entry_price=2.0),
                                  leg(-1, "put", 90.0, 12, entry_price=1.0)))
        spots = flat_spots(100.0, 5)
        snapshots = {day: self.snapshot(random.Random(3), day, 100.0,
                                        position.legs)
                     for day in spots}
        del snapshots[ENTRY + dt.timedelta(days=3)]
        assert self.assert_same(position, spots, ENTRY,
                                ENTRY + dt.timedelta(days=5), None,
                                "snapshot", snapshots) is None
        with pytest.raises(MissingSpot,
                           match=f"no snapshot for {ENTRY + dt.timedelta(days=3)}"):
            mark_path(position, spots, ENTRY, ENTRY + dt.timedelta(days=5),
                      iv_policy="snapshot", snapshots=snapshots)

    def test_contract_absent_on_the_second_leg_only(self):
        position = Position("p", (leg(1, "call", 100.0, 10, entry_price=2.0),
                                  leg(-1, "put", 90.0, 12, entry_price=1.0)))
        spots = flat_spots(100.0, 5)
        day2 = ENTRY + dt.timedelta(days=2)
        snapshots = {}
        for day in spots:
            snap = self.snapshot(random.Random(5), day, 100.0, position.legs)
            if day == day2:
                snap = dataclasses.replace(snap, records=tuple(
                    rec for rec in snap.records if rec.option_type == "call"))
            snapshots[day] = snap
        assert self.assert_same(position, spots, ENTRY,
                                ENTRY + dt.timedelta(days=5), None,
                                "snapshot", snapshots) is None
        with pytest.raises(BacktestError,
                           match=f"no iv for put K=90 .* in the {day2} snapshot"):
            mark_path(position, spots, ENTRY, ENTRY + dt.timedelta(days=5),
                      iv_policy="snapshot", snapshots=snapshots)


# ============================================================
# Risk exposure and sides
# ============================================================


class TestRiskExposure:
    def test_boundary_dip_counts_as_breach(self):
        assert risk_exposure(path_of("p", 200.0, 0.0, -100.0, 50.0), 0.5)
        assert risk_exposure(path_of("p", 200.0, 0.0, -180.0, 50.0), 0.9)

    def test_dip_just_inside_is_no_breach(self):
        assert not risk_exposure(path_of("p", 200.0, 0.0, -99.99, 50.0), 0.5)
        assert not risk_exposure(path_of("p", 200.0, 0.0, -179.99, 50.0), 0.9)

    def test_uses_absolute_entry_cash_for_sellers(self):
        assert risk_exposure(path_of("p", -200.0, 0.0, -100.0, 50.0), 0.5)
        assert not risk_exposure(path_of("p", -200.0, 0.0, -99.0, 50.0), 0.5)

    def test_deep_breach_implies_shallow_breach(self):
        rng = random.Random(8)
        for _ in range(200):
            cash = rng.choice((-1.0, 1.0)) * rng.uniform(10.0, 500.0)
            pnl = tuple(rng.uniform(-600.0, 300.0) for _ in range(6))
            path = path_of("p", cash, *pnl)
            if risk_exposure(path, 0.9):
                assert risk_exposure(path, 0.5)

    def test_classify_side(self):
        assert classify_side(250.0) == "buyer"
        assert classify_side(0.0) == "buyer"
        assert classify_side(-0.01) == "seller"


# ============================================================
# Cohort report on the shared 20-path hand fixture
# ============================================================


class TestReport:
    def test_counts_and_sides(self):
        rep = report(hand_fixture())
        assert rep.n == 20
        assert rep.n_buyer == 12   # includes the zero-cost path
        assert rep.n_seller == 8
        assert rep.zero_cost_count == 1

    def test_win_rates(self):
        rep = report(hand_fixture())
        assert rep.wr == 12 / 20
        assert rep.wr_buyer == 8 / 12
        assert rep.wr_seller == 4 / 8

    def test_risk_exposure_rates(self):
        rep = report(hand_fixture())
        assert rep.re50 == 9 / 20
        assert rep.re90 == 4 / 20
        assert rep.re50_buyer == 5 / 12
        assert rep.re90_buyer == 2 / 12
        assert rep.re50_seller == 4 / 8
        assert rep.re90_seller == 2 / 8
        assert rep.re90 <= rep.re50

    def test_profit_and_roc(self):
        rep = report(hand_fixture())
        assert rep.mean_profit == pytest.approx(-247.0 / 20.0, abs=1e-12)
        # roc sum over the 19 costed paths, worked out by hand
        assert rep.mean_roc == pytest.approx(1.125 / 19.0, abs=1e-12)

    def test_zero_cost_row_has_no_roc_but_counts_for_wr(self):
        rep = report(hand_fixture())
        row = next(r for r in rep.rows if r.label == "s12")
        assert row.zero_cost
        assert row.roc is None
        assert row.side == "buyer"
        assert row.win
        assert not row.re50  # its PnL never goes below zero

    def test_per_row_values(self):
        rep = report(hand_fixture())
        by_label = {r.label: r for r in rep.rows}
        assert by_label["s02"].re50 and not by_label["s02"].re90
        assert by_label["s03"].re90
        assert by_label["s04"].roc == pytest.approx(-1.0)
        assert by_label["s10"].roc == pytest.approx(-0.375)
        assert by_label["s18"].roc == pytest.approx(-0.9)
        assert by_label["s17"].side == "seller" and not by_label["s17"].re50

    def test_json_document_shape(self):
        doc = report(hand_fixture()).to_json_dict()
        assert set(doc) == {
            "n", "n_buyer", "n_seller", "wr", "wr_buyer", "wr_seller",
            "re50", "re50_buyer", "re50_seller", "re90", "re90_buyer",
            "re90_seller", "mean_profit", "mean_roc", "zero_cost_count",
            "strategies"}
        assert len(doc["strategies"]) == 20
        assert set(doc["strategies"][0]) == {
            "label", "side", "zero_cost", "entry_cash", "final_pnl", "win",
            "roc", "re50", "re90"}

    def test_table_rendering(self):
        text = report(hand_fixture()).to_table()
        assert "s01" in text and "s20" in text
        assert "WR 60.0%" in text
        assert "RE50 45.0%" in text
        assert "RE90 20.0%" in text

    def test_one_sided_cohort_leaves_other_side_none(self):
        rep = report([p for p in hand_fixture() if p.entry_cash > 0])
        assert rep.n_seller == 0
        assert rep.wr_seller is None
        assert rep.re50_seller is None

    def test_empty_cohort_rejected(self):
        with pytest.raises(BacktestError, match="no paths"):
            report([])

    def test_re90_never_exceeds_re50_on_random_cohorts(self):
        rng = random.Random(21)
        for _ in range(50):
            paths = [
                path_of(f"r{i}", rng.choice((-1.0, 1.0)) * rng.uniform(50, 400),
                        *(rng.uniform(-500, 300) for _ in range(5)))
                for i in range(rng.randint(1, 30))
            ]
            rep = report(paths)
            assert rep.re90 <= rep.re50


# ============================================================
# Position adapters
# ============================================================


def small_result_doc():
    records = [
        ContractRecord(
            ticker=occ_ticker("SPY", ENTRY + dt.timedelta(days=30), "call", k),
            underlying="SPY", as_of=ENTRY,
            expiry=ENTRY + dt.timedelta(days=30), strike=k,
            option_type="call", price=p, volume=100, iv=0.3, delta=0.5,
            gamma=0.01, vega=0.2, theta=-0.05)
        for k, p in ((100.0, 4.0), (110.0, 1.5))
    ]
    snapshot = ChainSnapshot(underlying="SPY", as_of=ENTRY, spot=100.0,
                             rate=0.04, records=tuple(records))
    config = RunConfig()
    result = execute("SELECT BULL_CALL_SPREAD FROM SPY", snapshot, config)
    return result, result_to_json(result, config)


class TestPositionAdapters:
    def test_position_from_instance(self):
        _, doc = small_result_doc()
        position = positions_from_results(doc)[0]
        assert position.label == "BULL_CALL_SPREAD#1"
        assert [l.option_type for l in position.legs] == ["call", "call"]
        assert [l.direction for l in position.legs] == [1, -1]
        assert position.legs[0].entry_price == 4.0
        assert position.legs[0].entry_iv == 0.3
        assert entry_cash_of(position, 100.0) == pytest.approx(250.0)

    def test_positions_from_results_round_trip(self):
        result, doc = small_result_doc()
        positions = positions_from_results(doc)
        assert len(positions) == 1
        direct = tuple(
            PositionLeg(direction=leg.direction,
                        option_type=leg.record.option_type,
                        strike=leg.record.strike, expiry=leg.record.expiry,
                        quantity=leg.quantity, entry_price=leg.record.price,
                        entry_iv=leg.record.iv)
            for leg in result_instances(result)[0].legs)
        assert positions[0].legs == direct
        assert positions[0].label == "BULL_CALL_SPREAD#1"

    def test_blueprint_documents_are_rejected(self):
        records = [ContractRecord(
            ticker=occ_ticker("SPY", ENTRY + dt.timedelta(days=30), "call",
                              100.0),
            underlying="SPY", as_of=ENTRY,
            expiry=ENTRY + dt.timedelta(days=30), strike=100.0,
            option_type="call", price=2.0, volume=100, iv=0.3, delta=0.5,
            gamma=0.01, vega=0.2, theta=-0.05)]
        snapshot = ChainSnapshot(underlying="SPY", as_of=ENTRY, spot=100.0,
                                 rate=0.04, records=tuple(records))
        config = RunConfig(output_mode="blueprint")
        doc = result_to_json(execute("SELECT LONG_CALL FROM SPY", snapshot,
                                     config), config)
        with pytest.raises(BacktestError, match="blueprint"):
            positions_from_results(doc)

    def test_document_without_strategies_rejected(self):
        with pytest.raises(BacktestError, match="strategies"):
            positions_from_results({"query": "x"})

    def test_leg_without_iv_rejected(self):
        _, doc = small_result_doc()
        doc["strategies"][0]["legs"][0]["iv"] = None
        with pytest.raises(BacktestError, match="carries no iv"):
            positions_from_results(doc)


# ============================================================
# Spot series loading and cohorts
# ============================================================


class TestLoadSpots:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "spots.csv"
        path.write_text("date,close\n2025-06-02,100.5\n2025-06-03,101.25\n")
        spots = load_spots(str(path))
        assert spots == {dt.date(2025, 6, 2): 100.5,
                         dt.date(2025, 6, 3): 101.25}

    def test_header_required(self, tmp_path):
        path = tmp_path / "spots.csv"
        path.write_text("day,price\n2025-06-02,100.5\n")
        with pytest.raises(BacktestError, match="date,close"):
            load_spots(str(path))

    def test_empty_series_rejected(self, tmp_path):
        path = tmp_path / "spots.csv"
        path.write_text("date,close\n")
        with pytest.raises(BacktestError, match="empty"):
            load_spots(str(path))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "spots.csv"
        path.write_text("date,close\n2025-06-02,100.5,extra\n")
        with pytest.raises(BacktestError, match="bad spot row"):
            load_spots(str(path))


class TestRunCohorts:
    def test_all_and_top_cohorts(self):
        positions = [
            Position(f"p{i}", (leg(1, "call", 100.0 + 5 * i, 10,
                                   entry_price=2.0),))
            for i in range(3)
        ]
        reports = run_cohorts(positions, flat_spots(100.0, 10), ENTRY,
                              ENTRY + dt.timedelta(days=10))
        assert set(reports) == {"all", "top"}
        assert reports["all"].n == 3
        assert reports["top"].n == 1
        assert reports["top"].rows[0].label == "p0"

    def test_no_positions_rejected(self):
        with pytest.raises(BacktestError, match="no positions"):
            run_cohorts([], flat_spots(100.0, 5), ENTRY,
                        ENTRY + dt.timedelta(days=5))

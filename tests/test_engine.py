"""Execution engine tests: filtering, assembly, aggregates, ordering.

The heavyweight checks compare the engine against the brute-force oracle
in helpers.py (exhaustive Cartesian product, independent aggregate math)
across randomized snapshots and queries, then pin down the hand-checkable
corners: soft-match bands, cash sign conventions, HAVING semantics,
ordering ties, budget refusal, and byte-stable serialization.
"""

import dataclasses
import datetime as dt
import random

import numpy as np
import pytest

from oql import serialize
from oql.catalog import build_catalog, validate
from oql.chain import ChainSnapshot, ContractRecord, occ_ticker
from oql.config import RunConfig
from oql.engine import (
    StrategyInstance,
    StrategyLeg,
    assemble,
    compute_aggregates,
    execute,
    filter_legs,
    order_and_limit,
    result_to_json,
    result_to_table,
    soft_match,
    survivors,
)
from oql.errors import CombinatorialBudgetExceeded, UnderlyingMismatch
from oql.syntax import LegCondition, OrderItem, QueryAst, StratCondition, parse_text

from helpers import (
    aggregates_equal,
    oracle_candidates,
    oracle_order,
    oracle_survivors,
    random_snapshot as _random_snapshot,
    random_valid_query,
)

AS_OF = dt.date(2025, 6, 2)
CATALOG = build_catalog()


def rec(underlying: str, strike: float, option_type: str, price: float,
        days: int, *, iv: float = 0.3, delta: float | None = 0.5,
        gamma: float | None = 0.01, vega: float | None = 0.2,
        theta: float | None = -0.05, volume: int = 500) -> ContractRecord:
    """Fully populated record (enrich leaves it untouched)."""
    expiry = AS_OF + dt.timedelta(days=days)
    return ContractRecord(
        ticker=occ_ticker(underlying, expiry, option_type, strike),
        underlying=underlying, as_of=AS_OF, expiry=expiry, strike=strike,
        option_type=option_type, price=price, volume=volume, iv=iv,
        delta=delta, gamma=gamma, vega=vega, theta=theta)


def _records_of(snapshot: ChainSnapshot, candidates) -> list[ContractRecord]:
    """One role's candidate table rows as the snapshot records they stand for."""
    return [snapshot.records[i] for i in candidates["row"]]


def snap(records, *, underlying: str = "SPY", spot: float = 100.0,
         rate: float = 0.04) -> ChainSnapshot:
    return ChainSnapshot(underlying=underlying, as_of=AS_OF, spot=spot,
                         rate=rate, records=tuple(records))


# ============================================================
# Soft matching (~)
# ============================================================


class TestSoftMatch:
    @pytest.mark.parametrize("value,expected", [
        (25.49, False),
        (25.5, True),      # lower edge is inclusive
        (26.0, True),
        (30.0, True),
        (34.5, True),      # upper edge is inclusive
        (34.51, False),
    ])
    def test_band_around_30_at_15_percent(self, value, expected):
        assert soft_match(value, 30.0, 0.15, 1e-6) is expected

    @pytest.mark.parametrize("value,expected", [
        (-0.3451, False),
        (-0.345, True),    # band uses |target|, so it is symmetric
        (-0.30, True),
        (-0.255, True),
        (-0.2549, False),
        (0.30, False),     # right magnitude, wrong sign
    ])
    def test_band_around_negative_target(self, value, expected):
        assert soft_match(value, -0.30, 0.15, 1e-6) is expected

    def test_zero_target_uses_absolute_band(self):
        assert soft_match(0.0, 0.0, 0.15, 1e-6)
        assert soft_match(1e-6, 0.0, 0.15, 1e-6)
        assert not soft_match(2e-6, 0.0, 0.15, 1e-6)
        assert soft_match(-1e-6, 0.0, 0.15, 1e-6)

    def test_dte_ladder_keeps_26_through_34(self):
        # One call per day-to-expiry from 20 to 40; Dte ~ 30 at the
        # default 15% tolerance admits [25.5, 34.5], i.e. 26..34.
        records = [rec("SPY", 100.0, "call", 2.0, d) for d in range(20, 41)]
        result = execute("SELECT LONG_CALL FROM SPY WHERE Dte ~ 30",
                         snap(records))
        got = sorted(inst.legs[0].record.dte() for inst in result.strategies)
        assert got == list(range(26, 35))

    def test_delta_band_uses_magnitude_of_target(self):
        deltas = [-0.40, -0.3451, -0.345, -0.30, -0.255, -0.2549, -0.10]
        records = [
            rec("SPY", 90.0 + i, "put", 2.0, 30, delta=d)
            for i, d in enumerate(deltas)
        ]
        result = execute("SELECT LONG_PUT FROM SPY WHERE Delta ~ -0.30",
                         snap(records))
        got = sorted(inst.legs[0].record.delta for inst in result.strategies)
        assert got == [-0.345, -0.30, -0.255]

    def test_epsilon_override_widens_the_band(self):
        records = [rec("SPY", 100.0, "call", 2.0, d) for d in range(20, 41)]
        config = RunConfig(epsilon=0.30)
        result = execute("SELECT LONG_CALL FROM SPY WHERE Dte ~ 30",
                         snap(records), config)
        got = sorted(inst.legs[0].record.dte() for inst in result.strategies)
        assert got == list(range(21, 40))  # [21, 39]


# ============================================================
# Filtering details
# ============================================================


class TestFiltering:
    def test_missing_field_value_never_matches(self):
        known = rec("SPY", 100.0, "call", 2.0, 30, delta=0.5)
        unknown = rec("SPY", 105.0, "call", 1.0, 30, delta=None)
        vq = validate(parse_text(
            "SELECT LONG_CALL FROM SPY WHERE Delta > 0.1"))
        snapshot = snap([known, unknown])
        cands = filter_legs(vq, snapshot, RunConfig())
        assert ([r.ticker for r in _records_of(snapshot, cands["L"])]
                == [known.ticker])

    def test_missing_value_also_fails_not_equal(self):
        unknown = rec("SPY", 105.0, "call", 1.0, 30, delta=None)
        vq = validate(parse_text(
            "SELECT LONG_CALL FROM SPY WHERE Delta != 0.5"))
        snapshot = snap([unknown])
        cands = filter_legs(vq, snapshot, RunConfig())
        assert _records_of(snapshot, cands["L"]) == []

    def test_moneyness_equality_and_inequality(self):
        records = [rec("SPY", k, "call", 2.0, 30)
                   for k in (90.0, 99.5, 100.5, 110.0)]
        snapshot = snap(records)
        vq_atm = validate(parse_text(
            "SELECT LONG_CALL FROM SPY WHERE Moneyness = ATM"))
        cands = filter_legs(vq_atm, snapshot, RunConfig())
        assert (sorted(r.strike for r in _records_of(snapshot, cands["L"]))
                == [99.5, 100.5])
        vq_not = validate(parse_text(
            "SELECT LONG_CALL FROM SPY WHERE Moneyness != ATM"))
        cands = filter_legs(vq_not, snapshot, RunConfig())
        assert (sorted(r.strike for r in _records_of(snapshot, cands["L"]))
                == [90.0, 110.0])

    def test_role_condition_only_constrains_that_role(self):
        lows = [rec("SPY", k, "call", 5.0, 30) for k in (90.0, 95.0)]
        highs = [rec("SPY", k, "call", 1.0, 30) for k in (105.0, 110.0)]
        vq = validate(parse_text(
            "SELECT BULL_CALL_SPREAD FROM SPY WHERE L.Strike < 100 "
            "AND S.Strike > 100"))
        snapshot = snap(lows + highs)
        cands = filter_legs(vq, snapshot, RunConfig())
        assert (sorted(r.strike for r in _records_of(snapshot, cands["L"]))
                == [90.0, 95.0])
        assert (sorted(r.strike for r in _records_of(snapshot, cands["S"]))
                == [105.0, 110.0])

    def test_bare_condition_constrains_every_role(self):
        records = [rec("SPY", k, "call", 2.0, d)
                   for k in (95.0, 105.0) for d in (30, 60)]
        vq = validate(parse_text(
            "SELECT BULL_CALL_SPREAD FROM SPY WHERE Dte ~ 30"))
        snapshot = snap(records)
        cands = filter_legs(vq, snapshot, RunConfig())
        for role in ("L", "S"):
            assert {r.dte() for r in _records_of(snapshot, cands[role])} == {30}

    def test_candidates_sorted_by_expiry_strike_ticker(self):
        records = [rec("SPY", k, "call", 2.0, d)
                   for k in (110.0, 90.0) for d in (60, 30)]
        vq = validate(parse_text("SELECT LONG_CALL FROM SPY"))
        snapshot = snap(records)
        cands = filter_legs(vq, snapshot, RunConfig())
        keys = [(r.expiry, r.strike) for r in _records_of(snapshot, cands["L"])]
        assert keys == sorted(keys)

    def test_volume_past_the_float_range_still_compares(self):
        # int() reads any digit string a chain file holds; float() cannot
        records = [rec("SPY", 100.0, "call", 2.0, 30, volume=10 ** 400),
                   rec("SPY", 105.0, "call", 1.0, 30, volume=10)]
        result = execute("SELECT LONG_CALL FROM SPY WHERE Volume > 1000000",
                         snap(records))
        assert [i.legs[0].record.strike for i in result.strategies] == [100.0]

    def test_matches_the_oracle_record_for_record(self):
        rng = random.Random(977)
        extra_fields = ("Iv", "Delta", "Gamma", "Vega", "Theta", "Volume", "Dte")
        nonempty = 0
        for _ in range(200):
            snapshot = _random_snapshot(rng)
            # mixed-length tickers and missing Greeks
            snapshot = dataclasses.replace(snapshot, records=tuple(
                dataclasses.replace(
                    r, ticker=r.ticker[:rng.randint(4, 20)],
                    **{g: None for g in ("delta", "gamma", "vega", "theta")
                       if rng.random() < 0.2})
                for r in snapshot.records))
            ast = random_valid_query(rng, snapshot)
            sample = rng.choice(snapshot.records)
            extra = []
            for _ in range(rng.randint(0, 2)):
                field = rng.choice(extra_fields)
                value = getattr(sample, field.lower()) if field != "Dte" else sample.dte()
                target = -0.3 if value is None else round(float(value), 3)
                role = rng.choice((None,) + CATALOG[ast.strategy].role_ids)
                extra.append(LegCondition(role, field, rng.choice(
                    ("=", "!=", "<", ">", "<=", ">=", "~")), target))
            vq = validate(dataclasses.replace(ast, where=ast.where + tuple(extra)))
            config = RunConfig(atm_band=rng.choice((0.0, 0.01, 0.05)))
            got = filter_legs(vq, snapshot, config)
            want = oracle_candidates(vq, snapshot, config)
            assert list(got) == list(want)
            for role, records in want.items():
                assert _records_of(snapshot, got[role]) == records
            nonempty += all(want.values())
        assert nonempty >= 80


# ============================================================
# Aggregates on hand-built structures
# ============================================================


class TestAggregates:
    def condor(self):
        lp = rec("SPY", 85.0, "put", 1.2, 30, delta=-0.05, gamma=0.004,
                 vega=0.05, theta=-0.010)
        sp = rec("SPY", 90.0, "put", 2.9, 30, delta=-0.25, gamma=0.020,
                 vega=0.15, theta=-0.030)
        sc = rec("SPY", 110.0, "call", 3.1, 30, delta=0.20, gamma=0.018,
                 vega=0.14, theta=-0.028)
        lc = rec("SPY", 115.0, "call", 1.4, 30, delta=0.05, gamma=0.005,
                 vega=0.06, theta=-0.012)
        return {"LP": lp, "SP": sp, "SC": sc, "LC": lc}

    def condor_aggregates(self):
        schema = CATALOG["IRON_CONDOR"]
        legs = self.condor()
        assignment = tuple(legs[r] for r in schema.role_ids)
        return compute_aggregates(schema, assignment, RunConfig())

    def test_condor_cash_and_bounds(self):
        agg = self.condor_aggregates()
        # credit/share: (3.1 + 2.9) - (1.4 + 1.2) = 3.4
        assert agg["net_debit"] is None
        assert agg["net_credit"] == pytest.approx(340.0)
        assert agg["max_profit"] == pytest.approx(340.0)
        # worst loss: wing width 5 minus the credit, times the multiplier
        assert agg["max_loss"] == pytest.approx(160.0)
        assert agg["rr_ratio"] == pytest.approx(340.0 / 160.0)
        assert agg["width"] == pytest.approx(30.0)  # 115 - 85, unscaled

    def test_condor_breakevens_are_spot_levels(self):
        agg = self.condor_aggregates()
        assert agg["breakeven_low"] == pytest.approx(90.0 - 3.4, abs=1e-9)
        assert agg["breakeven_high"] == pytest.approx(110.0 + 3.4, abs=1e-9)

    def test_condor_net_greeks_scale_with_multiplier(self):
        agg = self.condor_aggregates()
        assert agg["net_delta"] == pytest.approx(
            (-0.20 + 0.05 + 0.25 - 0.05) * 100.0)
        assert agg["net_gamma"] == pytest.approx(
            (-0.018 + 0.005 - 0.020 + 0.004) * 100.0)
        assert agg["net_vega"] == pytest.approx(
            (-0.14 + 0.06 - 0.15 + 0.05) * 100.0)
        assert agg["net_theta"] == pytest.approx(
            (0.028 - 0.012 + 0.030 - 0.010) * 100.0)

    def test_custom_multiplier_rescales_cash_not_levels(self):
        schema = CATALOG["IRON_CONDOR"]
        legs = self.condor()
        assignment = tuple(legs[r] for r in schema.role_ids)
        agg = compute_aggregates(schema, assignment, RunConfig(multiplier=10))
        assert agg["net_credit"] == pytest.approx(34.0)
        assert agg["max_loss"] == pytest.approx(16.0)
        assert agg["width"] == pytest.approx(30.0)
        assert agg["breakeven_low"] == pytest.approx(86.6, abs=1e-9)

    def test_missing_greek_propagates_to_that_net_only(self):
        schema = CATALOG["BULL_CALL_SPREAD"]
        lo = rec("SPY", 95.0, "call", 5.0, 30, vega=None)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        agg = compute_aggregates(schema, (lo, hi), RunConfig())
        assert agg["net_vega"] is None
        assert agg["net_delta"] is not None
        assert agg["net_debit"] == pytest.approx(300.0)

    def test_long_call_unbounded_profit(self):
        schema = CATALOG["LONG_CALL"]
        agg = compute_aggregates(schema, (rec("SPY", 100.0, "call", 2.5, 30),),
                                 RunConfig())
        assert agg["net_debit"] == pytest.approx(250.0)
        assert agg["max_profit"] == float("inf")
        assert agg["max_loss"] == pytest.approx(250.0)
        assert agg["rr_ratio"] is None  # no finite profit bound

    def test_net_credit_spread_that_cannot_lose(self):
        # A low-strike call priced under a higher-strike call is an
        # arbitrage, but the bookkeeping must still be consistent:
        # entry is a credit and the worst terminal outcome is a gain.
        schema = CATALOG["BULL_CALL_SPREAD"]
        lo = rec("SPY", 90.0, "call", 1.0, 30)
        hi = rec("SPY", 100.0, "call", 3.0, 30)
        agg = compute_aggregates(schema, (lo, hi), RunConfig())
        assert agg["net_credit"] == pytest.approx(200.0)
        assert agg["max_loss"] == pytest.approx(-200.0)  # guaranteed profit
        assert agg["max_profit"] == pytest.approx(1200.0)
        assert agg["rr_ratio"] is None  # undefined without a real loss side

    def test_zero_cost_structure_counts_as_debit_zero(self):
        schema = CATALOG["BULL_CALL_SPREAD"]
        lo = rec("SPY", 95.0, "call", 2.0, 30)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        agg = compute_aggregates(schema, (lo, hi), RunConfig())
        assert agg["net_debit"] == 0.0
        assert agg["net_credit"] is None

    def test_calendar_debit_risks_only_the_debit(self):
        schema = CATALOG["CALENDAR_CALL"]
        front = rec("SPY", 100.0, "call", 2.0, 30)
        back = rec("SPY", 100.0, "call", 3.5, 60)
        agg = compute_aggregates(schema, (front, back), RunConfig())
        assert agg["net_debit"] == pytest.approx(150.0)
        assert agg["max_loss"] == pytest.approx(150.0)
        assert agg["max_profit"] is None       # no terminal payoff claim
        assert agg["breakeven_low"] is None
        assert agg["breakeven_high"] is None
        assert agg["rr_ratio"] is None
        assert agg["width"] == 0.0

    def test_calendar_credit_claims_no_loss_bound(self):
        schema = CATALOG["CALENDAR_CALL"]
        front = rec("SPY", 100.0, "call", 4.0, 30)
        back = rec("SPY", 100.0, "call", 3.0, 60)
        agg = compute_aggregates(schema, (front, back), RunConfig())
        assert agg["net_credit"] == pytest.approx(100.0)
        assert agg["max_loss"] is None
        assert agg["max_profit"] is None


# ============================================================
# HAVING semantics
# ============================================================


class TestHaving:
    def test_unavailable_aggregate_rejects(self):
        # rr_ratio is undefined for a long call, so any rr_ratio
        # condition filters every long call out.
        records = [rec("SPY", k, "call", 2.0, 30) for k in (100.0, 105.0)]
        result = execute("SELECT LONG_CALL FROM SPY HAVING rr_ratio > 0",
                         snap(records))
        assert result.strategies == []
        assert result.stats.assembled == 2
        assert result.stats.having_passed == 0

    def test_between_is_inclusive_at_both_bounds(self):
        lo = rec("SPY", 95.0, "call", 5.0, 30)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        snapshot = snap([lo, hi], rate=0.0)
        # net_debit is exactly 300
        for text, expect in [
            ("HAVING net_debit BETWEEN 300 AND 400", 1),
            ("HAVING net_debit BETWEEN 200 AND 300", 1),
            ("HAVING net_debit BETWEEN 300 AND 300", 1),
            ("HAVING net_debit BETWEEN 300.01 AND 400", 0),
            ("HAVING net_debit BETWEEN 200 AND 299.99", 0),
        ]:
            result = execute(f"SELECT BULL_CALL_SPREAD FROM SPY {text}",
                             snapshot)
            assert len(result.strategies) == expect, text

    def test_soft_match_applies_to_aggregates(self):
        lo = rec("SPY", 95.0, "call", 5.0, 30)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        snapshot = snap([lo, hi], rate=0.0)
        assert len(execute("SELECT BULL_CALL_SPREAD FROM SPY "
                           "HAVING net_debit ~ 330", snapshot).strategies) == 1
        assert len(execute("SELECT BULL_CALL_SPREAD FROM SPY "
                           "HAVING net_debit ~ 360", snapshot).strategies) == 0

    def test_conditions_conjoin(self):
        lo = rec("SPY", 95.0, "call", 5.0, 30)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        snapshot = snap([lo, hi], rate=0.0)
        result = execute(
            "SELECT BULL_CALL_SPREAD FROM SPY "
            "HAVING net_debit > 100 AND width < 5", snapshot)
        assert result.strategies == []


# ============================================================
# Ordering and LIMIT
# ============================================================


def _instance(ticker: str, **agg_overrides) -> StrategyInstance:
    record = rec("SPY", 100.0, "call", 2.0, 30)
    record = dataclasses.replace(record, ticker=ticker)
    agg: dict = dict.fromkeys(
        ("net_debit", "net_credit", "net_delta", "net_gamma", "net_vega",
         "net_theta", "max_loss", "max_profit", "rr_ratio", "width",
         "breakeven_low", "breakeven_high"))
    agg.update(agg_overrides)
    leg = StrategyLeg(role="L", record=record, direction=1, quantity=1)
    return StrategyInstance(strategy_type="LONG_CALL", legs=(leg,),
                            aggregates=agg)


class TestOrdering:
    def make(self):
        return [
            _instance("B", rr_ratio=2.0, width=10.0),
            _instance("D", rr_ratio=None, width=5.0),
            _instance("A", rr_ratio=1.0, width=10.0),
            _instance("C", rr_ratio=2.0, width=10.0),
        ]

    def order(self, instances, items, limit=None):
        order_by = tuple(OrderItem(field=f, direction=d) for f, d in items)
        return [inst.ticker_key()
                for inst in order_and_limit(instances, order_by, limit)]

    def test_ascending_with_missing_last(self):
        got = self.order(self.make(), [("rr_ratio", "ASC")])
        assert got == ["A", "B", "C", "D"]

    def test_descending_keeps_missing_last(self):
        got = self.order(self.make(), [("rr_ratio", "DESC")])
        assert got == ["B", "C", "A", "D"]

    def test_ties_break_on_concatenated_tickers(self):
        got = self.order(self.make(), [("width", "DESC")])
        assert got == ["A", "B", "C", "D"]

    def test_secondary_key_applies_within_ties(self):
        got = self.order(self.make(), [("width", "DESC"), ("rr_ratio", "DESC")])
        assert got == ["B", "C", "A", "D"]

    def test_no_order_by_is_ticker_order(self):
        got = self.order(self.make(), [])
        assert got == ["A", "B", "C", "D"]

    def test_limit_truncates_after_ranking(self):
        got = self.order(self.make(), [("rr_ratio", "DESC")], limit=2)
        assert got == ["B", "C"]

    def test_limit_larger_than_result_is_harmless(self):
        got = self.order(self.make(), [("rr_ratio", "DESC")], limit=99)
        assert len(got) == 4


# ============================================================
# Guard rails
# ============================================================


class TestGuards:
    def test_underlying_mismatch(self):
        snapshot = snap([rec("SPY", 100.0, "call", 2.0, 30)])
        with pytest.raises(UnderlyingMismatch, match="QQQ") as exc_info:
            execute("SELECT LONG_CALL FROM QQQ", snapshot)
        assert "SPY" in str(exc_info.value)
        assert exc_info.value.stage == "validate"

    def test_combinatorial_budget(self):
        records = [rec("SPY", k, "call", 2.0, d)
                   for k in (100.0, 105.0, 110.0, 115.0) for d in (30, 60)]
        config = RunConfig(combinatorial_cap=10)
        with pytest.raises(CombinatorialBudgetExceeded,
                           match="exceeds cap 10") as exc_info:
            execute("SELECT BULL_CALL_SPREAD FROM SPY", snap(records), config)
        assert exc_info.value.stage == "assemble"

    def test_budget_counts_raw_product_before_rules(self):
        # 8 calls -> raw product 64 even though only ordered pairs survive.
        records = [rec("SPY", k, "call", 2.0, d)
                   for k in (100.0, 105.0, 110.0, 115.0) for d in (30, 60)]
        result = execute("SELECT BULL_CALL_SPREAD FROM SPY", snap(records),
                         RunConfig(combinatorial_cap=64))
        assert result.stats.raw_product == 64

    def test_duplicate_ticker_cannot_fill_two_roles(self):
        # A single strike offers no straddle partner pair problem, but a
        # calendar with one expiry would need the same contract twice.
        only = rec("SPY", 100.0, "call", 2.0, 30)
        vq = validate(parse_text("SELECT STRADDLE FROM SPY"))
        put_twin = rec("SPY", 100.0, "put", 2.0, 30)
        result = execute("SELECT STRADDLE FROM SPY", snap([only, put_twin]))
        assert len(result.strategies) == 1
        roles = {leg.role: leg.record.option_type
                 for leg in result.strategies[0].legs}
        assert roles == {"C": "call", "P": "put"}
        del vq


# ============================================================
# Serialization shapes
# ============================================================


class TestResultJson:
    def run_long_call(self, config=None):
        records = [rec("SPY", k, "call", 2.0 + i, 30)
                   for i, k in enumerate((100.0, 105.0))]
        config = config or RunConfig()
        result = execute("SELECT LONG_CALL FROM SPY ORDER BY net_debit ASC",
                         snap(records), config)
        return result_to_json(result, config)

    def test_standard_document_shape(self):
        doc = self.run_long_call()
        assert set(doc) == {"query", "strategy_type", "underlying", "as_of",
                            "config", "stats", "strategies"}
        assert doc["strategy_type"] == "LONG_CALL"
        assert doc["underlying"] == "SPY"
        assert doc["as_of"] == "2025-06-02"
        assert doc["query"].startswith("SELECT LONG_CALL FROM SPY")
        assert set(doc["stats"]) == {"candidates", "filtered", "raw_product",
                                     "assembled", "having_passed", "returned"}
        assert doc["stats"]["candidates"] == {"L": 2}
        assert doc["stats"]["returned"] == 2

    def test_standard_leg_shape(self):
        doc = self.run_long_call()
        leg = doc["strategies"][0]["legs"][0]
        assert set(leg) == {"role", "ticker", "direction", "quantity",
                            "strike", "expiry", "price", "iv"}
        assert leg["role"] == "L"
        assert leg["direction"] == 1
        assert leg["quantity"] == 1
        assert leg["strike"] == 100.0
        assert leg["expiry"] == "2025-07-02"

    def test_unbounded_sides_become_null_plus_flag(self):
        doc = self.run_long_call()
        agg = doc["strategies"][0]["aggregates"]
        assert agg["max_profit"] is None
        assert agg["max_profit_unbounded"] is True
        assert agg["max_loss"] == pytest.approx(200.0)
        assert agg["max_loss_unbounded"] is False
        assert agg["rr_ratio"] is None
        assert "rr_ratio_unbounded" not in agg

    def test_blueprint_mode_is_compact(self):
        doc = self.run_long_call(RunConfig(output_mode="blueprint"))
        strat = doc["strategies"][0]
        assert set(strat) == {"strategy_type", "strategy_details"}
        assert strat["strategy_type"] == "LONG_CALL"
        details = strat["strategy_details"]
        assert set(details) == {"contract_ticker_L", "price_L"}
        assert details["contract_ticker_L"].startswith("O:SPY")
        assert details["price_L"] == 2.0

    def test_table_rendering_marks_unbounded_and_missing(self):
        records = [rec("SPY", 100.0, "call", 2.0, 30)]
        config = RunConfig()
        result = execute("SELECT LONG_CALL FROM SPY", snap(records), config)
        text = result_to_table(result)
        assert "LONG_CALL on SPY as of 2025-06-02: 1 result(s)" in text.splitlines()[0]
        assert "max_profit=unbounded" in text
        assert "rr_ratio=-" in text


# ============================================================
# Oracle equivalence on randomized snapshots
# ============================================================


def _assert_sound(vq, snapshot, config, instances):
    """Re-verify every returned instance from first principles."""
    cands = oracle_candidates(vq, snapshot, config)
    allowed = {rid: {r.ticker for r in recs} for rid, recs in cands.items()}
    schema = vq.schema
    for inst in instances:
        assert inst.strategy_type == schema.name
        tickers = [leg.record.ticker for leg in inst.legs]
        assert len(set(tickers)) == len(tickers)
        for role, leg in zip(schema.roles, inst.legs):
            assert leg.role == role.id
            assert leg.direction == role.direction
            assert leg.quantity == role.quantity
            if role.option_type != "either":
                assert leg.record.option_type == role.option_type
            assert leg.record.ticker in allowed[role.id]
        # structural rules, checked pairwise on the final records
        by_role = {leg.role: leg.record for leg in inst.legs}
        for rule in schema.rules:
            seq = [by_role[r] for r in rule.roles]
            if rule.kind == "strike_order":
                assert all(a.strike < b.strike for a, b in zip(seq, seq[1:]))
            elif rule.kind == "strike_equal":
                assert len({r.strike for r in seq}) == 1
            elif rule.kind == "expiry_equal":
                assert len({r.expiry for r in seq}) == 1
            elif rule.kind == "expiry_order":
                assert all(a.expiry < b.expiry for a, b in zip(seq, seq[1:]))
            else:
                a, b, c = seq
                assert b.strike - a.strike == c.strike - b.strike


class TestOracleEquivalence:
    def test_engine_matches_brute_force_on_100_snapshots(self):
        rng = random.Random(20250602)
        config = RunConfig()
        total_rows = 0
        nonempty_runs = 0
        multi_leg_rows = 0
        for _ in range(100):
            snapshot = _random_snapshot(rng)
            assert len(snapshot.records) <= 50
            ast = random_valid_query(rng, snapshot)
            vq = validate(ast)
            expected, want_stats = oracle_survivors(vq, snapshot, config)
            instances, stats = survivors(vq, snapshot, config)

            got = {
                tuple(leg.record.ticker for leg in inst.legs): inst.aggregates
                for inst in instances
            }
            want = dict(expected)
            assert set(got) == set(want)
            for key in got:
                assert aggregates_equal(got[key], want[key]), key

            assert stats.candidates == want_stats["candidates"]
            assert stats.raw_product == want_stats["raw_product"]
            assert stats.assembled == want_stats["assembled"]
            assert stats.having_passed == want_stats["having_passed"]
            assert stats.filtered == sum(stats.candidates.values())

            _assert_sound(vq, snapshot, config, instances)

            ranked = order_and_limit(instances, ast.order_by, ast.limit)
            want_ranked = oracle_order(expected, ast.order_by, ast.limit)
            assert ([tuple(leg.record.ticker for leg in inst.legs)
                     for inst in ranked]
                    == [row[0] for row in want_ranked])

            total_rows += len(instances)
            if instances:
                nonempty_runs += 1
                if len(vq.schema.roles) > 1:
                    multi_leg_rows += len(instances)
        # the comparison must not be vacuous
        assert nonempty_runs >= 30
        assert total_rows >= 400
        assert multi_leg_rows >= 300

    def test_adding_a_condition_never_grows_the_result(self):
        rng = random.Random(77)
        config = RunConfig()
        pool = [_random_snapshot(rng) for _ in range(12)]
        catalog = build_catalog()
        grew = 0
        shrank = 0
        for _ in range(500):
            snapshot = rng.choice(pool)
            base = random_valid_query(rng, snapshot)
            base = dataclasses.replace(base, order_by=(), limit=None)
            schema = catalog[base.strategy]
            if rng.random() < 0.5:
                role = (rng.choice(schema.role_ids)
                        if rng.random() < 0.5 else None)
                extra_where = rng.choice((
                    LegCondition(role, "Dte", "~", 30.0),
                    LegCondition(role, "Delta", ">", 0.0),
                    LegCondition(role, "Strike", "<", snapshot.spot),
                    LegCondition(role, "Volume", ">", 400.0),
                    LegCondition(role, "Price", ">", 0.02 * snapshot.spot),
                ))
                tighter = dataclasses.replace(
                    base, where=base.where + (extra_where,))
            else:
                extra_having = rng.choice((
                    StratCondition("net_theta", ">", 0.0),
                    StratCondition("width", "BETWEEN", lo=0.0, hi=25.0),
                    StratCondition("max_loss", "<", 1000.0),
                    StratCondition("net_debit", "<", 800.0),
                ))
                tighter = dataclasses.replace(
                    base, having=base.having + (extra_having,))
            wide, _ = survivors(validate(base), snapshot, config)
            narrow, _ = survivors(validate(tighter), snapshot, config)
            wide_keys = {inst.ticker_key() for inst in wide}
            narrow_keys = {inst.ticker_key() for inst in narrow}
            assert narrow_keys <= wide_keys
            if len(narrow_keys) > len(wide_keys):
                grew += 1
            if len(narrow_keys) < len(wide_keys):
                shrank += 1
        assert grew == 0
        assert shrank >= 50  # the extra condition must actually bite sometimes


# ============================================================
# Determinism
# ============================================================


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tsla_snapshot):
        from conftest import CONDOR_QUERY_TSLA
        config = RunConfig()
        one = serialize.dumps(result_to_json(
            execute(CONDOR_QUERY_TSLA, tsla_snapshot, config), config))
        two = serialize.dumps(result_to_json(
            execute(CONDOR_QUERY_TSLA, tsla_snapshot, config), config))
        assert one == two
        assert len(one) > 200

    def test_record_permutations_are_byte_identical(self, tsla_snapshot):
        from conftest import CONDOR_QUERY_TSLA
        config = RunConfig()
        baseline = serialize.dumps(result_to_json(
            execute(CONDOR_QUERY_TSLA, tsla_snapshot, config), config))
        rng = random.Random(5)
        for _ in range(5):
            records = list(tsla_snapshot.records)
            rng.shuffle(records)
            shuffled = dataclasses.replace(tsla_snapshot,
                                           records=tuple(records))
            doc = serialize.dumps(result_to_json(
                execute(CONDOR_QUERY_TSLA, shuffled, config), config))
            assert doc == baseline

    def test_permutation_determinism_without_order_by(self):
        rng = random.Random(99)
        config = RunConfig()
        for _ in range(10):
            snapshot = _random_snapshot(rng)
            ast = random_valid_query(rng, snapshot)
            ast = dataclasses.replace(ast, order_by=(), limit=None)
            baseline = serialize.dumps(result_to_json(
                execute(ast, snapshot, config), config))
            records = list(snapshot.records)
            rng.shuffle(records)
            shuffled = dataclasses.replace(snapshot, records=tuple(records))
            doc = serialize.dumps(result_to_json(
                execute(ast, shuffled, config), config))
            assert doc == baseline


# ============================================================
# Whole-pipeline stats
# ============================================================


class TestPipelineStats:
    def test_stage_counts_separate(self, tsla_snapshot):
        result = execute(
            "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 "
            "AND SC.Delta < 0.20 AND LC.Delta < 0.05 "
            "AND SP.Delta > -0.20 AND LP.Delta > -0.05 "
            "HAVING net_theta > 0 AND max_loss < 500 LIMIT 10",
            tsla_snapshot)
        s = result.stats
        assert set(s.candidates) == {"SC", "LC", "SP", "LP"}
        assert s.filtered == sum(s.candidates.values())
        assert s.raw_product > s.assembled > s.having_passed > s.returned
        assert s.returned == len(result.strategies) == 10

    def test_empty_result_keeps_stats(self):
        records = [rec("SPY", 100.0, "call", 2.0, 30)]
        result = execute("SELECT LONG_CALL FROM SPY WHERE Dte > 99",
                         snap(records))
        assert result.strategies == []
        assert result.stats.candidates == {"L": 0}
        assert result.stats.raw_product == 0
        assert result.stats.assembled == 0
        assert result.stats.returned == 0

    def test_query_text_is_canonical_form(self):
        records = [rec("SPY", 100.0, "call", 2.0, 30)]
        result = execute("select long_call from spy where dte ~ 30",
                         snap(records))
        assert result.text == "SELECT LONG_CALL FROM SPY WHERE Dte ~ 30"

    def test_accepts_pre_parsed_ast(self):
        records = [rec("SPY", 100.0, "call", 2.0, 30)]
        ast = parse_text("SELECT LONG_CALL FROM SPY")
        result = execute(ast, snap(records))
        assert len(result.strategies) == 1


# ============================================================
# Columnar core: index rows, top-k and enrich-once
# ============================================================


def _renamed(records, tickers):
    return [dataclasses.replace(r, ticker=t) for r, t in zip(records, tickers)]


class TestColumnarCore:
    def test_assemble_returns_int32_rows_in_product_order(self):
        records = [rec("SPY", k, "call", 2.0, d)
                   for k in (100.0, 105.0, 110.0) for d in (30, 60)]
        vq = validate(parse_text("SELECT BULL_CALL_SPREAD FROM SPY"))
        snapshot = snap(records)
        candidates = filter_legs(vq, snapshot, RunConfig())
        rows, raw = assemble(vq, candidates, RunConfig())
        assert rows.dtype == np.int32 and rows.shape == (6, 2)
        assert raw == 36
        assert rows.tolist() == sorted(rows.tolist())
        lows = _records_of(snapshot, candidates["L"])
        highs = _records_of(snapshot, candidates["S"])
        for i, j in rows.tolist():
            lo, hi = lows[i], highs[j]
            assert lo.strike < hi.strike and lo.expiry == hi.expiry

    def test_budget_refused_before_building_any_row(self):
        # a raw product of 1e18: anything beyond len() would never finish
        vq = validate(parse_text("SELECT BULL_CALL_SPREAD FROM SPY"))
        huge = {"L": range(10 ** 9), "S": range(10 ** 9)}
        with pytest.raises(CombinatorialBudgetExceeded) as exc_info:
            assemble(vq, huge, RunConfig())
        assert exc_info.value.stage == "assemble"

    def test_limit_boundary_inside_a_tie_of_mixed_length_tickers(self):
        # Widths tie at 10 for (100,110) "A"+"BZ" and (105,115) "AB"+"C".
        # As strings "ABC" < "ABZ"; as per-role ticker ranks the order
        # flips, so only the string tie-break picks the right second row.
        records = _renamed([rec("SPY", k, "call", 2.0, 30)
                            for k in (100.0, 105.0, 110.0, 115.0)],
                           ("A", "AB", "BZ", "C"))
        snapshot = snap(records)
        result = execute("SELECT BULL_CALL_SPREAD FROM SPY "
                         "ORDER BY width DESC LIMIT 2", snapshot)
        assert [inst.ticker_key() for inst in result.strategies] == ["AC", "ABC"]
        result = execute("SELECT BULL_CALL_SPREAD FROM SPY LIMIT 3", snapshot)
        assert ([inst.ticker_key() for inst in result.strategies]
                == ["AAB", "ABBZ", "ABC"])
        assert result.stats.having_passed == 6

    def test_top_k_matches_the_oracle_order(self):
        rng = random.Random(4242)
        config = RunConfig()
        fields = ("net_debit", "net_credit", "net_theta", "max_loss",
                  "max_profit", "rr_ratio", "width", "breakeven_low")
        compared = 0
        for trial in range(150):
            snapshot = _random_snapshot(rng)
            if trial % 2:
                # tickers of several lengths exercise the string tie-break
                snapshot = dataclasses.replace(snapshot, records=tuple(
                    dataclasses.replace(r, ticker=r.ticker[:rng.randint(4, 20)])
                    for r in snapshot.records))
            ast = random_valid_query(rng, snapshot)
            order_by = tuple(OrderItem(rng.choice(fields),
                                       rng.choice(("ASC", "DESC")))
                             for _ in range(rng.randint(0, 2)))
            ast = dataclasses.replace(ast, order_by=order_by,
                                      limit=rng.choice((1, 2, 3, 7, 25)))
            expected, _ = oracle_survivors(validate(ast), snapshot, config)
            want = [row[0] for row in oracle_order(expected, order_by, ast.limit)]
            got = [tuple(leg.record.ticker for leg in inst.legs)
                   for inst in execute(ast, snapshot, config).strategies]
            assert got == want
            compared += len(expected) > ast.limit
        assert compared >= 40  # LIMIT must actually cut most of the time

    def test_record_table_is_cached_per_snapshot(self):
        base = snap([rec("SPY", 100.0, "call", 2.0, 30),
                     rec("SPY", 105.0, "call", 1.0, 30)])
        bare = dataclasses.replace(base, records=tuple(
            dataclasses.replace(r, delta=None) for r in base.records))
        assert bare.table is bare.table
        copy = dataclasses.replace(bare)
        assert copy == bare and repr(copy) == repr(bare)
        assert copy.table is not bare.table
        assert copy.table.tobytes() == bare.table.tobytes()
        assert [f.name for f in dataclasses.fields(bare)] == [
            "underlying", "as_of", "spot", "rate", "records", "excluded",
            "enriched"]
        vq = validate(parse_text("SELECT BULL_CALL_SPREAD FROM SPY"))
        cands = filter_legs(vq, bare, RunConfig())
        # filtering reads the bare records as they are: no enrich
        assert not bare.enriched
        assert [r.delta for r in _records_of(bare, cands["L"])] == [None, None]
        assert not cands["L"]["delta_ok"].any()
        assert (cands["L"]["delta"] == 0.0).all()

    def test_execute_enriches_a_bare_snapshot(self):
        base = snap([rec("SPY", 100.0, "call", 2.0, 30),
                     rec("SPY", 105.0, "call", 1.0, 30)])
        bare = dataclasses.replace(base, records=tuple(
            dataclasses.replace(r, delta=None, vega=None)
            for r in base.records))
        assert not bare.enriched
        result = execute("SELECT BULL_CALL_SPREAD FROM SPY", bare)
        agg = result.strategies[0].aggregates
        assert agg["net_delta"] is not None and agg["net_vega"] is not None

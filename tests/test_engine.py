"""Execution engine tests: filtering, assembly, aggregates, ordering.

The heavyweight checks compare the engine against the brute-force oracle
in helpers.py (exhaustive Cartesian product, independent aggregate math)
across randomized snapshots and queries, then pin down the hand-checkable
corners: soft-match bands, cash sign conventions, HAVING semantics,
ordering ties, budget refusal, and byte-stable serialization.
"""

import collections
import dataclasses
import datetime as dt
import functools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oql import chain as chain_mod
from oql import engine, evalkit, pricing, serialize
from oql.catalog import build_catalog, validate
from oql.chain import ChainSnapshot, ContractRecord, generate_synthetic, occ_ticker
from oql.config import OUTPUT_MODES, RunConfig
from oql.engine import (
    Candidates,
    ResultSet,
    assemble,
    execute,
    filter_legs,
    order_and_limit,
    result_to_json,
    result_to_table,
    soft_match,
    survivors,
)
from oql.errors import CombinatorialBudgetExceeded, UnderlyingMismatch
from oql.fields import AGGREGATE_FIELDS, MONEYNESS_VALUES
from oql.syntax import LegCondition, OrderItem, QueryAst, StratCondition, parse_text

from helpers import (
    aggregates_equal,
    distinct_prefix,
    instance_to_json,
    oracle_candidates,
    oracle_moneyness,
    oracle_order,
    oracle_survivors,
    oracle_table,
    random_snapshot as _random_snapshot,
    random_valid_query,
    result_instances,
    row_aggregates,
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


def _records_of(snapshot: ChainSnapshot, rows) -> list[ContractRecord]:
    """One role's candidate rows as the snapshot records they stand for."""
    return [snapshot.records[i] for i in snapshot.columns["record"][rows]]


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
        got = sorted(inst.legs[0].record.dte()
                     for inst in result_instances(result))
        assert got == list(range(26, 35))

    def test_delta_band_uses_magnitude_of_target(self):
        deltas = [-0.40, -0.3451, -0.345, -0.30, -0.255, -0.2549, -0.10]
        records = [
            rec("SPY", 90.0 + i, "put", 2.0, 30, delta=d)
            for i, d in enumerate(deltas)
        ]
        result = execute("SELECT LONG_PUT FROM SPY WHERE Delta ~ -0.30",
                         snap(records))
        got = sorted(inst.legs[0].record.delta
                     for inst in result_instances(result))
        assert got == [-0.345, -0.30, -0.255]

    def test_epsilon_override_widens_the_band(self):
        records = [rec("SPY", 100.0, "call", 2.0, d) for d in range(20, 41)]
        config = RunConfig(epsilon=0.30)
        result = execute("SELECT LONG_CALL FROM SPY WHERE Dte ~ 30",
                         snap(records), config)
        got = sorted(inst.legs[0].record.dte()
                     for inst in result_instances(result))
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
        assert ([r.ticker for r in _records_of(snapshot, cands.rows["L"])]
                == [known.ticker])

    def test_missing_value_also_fails_not_equal(self):
        unknown = rec("SPY", 105.0, "call", 1.0, 30, delta=None)
        vq = validate(parse_text(
            "SELECT LONG_CALL FROM SPY WHERE Delta != 0.5"))
        snapshot = snap([unknown])
        cands = filter_legs(vq, snapshot, RunConfig())
        assert _records_of(snapshot, cands.rows["L"]) == []

    def test_moneyness_equality_and_inequality(self):
        records = [rec("SPY", k, "call", 2.0, 30)
                   for k in (90.0, 99.5, 100.5, 110.0)]
        snapshot = snap(records)
        vq_atm = validate(parse_text(
            "SELECT LONG_CALL FROM SPY WHERE Moneyness = ATM"))
        cands = filter_legs(vq_atm, snapshot, RunConfig())
        assert (sorted(r.strike for r in _records_of(snapshot, cands.rows["L"]))
                == [99.5, 100.5])
        vq_not = validate(parse_text(
            "SELECT LONG_CALL FROM SPY WHERE Moneyness != ATM"))
        cands = filter_legs(vq_not, snapshot, RunConfig())
        assert (sorted(r.strike for r in _records_of(snapshot, cands.rows["L"]))
                == [90.0, 110.0])

    def test_moneyness_codes_match_the_oracle_per_band(self):
        # strikes on, inside and outside both bands, for calls and puts
        records = [rec("SPY", k, t, 2.0, 30)
                   for t in ("call", "put")
                   for k in (90.0, 98.0, 99.0, 99.5, 100.0, 101.0, 102.0, 110.0)]
        snapshot = snap(records)
        row_records = _records_of(snapshot, range(len(records)))
        labels = {}
        for band in (0.01, 0.02):
            codes = snapshot.moneyness(band)
            assert codes.dtype == np.int8
            assert snapshot.moneyness(band) is codes
            labels[band] = [MONEYNESS_VALUES[c] for c in codes]
            assert labels[band] == [
                oracle_moneyness(r.option_type, r.strike, 100.0, band)
                for r in row_records]
            config = RunConfig(atm_band=band)
            for label in MONEYNESS_VALUES:
                for op in ("=", "!="):
                    vq = validate(parse_text(
                        f"SELECT STRADDLE FROM SPY WHERE Moneyness {op} {label}"))
                    got = filter_legs(vq, snapshot, config)
                    want = oracle_candidates(vq, snapshot, config)
                    for role, kept in want.items():
                        assert _records_of(snapshot, got.rows[role]) == kept
        # strikes 98 and 102 are ATM only in the wider band
        assert labels[0.01].count("ATM") == 8 and labels[0.02].count("ATM") == 12

    def test_role_condition_only_constrains_that_role(self):
        lows = [rec("SPY", k, "call", 5.0, 30) for k in (90.0, 95.0)]
        highs = [rec("SPY", k, "call", 1.0, 30) for k in (105.0, 110.0)]
        vq = validate(parse_text(
            "SELECT BULL_CALL_SPREAD FROM SPY WHERE L.Strike < 100 "
            "AND S.Strike > 100"))
        snapshot = snap(lows + highs)
        cands = filter_legs(vq, snapshot, RunConfig())
        assert (sorted(r.strike for r in _records_of(snapshot, cands.rows["L"]))
                == [90.0, 95.0])
        assert (sorted(r.strike for r in _records_of(snapshot, cands.rows["S"]))
                == [105.0, 110.0])

    def test_bare_condition_constrains_every_role(self):
        records = [rec("SPY", k, "call", 2.0, d)
                   for k in (95.0, 105.0) for d in (30, 60)]
        vq = validate(parse_text(
            "SELECT BULL_CALL_SPREAD FROM SPY WHERE Dte ~ 30"))
        snapshot = snap(records)
        cands = filter_legs(vq, snapshot, RunConfig())
        for role in ("L", "S"):
            assert {r.dte() for r in _records_of(snapshot, cands.rows[role])} == {30}

    def test_candidates_sorted_by_expiry_strike_ticker(self):
        # puts first, so record order is not row order; a put and a call
        # of one strike and expiry order by ticker
        records = [rec("SPY", k, t, 2.0, d, delta=0.5 if t == "call" else -0.5)
                   for t in ("put", "call") for k in (110.0, 90.0)
                   for d in (60, 30)]
        vq = validate(parse_text("SELECT LONG_CALL FROM SPY"))
        snapshot = snap(records)
        cands = filter_legs(vq, snapshot, RunConfig())
        keys = [(r.expiry, r.strike) for r in _records_of(snapshot, cands.rows["L"])]
        assert keys == sorted(keys)
        # the snapshot's rows: contiguous 1-D columns in (expiry, strike,
        # ticker) order, each row pointing at one record
        columns = snapshot.columns
        for col in columns.values():
            assert col.ndim == 1 and col.flags.c_contiguous
        rows = [(r.expiry, r.strike, r.ticker)
                for r in _records_of(snapshot, range(len(records)))]
        assert rows == sorted(rows)
        assert sorted(columns["record"].tolist()) == list(range(len(records)))
        for role_rows in cands.rows.values():
            assert (np.diff(role_rows) > 0).all()

    def test_volume_past_the_float_range_still_compares(self):
        # int() reads any digit string a chain file holds; float() cannot
        records = [rec("SPY", 100.0, "call", 2.0, 30, volume=10 ** 400),
                   rec("SPY", 105.0, "call", 1.0, 30, volume=10)]
        result = execute("SELECT LONG_CALL FROM SPY WHERE Volume > 1000000",
                         snap(records))
        assert [i.legs[0].record.strike
                for i in result_instances(result)] == [100.0]

    def test_matches_the_oracle_record_for_record(self):
        rng = random.Random(977)
        extra_fields = ("Iv", "Delta", "Gamma", "Vega", "Theta", "Volume", "Dte")
        nonempty = 0
        for _ in range(200):
            snapshot = _random_snapshot(rng)
            # mixed-length tickers and missing Greeks
            taken: set[str] = set()
            snapshot = dataclasses.replace(snapshot, records=tuple(
                dataclasses.replace(
                    r, ticker=distinct_prefix(r.ticker, rng.randint(4, 20), taken),
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
            assert list(got.rows) == list(want)
            for role, records in want.items():
                assert _records_of(snapshot, got.rows[role]) == records
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
        return row_aggregates(schema, assignment, RunConfig())

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
        agg = row_aggregates(schema, assignment, RunConfig(multiplier=10))
        assert agg["net_credit"] == pytest.approx(34.0)
        assert agg["max_loss"] == pytest.approx(16.0)
        assert agg["width"] == pytest.approx(30.0)
        assert agg["breakeven_low"] == pytest.approx(86.6, abs=1e-9)

    def test_missing_greek_propagates_to_that_net_only(self):
        schema = CATALOG["BULL_CALL_SPREAD"]
        lo = rec("SPY", 95.0, "call", 5.0, 30, vega=None)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        agg = row_aggregates(schema, (lo, hi), RunConfig())
        assert agg["net_vega"] is None
        assert agg["net_delta"] is not None
        assert agg["net_debit"] == pytest.approx(300.0)

    def test_long_call_unbounded_profit(self):
        schema = CATALOG["LONG_CALL"]
        agg = row_aggregates(schema, (rec("SPY", 100.0, "call", 2.5, 30),),
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
        agg = row_aggregates(schema, (lo, hi), RunConfig())
        assert agg["net_credit"] == pytest.approx(200.0)
        assert agg["max_loss"] == pytest.approx(-200.0)  # guaranteed profit
        assert agg["max_profit"] == pytest.approx(1200.0)
        assert agg["rr_ratio"] is None  # undefined without a real loss side

    def test_zero_cost_structure_counts_as_debit_zero(self):
        schema = CATALOG["BULL_CALL_SPREAD"]
        lo = rec("SPY", 95.0, "call", 2.0, 30)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        agg = row_aggregates(schema, (lo, hi), RunConfig())
        assert agg["net_debit"] == 0.0
        assert agg["net_credit"] is None

    def test_calendar_debit_risks_only_the_debit(self):
        schema = CATALOG["CALENDAR_CALL"]
        front = rec("SPY", 100.0, "call", 2.0, 30)
        back = rec("SPY", 100.0, "call", 3.5, 60)
        agg = row_aggregates(schema, (front, back), RunConfig())
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
        agg = row_aggregates(schema, (front, back), RunConfig())
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
        assert result_instances(result) == []
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
            assert len(result_instances(result)) == expect, text

    def test_soft_match_applies_to_aggregates(self):
        lo = rec("SPY", 95.0, "call", 5.0, 30)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        snapshot = snap([lo, hi], rate=0.0)
        for target, expect in ((330, 1), (360, 0)):
            result = execute("SELECT BULL_CALL_SPREAD FROM SPY "
                             f"HAVING net_debit ~ {target}", snapshot)
            assert len(result_instances(result)) == expect

    def test_conditions_conjoin(self):
        lo = rec("SPY", 95.0, "call", 5.0, 30)
        hi = rec("SPY", 105.0, "call", 2.0, 30)
        snapshot = snap([lo, hi], rate=0.0)
        result = execute(
            "SELECT BULL_CALL_SPREAD FROM SPY "
            "HAVING net_debit > 100 AND width < 5", snapshot)
        assert result_instances(result) == []


# ============================================================
# Ordering and LIMIT
# ============================================================


def _survivors(*rows: tuple[str, dict]) -> ResultSet:
    """One-role survivor columns for (ticker, aggregate overrides) rows."""
    records = tuple(dataclasses.replace(rec("SPY", 100.0, "call", 2.0, 30),
                                        ticker=ticker) for ticker, _ in rows)
    computed = {}
    for field in AGGREGATE_FIELDS:
        values = [agg.get(field) for _, agg in rows]
        computed[field] = (np.array([v or 0.0 for v in values]),
                           np.array([v is not None for v in values]))
    snapshot = snap(records)
    # survivor i holds record i, so snapshot.records reads survivor positions
    column_rows = np.argsort(snapshot.columns["record"]).astype(np.int32)[:, None]
    return ResultSet(query=validate(parse_text("SELECT LONG_CALL FROM SPY")),
                     snapshot=snapshot, stats=None,
                     passed=column_rows, config=RunConfig(),
                     computed=computed)


class TestOrdering:
    SUFFIX = ""  # appended to B and D

    def make(self):
        return _survivors(
            ("B" + self.SUFFIX, {"rr_ratio": 2.0, "width": 10.0}),
            ("D" + self.SUFFIX, {"rr_ratio": None, "width": 5.0}),
            ("A", {"rr_ratio": 1.0, "width": 10.0}),
            ("C", {"rr_ratio": 2.0, "width": 10.0}),
        )

    def order(self, surv, items, limit=None):
        order_by = tuple(OrderItem(field=f, direction=d) for f, d in items)
        return [surv.snapshot.records[i].ticker[0]
                for i in order_and_limit(surv, order_by, limit)]

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


class TestOrderingMixedTickerLengths(TestOrdering):
    """The same cases with tickers of several lengths, none a prefix of
    another, so they still rank on per-role ranks; string order is
    unchanged."""

    SUFFIX = "XY"


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
        put_twin = rec("SPY", 100.0, "put", 2.0, 30, delta=-0.5)
        result = execute("SELECT STRADDLE FROM SPY", snap([only, put_twin]))
        assert len(result_instances(result)) == 1
        roles = {leg.role: leg.record.option_type
                 for leg in result_instances(result)[0].legs}
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
            surv = survivors(vq, snapshot, config)
            instances, stats = result_instances(surv), surv.stats

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

            ranked = [instances[i] for i in
                      order_and_limit(surv, ast.order_by, ast.limit)]
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
            wide = result_instances(survivors(validate(base), snapshot, config))
            narrow = result_instances(
                survivors(validate(tighter), snapshot, config))
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
        assert s.returned == len(result_instances(result)) == 10

    def test_empty_result_keeps_stats(self):
        records = [rec("SPY", 100.0, "call", 2.0, 30)]
        result = execute("SELECT LONG_CALL FROM SPY WHERE Dte > 99",
                         snap(records))
        assert result_instances(result) == []
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
        assert len(result_instances(result)) == 1

    # (clauses, whether LIMIT cuts the rows HAVING kept)
    @pytest.mark.parametrize("clauses, cut", [
        (" HAVING net_theta > 0 ORDER BY rr_ratio DESC LIMIT 5", True),
        (" HAVING max_loss < 500 ORDER BY width DESC LIMIT 1000", False),
        (" HAVING net_credit > 0 ORDER BY max_profit DESC", False),
    ])
    def test_returned_is_known_before_ranking(self, tsla_snapshot, clauses,
                                              cut):
        result = execute(
            "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.3 "
            "AND LC.Delta < 0.15 AND SP.Delta > -0.3 AND LP.Delta > -0.15"
            + clauses, tsla_snapshot)
        returned = result.stats.returned
        assert result.ranking is not None  # nothing has ranked yet
        assert (returned < result.stats.having_passed) == cut
        assert 0 < len(result.rows) == returned
        assert result.ranking is None

    def test_returned_is_known_before_ranking_mixed_length_tickers(self):
        rng = random.Random(707)
        cut_inside_a_tie = 0
        for _ in range(20):
            limit = rng.randint(1, 12)
            result = execute(f"SELECT BULL_CALL_SPREAD FROM SPY ORDER BY "
                             f"net_delta DESC LIMIT {limit}",
                             snap(_heavy_tie_records(rng)))
            returned = result.stats.returned
            # tickers prefix each other: one key, the concatenated tickers
            (key,) = engine._ticker_ranks(result)
            assert key.dtype == object
            assert len(result.rows) == returned == min(
                limit, result.stats.having_passed)
            cut_inside_a_tie += limit < result.stats.having_passed
        assert cut_inside_a_tie >= 10


# ============================================================
# Columnar core: index rows, top-k and enrich-once
# ============================================================


def _renamed(records, tickers):
    return [dataclasses.replace(r, ticker=t) for r, t in zip(records, tickers)]


def _heavy_tie_records(rng: random.Random) -> list[ContractRecord]:
    """Calls at 4-9 strikes and two expiries, every one priced alike, so
    net_delta ties on every spread; distinct tickers of 1-4 letters."""
    taken: set[str] = set()
    records = []
    for k in range(rng.randint(4, 9)):
        for days in (30, 60):
            ticker = ""
            while not ticker or ticker in taken:
                ticker = "".join(rng.choice("ABZ")
                                 for _ in range(rng.randint(1, 4)))
            taken.add(ticker)
            records.append(dataclasses.replace(
                rec("SPY", 100.0 + 5.0 * k, "call", 2.0, days), ticker=ticker))
    return records


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
        lows = _records_of(snapshot, candidates.rows["L"])
        highs = _records_of(snapshot, candidates.rows["S"])
        for i, j in rows.tolist():
            # rows hold snapshot row numbers, each a candidate of its role
            (lo,), (hi,) = _records_of(snapshot, [i]), _records_of(snapshot, [j])
            assert lo in lows and hi in highs
            assert lo.strike < hi.strike and lo.expiry == hi.expiry

    def test_no_check_fires_at_depth_zero(self):
        # assemble starts from the first role's candidates, unchecked
        for symmetric_wings in (False, True):
            for schema in build_catalog(symmetric_wings).values():
                assert engine._depth_checks(schema)[0] == [], schema.name

    def test_depth_checks_are_planned_once_per_schema(self):
        snapshot = snap([rec("SPY", k, "call", 2.0, d)
                         for k in (100.0, 105.0, 110.0) for d in (30, 60)])
        engine._depth_checks.cache_clear()
        for _ in range(3):
            for name in ("BULL_CALL_SPREAD", "BUTTERFLY_CALL"):
                for wings in (False, True):
                    execute(f"SELECT {name} FROM SPY", snapshot,
                            RunConfig(symmetric_wings=wings))
        # the wing rule changes only the butterfly's schema
        info = engine._depth_checks.cache_info()
        assert (info.misses, info.hits) == (3, 9)

    def test_budget_refused_before_building_any_row(self):
        # a raw product of 1e18: anything beyond len() would never finish
        vq = validate(parse_text("SELECT BULL_CALL_SPREAD FROM SPY"))
        huge = Candidates({}, {"L": range(10 ** 9), "S": range(10 ** 9)})
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
        assert ([inst.ticker_key() for inst in result_instances(result)]
                == ["AC", "ABC"])
        result = execute("SELECT BULL_CALL_SPREAD FROM SPY LIMIT 3", snapshot)
        assert ([inst.ticker_key() for inst in result_instances(result)]
                == ["AAB", "ABBZ", "ABC"])
        assert result.stats.having_passed == 6

    def test_heavy_ties_of_mixed_length_tickers_match_the_oracle_order(self):
        # every delta is 0.5, so net_delta ties on every row and width on
        # most; LIMIT cuts inside those ties, where only the concatenated
        # tickers order the rows
        rng = random.Random(606)
        config = RunConfig()
        cut_inside_a_tie = 0
        for trial in range(40):
            records = _heavy_tie_records(rng)
            snapshot = chain_mod.enrich(snap(records))
            assert len({len(r.ticker) for r in records}) > 1
            fields = rng.sample(("net_delta", "width"), 2)
            order_by = tuple(OrderItem(field, rng.choice(("ASC", "DESC")))
                             for field in fields[:trial % 3])
            ast = parse_text(f"SELECT BULL_CALL_SPREAD FROM SPY "
                             f"LIMIT {rng.randint(1, 12)}")
            ast = dataclasses.replace(ast, order_by=order_by)
            expected, _ = oracle_survivors(validate(ast), snapshot, config)
            want = oracle_order(expected, ast.order_by, ast.limit)
            got = [tuple(leg.record.ticker for leg in inst.legs)
                   for inst in result_instances(execute(ast, snapshot, config))]
            assert got == [tickers for tickers, _ in want]
            if ast.limit < len(expected):
                def keys(agg):
                    return [agg[item.field] for item in ast.order_by]

                last = keys(want[-1][1])
                cut_inside_a_tie += (
                    sum(keys(agg) == last for _, agg in expected)
                    > sum(keys(agg) == last for _, agg in want))
        assert cut_inside_a_tie >= 25

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
                taken: set[str] = set()
                snapshot = dataclasses.replace(snapshot, records=tuple(
                    dataclasses.replace(r, ticker=distinct_prefix(
                        r.ticker, rng.randint(4, 20), taken))
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
                   for inst in result_instances(execute(ast, snapshot, config))]
            assert got == want
            compared += len(expected) > ast.limit
        assert compared >= 40  # LIMIT must actually cut most of the time

    def test_record_table_is_cached_per_snapshot(self):
        base = snap([rec("SPY", 100.0, "call", 2.0, 30),
                     rec("SPY", 105.0, "call", 1.0, 30)])
        bare = dataclasses.replace(base, records=tuple(
            dataclasses.replace(r, delta=None) for r in base.records))
        assert bare.columns is bare.columns
        copy = dataclasses.replace(bare)
        assert copy == bare and repr(copy) == repr(bare)
        assert copy.columns is not bare.columns
        assert list(copy.columns) == list(bare.columns)
        assert all(copy.columns[name].tobytes() == col.tobytes()
                   for name, col in bare.columns.items())
        assert [f.name for f in dataclasses.fields(bare)] == [
            "underlying", "as_of", "spot", "rate", "records", "excluded",
            "enriched"]
        vq = validate(parse_text("SELECT BULL_CALL_SPREAD FROM SPY"))
        cands = filter_legs(vq, bare, RunConfig())
        # filtering reads the bare records as they are: no enrich
        assert not bare.enriched
        assert [r.delta for r in _records_of(bare, cands.rows["L"])] == [None, None]
        assert not cands.columns["delta_ok"][cands.rows["L"]].any()
        assert (cands.columns["delta"][cands.rows["L"]] == 0.0).all()

    def test_execute_enriches_a_bare_snapshot(self):
        base = snap([rec("SPY", 100.0, "call", 2.0, 30),
                     rec("SPY", 105.0, "call", 1.0, 30)])
        bare = dataclasses.replace(base, records=tuple(
            dataclasses.replace(r, delta=None, vega=None)
            for r in base.records))
        assert not bare.enriched
        result = execute("SELECT BULL_CALL_SPREAD FROM SPY", bare)
        agg = result_instances(result)[0].aggregates
        assert agg["net_delta"] is not None and agg["net_vega"] is not None


# ============================================================
# Rendering the returned rows from columns
# ============================================================


class TestColumnRendering:
    """result_to_json and result_to_table render the returned rows from the
    result's columns; helpers.instance_to_json and helpers.oracle_table
    render one StrategyInstance at a time and are their oracles."""

    @pytest.mark.parametrize("mode", ["standard", "blueprint"])
    def test_matches_the_per_instance_oracle(self, mode):
        rng = random.Random(1107)
        config = RunConfig(output_mode=mode)
        seen = dict.fromkeys(("empty", "rows", "unbounded", "unavailable",
                              "legs", "distinct_legs"), 0)
        for _ in range(150):
            snapshot = _random_snapshot(rng)
            result = execute(random_valid_query(rng, snapshot), snapshot, config)
            doc = result_to_json(result, config)
            got = doc["strategies"]
            want = [instance_to_json(inst, mode)
                    for inst in result_instances(result)]
            assert got == want
            assert result_to_table(result) == oracle_table(result)
            assert serialize.dumps(got) == serialize.dumps(want)
            assert json.loads(serialize.dumps(doc)) == doc
            seen["empty"] += not want
            seen["rows"] += len(want)
            # standard mode: the rows holding one (role, record) share
            # one leg object
            legs: dict = {}
            for row, strategy in zip(result.rows.tolist(), got):
                for role, i, leg in zip(result.query.schema.role_ids, row,
                                        strategy.get("legs", ())):
                    assert legs.setdefault((role, i), leg) is leg
                    seen["legs"] += 1
            seen["distinct_legs"] += len(legs)
            for strategy in want if mode == "standard" else ():
                agg = strategy["aggregates"]
                seen["unbounded"] += (agg["max_profit_unbounded"]
                                      or agg["max_loss_unbounded"])
                # one of net_debit and net_credit is always unavailable
                seen["unavailable"] += any(
                    agg[field] is None for field in AGGREGATE_FIELDS
                    if field not in ("net_debit", "net_credit")
                    and not agg.get(f"{field}_unbounded"))
        # every rendering branch is reached
        assert seen["empty"] >= 5 and seen["rows"] >= 500
        if mode == "standard":
            assert seen["unbounded"] >= 100 and seen["unavailable"] >= 100
            # most rows reuse a leg an earlier row already holds
            assert seen["legs"] >= 2 * seen["distinct_legs"]

    def test_unbounded_and_unavailable_render_as_null(self):
        s = snap([rec("SPY", 100.0, "call", 3.0, 30),
                  rec("SPY", 100.0, "call", 4.0, 60)])
        config = RunConfig()
        long_call = execute("SELECT LONG_CALL FROM SPY WHERE Dte ~ 30", s, config)
        calendar = execute("SELECT CALENDAR_CALL FROM SPY", s, config)
        for result in (long_call, calendar):
            got = result_to_json(result, config)["strategies"]
            assert got == [instance_to_json(inst, "standard")
                           for inst in result_instances(result)]
            assert result_to_table(result) == oracle_table(result)
        agg = result_to_json(long_call, config)["strategies"][0]["aggregates"]
        assert agg["max_profit"] is None and agg["max_profit_unbounded"] is True
        assert agg["max_loss"] == 300.0 and agg["max_loss_unbounded"] is False
        agg = result_to_json(calendar, config)["strategies"][0]["aggregates"]
        # different expiries: no terminal payoff, so no profit or breakeven
        assert agg["max_profit"] is None and agg["max_profit_unbounded"] is False
        assert agg["breakeven_low"] is None and agg["rr_ratio"] is None

    @pytest.mark.parametrize("mode", ["standard", "blueprint"])
    def test_empty_result(self, mode):
        s = snap([rec("SPY", 100.0, "call", 3.0, 30)])
        config = RunConfig(output_mode=mode)
        result = execute("SELECT LONG_CALL FROM SPY HAVING net_debit > 1000000",
                         s, config)
        assert result.rows.shape == (0, 1)
        assert result_to_json(result, config)["strategies"] == []
        assert result_instances(result) == []

    def test_rendering_computes_the_aggregates_once(self, monkeypatch,
                                                    tsla_snapshot):
        from conftest import CONDOR_QUERY_TSLA
        calls = []
        real = engine.compute_aggregates

        def counted(*args):
            calls.append(len(args[2]))
            return real(*args)

        config = RunConfig()
        result = execute(CONDOR_QUERY_TSLA, tsla_snapshot, config)
        monkeypatch.setattr(engine, "compute_aggregates", counted)
        serialize.dumps(result_to_json(result, config))
        aggregates = result.aggregates
        result_to_table(result)
        assert result.aggregates is aggregates
        # one call, over the returned rows only
        assert calls == [result.stats.returned] == [10]
        assert len(result.rows) == len(aggregates["net_debit"][0]) == 10


class TestLateMaterialization:
    """The query path builds nothing per returned row: no ranking, no leg
    object, no record positions and no aggregate beyond those HAVING
    reads; rendering builds them."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        real = engine._leg_to_json

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(engine, "_leg_to_json", counted)
        return calls

    def test_run_case_builds_none(self, built, tsla_snapshot, monkeypatch):
        results = []

        def kept(*args):
            results.append(evalkit_execute(*args))
            return results[-1]

        evalkit_execute = evalkit.execute
        monkeypatch.setattr(evalkit, "execute", kept)
        case = evalkit.EvalCase(
            id="c1", intent="", gold_strategy="BULL_CALL_SPREAD", chain="",
            attempts=("SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 30",))
        outcome = evalkit.run_case(case, tsla_snapshot, RunConfig())
        assert outcome.k_first_success == 1 and outcome.rows_at_success > 0
        assert built == []
        [result] = results
        # neither lazy per-row view was read
        assert "rows" not in vars(result) and "aggregates" not in vars(result)
        assert result.computed == {}
        # nor was the query text printed
        assert "text" not in vars(result)
        # rendering the same result builds one leg object per distinct
        # (role, record) of the returned rows
        result_to_json(result, RunConfig())
        assert 0 < len(built) <= 2 * outcome.rows_at_success
        assert "rows" in vars(result) and "aggregates" in vars(result)
        assert vars(result)["text"] == case.attempts[0]

    def test_no_having_or_order_by_computes_no_aggregate(self, monkeypatch,
                                                         tsla_snapshot):
        calls = []
        real = engine.compute_aggregates

        def counted(*args):
            calls.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(engine, "compute_aggregates", counted)
        config = RunConfig()
        query = "SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 30 LIMIT 7"
        result = execute(query, tsla_snapshot, config)
        assert calls == [] and result.computed == {}
        # rendering computes every aggregate once, over the returned rows,
        # and still gives the oracle's rows, order and values
        doc = result_to_json(result, config)
        instances = result_instances(result)
        assert calls == [result.stats.returned] == [7]
        expected, _ = oracle_survivors(validate(parse_text(query)),
                                       tsla_snapshot, config)
        want = oracle_order(expected, (), 7)
        assert ([tuple(leg.record.ticker for leg in inst.legs)
                 for inst in instances] == [tickers for tickers, _ in want])
        for inst, (_, agg) in zip(instances, want):
            assert aggregates_equal(inst.aggregates, agg)
        assert doc["strategies"] == [instance_to_json(inst, "standard")
                                     for inst in instances]


@given(seed=st.integers(0, 2 ** 32),
       terminator=st.sampled_from(("\x00", "!", "~", "\u00e9")))
@settings(max_examples=150, deadline=None)
def test_prefix_free_mixed_length_tickers_rank_as_the_oracle(seed, terminator):
    # tickers cut to mixed lengths, each ended by a character no ticker
    # holds, so none prefixes another: the per-role ranks must order the
    # rows as their concatenated tickers
    rng = random.Random(seed)
    snapshot = _random_snapshot(rng)
    taken: set[str] = set()
    snapshot = dataclasses.replace(snapshot, records=tuple(
        dataclasses.replace(r, ticker=distinct_prefix(
            r.ticker, rng.randint(3, 20), taken) + terminator)
        for r in snapshot.records))
    assert len({len(r.ticker) for r in snapshot.records}) > 1
    ast = random_valid_query(rng, snapshot)
    ast = dataclasses.replace(ast, order_by=tuple(
        OrderItem(rng.choice(("net_delta", "width", "max_loss")),
                  rng.choice(("ASC", "DESC")))
        for _ in range(rng.randint(0, 2))), limit=rng.choice((None, 1, 3, 7)))
    config = RunConfig()
    result = execute(ast, snapshot, config)
    keys = engine._ticker_ranks(result)
    assert len(keys) == len(result.query.schema.role_ids)
    assert all(key.dtype == np.int64 for key in keys)
    expected, _ = oracle_survivors(validate(ast), snapshot, config)
    want = [row[0] for row in oracle_order(expected, ast.order_by, ast.limit)]
    assert [tuple(leg.record.ticker for leg in inst.legs)
            for inst in result_instances(result)] == want


# the ways a caller can read a result before rendering it
_READS = {
    "complete": lambda result: result.complete(AGGREGATE_FIELDS),
    "rows": lambda result: result.rows,
    "aggregates": lambda result: result.aggregates,
    "table": result_to_table,
    "text": lambda result: result.text,
}


@given(seed=st.integers(0, 2 ** 32),
       reads=st.lists(st.sampled_from(sorted(_READS)), max_size=6),
       mode=st.sampled_from(OUTPUT_MODES))
@settings(max_examples=150, deadline=None)
def test_reads_in_any_order_leave_the_document_unchanged(seed, reads, mode):
    # ranking and the aggregate columns are computed on the first read and
    # narrow the result in place: no order of reads may change what renders
    rng = random.Random(seed)
    snapshot = _random_snapshot(rng)
    ast = random_valid_query(rng, snapshot)
    config = RunConfig(output_mode=mode)
    want = serialize.dumps(result_to_json(execute(ast, snapshot, config), config))
    result = execute(ast, snapshot, config)
    for read in reads:
        _READS[read](result)
    assert serialize.dumps(result_to_json(result, config)) == want


@functools.cache
def _selection_pool() -> dict:
    """Per catalog family: (schema, columns, assembled rows) on a two-expiry
    chain where every fifth contract has lost one Greek."""
    snapshot = generate_synthetic(
        underlying="SYN", as_of=AS_OF, spot=100.0, rate=0.03,
        expiries=[AS_OF + dt.timedelta(days=d) for d in (30, 60)],
        strikes=[85.0 + 5.0 * i for i in range(7)], base_vol=0.3, skew=-0.1,
        term=0.05, seed=3)
    greeks = ("delta", "gamma", "vega", "theta")
    snapshot = dataclasses.replace(snapshot, records=tuple(
        dataclasses.replace(r, **{greeks[i % 4]: None}) if i % 5 == 0 else r
        for i, r in enumerate(snapshot.records)))
    object.__setattr__(snapshot, "enriched", True)  # keep them missing
    config = RunConfig()
    pool = {}
    for name in sorted(CATALOG):
        vq = validate(parse_text(f"SELECT {name} FROM SYN"))
        rows, _ = assemble(vq, filter_legs(vq, snapshot, config), config)
        pool[name] = (vq.schema, snapshot.columns, rows)
    return pool


class TestFieldSelection:
    """survivors runs only the kernel groups HAVING reads and keeps their
    columns for the rows that pass; the first read of
    ResultSet.aggregates ranks those rows, computing the groups ORDER BY
    reads over them, then computes the groups still missing for the
    returned rows."""

    CONDOR = ("SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.3 "
              "AND LC.Delta < 0.15 AND SP.Delta > -0.3 AND LP.Delta > -0.15")
    SPREAD = ("SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 30 "
              "AND L.Delta < 0.6 AND S.Delta > 0.2")  # 45 rows
    PAYOFF = {"payoff_at_knots", "payoff_extremes", "breakevens"}

    @pytest.fixture
    def kernels(self, monkeypatch):
        calls = collections.Counter()
        for name in self.PAYOFF:
            def counted(*args, _real=getattr(pricing, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(pricing, name, counted)
        return calls

    @pytest.fixture
    def sizes(self, monkeypatch):
        """The row count of each compute_aggregates call."""
        sizes = []
        real = engine.compute_aggregates

        def counted(*args):
            sizes.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(engine, "compute_aggregates", counted)
        return sizes

    # called: (the payoff kernels execute runs, those the first read of
    # ResultSet.aggregates runs after it)
    @pytest.mark.parametrize("clauses, called", [
        ("", (set(), PAYOFF)),
        (" HAVING net_credit > 0", (set(), PAYOFF)),
        (" HAVING net_theta > 0 ORDER BY width DESC LIMIT 5", (set(), PAYOFF)),
        (" ORDER BY rr_ratio DESC LIMIT 5", (set(), PAYOFF)),
        (" HAVING breakeven_low > 0",
         ({"payoff_at_knots", "breakevens"},
          {"payoff_at_knots", "payoff_extremes"})),
    ])
    def test_execute_computes_only_the_fields_read(self, kernels,
                                                   tsla_snapshot, clauses,
                                                   called):
        config = RunConfig()
        result = execute(self.CONDOR + clauses, tsla_snapshot, config)
        assert result.stats.returned > 0
        assert set(kernels) == called[0]
        kernels.clear()
        aggregates = result.aggregates
        assert set(kernels) == called[1]
        assert result.aggregates is aggregates
        # the twelve of the returned rows equal those of the same rows
        # computed with every other assembled row
        vq = result.query
        rows, _ = assemble(vq, filter_legs(vq, tsla_snapshot, config), config)
        full = engine.compute_aggregates(vq.schema, tsla_snapshot.columns,
                                         rows, config)
        where = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
        picks = [where[row] for row in map(tuple, result.column_rows.tolist())]
        assert list(aggregates) == list(full) == list(AGGREGATE_FIELDS)
        for field, (values, available) in full.items():
            assert aggregates[field][0].tobytes() == values[picks].tobytes()
            assert aggregates[field][1].tobytes() == available[picks].tobytes()

    @pytest.mark.parametrize("having, kernel", [
        ("breakeven_low > 0", "breakevens"),
        ("max_loss < 500", "payoff_extremes"),
    ])
    def test_a_payoff_kernel_having_ran_does_not_run_again(
            self, kernels, tsla_snapshot, having, kernel):
        # no LIMIT: the rows HAVING keeps are the returned rows, and they
        # keep the payoff columns HAVING computed for them
        result = execute(f"{self.CONDOR} HAVING {having}", tsla_snapshot,
                         RunConfig())
        assert 0 < result.stats.returned == result.stats.having_passed
        assert result.stats.assembled <= engine._BLOCK  # one block
        result.aggregates
        assert kernels[kernel] == 1

    def test_run_case_calls_no_payoff_kernel(self, kernels, tsla_snapshot):
        case = evalkit.EvalCase(id="c1", intent="", chain="",
                                gold_strategy="IRON_CONDOR",
                                attempts=(self.CONDOR,))
        outcome = evalkit.run_case(case, tsla_snapshot, RunConfig())
        assert outcome.k_first_success == 1 and outcome.rows_at_success > 0
        assert not kernels

    def test_run_case_ranks_nothing(self, kernels, sizes, tsla_snapshot,
                                    monkeypatch):
        ranked = []
        real = engine.order_and_limit

        def counted(*args):
            ranked.append(1)
            return real(*args)

        monkeypatch.setattr(engine, "order_and_limit", counted)
        case = evalkit.EvalCase(
            id="c1", intent="", chain="", gold_strategy="IRON_CONDOR",
            attempts=(self.CONDOR + " ORDER BY rr_ratio DESC LIMIT 5",))
        outcome = evalkit.run_case(case, tsla_snapshot, RunConfig())
        assert outcome.k_first_success == 1 and outcome.rows_at_success == 5
        assert ranked == [] and not kernels
        # without HAVING, over many blocks, execute runs no aggregate
        # kernel and passes the assembled rows on in assembly order
        monkeypatch.setattr(engine, "_BLOCK", 7)
        config = RunConfig()
        result = execute(self.SPREAD, tsla_snapshot, config)
        vq = result.query
        rows, _ = assemble(vq, filter_legs(vq, tsla_snapshot, config), config)
        assert result.stats.having_passed == len(rows) > engine._BLOCK
        assert result.passed.tobytes() == rows.tobytes()
        assert sizes == [] and result.computed == {}
        assert ranked == [] and not kernels

    @pytest.mark.parametrize("clauses", [
        "", " HAVING max_loss < 1000 ORDER BY net_theta DESC"])
    def test_the_aggregates_read_runs_in_blocks(self, sizes, tsla_snapshot,
                                                monkeypatch, clauses):
        config = RunConfig()
        want = execute(self.SPREAD + clauses, tsla_snapshot, config)
        want_rows, want_aggregates = want.rows, want.aggregates  # one block
        sizes.clear()
        monkeypatch.setattr(engine, "_BLOCK", 7)
        result = execute(self.SPREAD + clauses, tsla_snapshot, config)
        aggregates = result.aggregates
        # no LIMIT: every row HAVING kept is read, seven at most per call
        # in HAVING, ranking and the aggregates read alike
        assert result.stats.returned == result.stats.having_passed > 7
        assert len(sizes) > 1 and max(sizes) <= 7
        assert result.rows.tobytes() == want_rows.tobytes()
        assert list(aggregates) == list(want_aggregates) == list(AGGREGATE_FIELDS)
        for field, (values, available) in want_aggregates.items():
            assert aggregates[field][0].tobytes() == values.tobytes()
            assert aggregates[field][1].tobytes() == available.tobytes()

    @given(name=st.sampled_from(sorted(CATALOG)),
           fields=st.sets(st.sampled_from(AGGREGATE_FIELDS)),
           cut=st.integers(0, 12), multiplier=st.sampled_from((1.0, 100.0)))
    @settings(max_examples=150, deadline=None)
    def test_each_field_is_the_same_whichever_fields_are_asked_for(
            self, name, fields, cut, multiplier):
        schema, columns, rows = _selection_pool()[name]
        config = RunConfig(multiplier=multiplier)
        full = engine.compute_aggregates(schema, columns, rows, config)
        some = engine.compute_aggregates(schema, columns, rows[cut:], config,
                                         fields)
        assert list(some) == [f for f in AGGREGATE_FIELDS if f in fields]
        for field, (values, available) in some.items():
            want_values, want_available = full[field]
            assert (values == want_values[cut:]).all()
            assert values.tobytes() == want_values[cut:].tobytes()
            assert (available == want_available[cut:]).all()

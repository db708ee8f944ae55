"""Go/no-go acceptance gate.

Each test re-verifies one headline guarantee of the package, with a time
budget where speed is part of the contract, and prints exactly one
[PASS]/[FAIL] line straight to the terminal (bypassing output capture)
so the gate can be read off the run log at a glance. The checks overlap
the per-module suites on purpose: this file is the release checklist.
"""

import dataclasses
import datetime as dt
import json
import math
import os
import random
import sys
import time

import numpy as np
import pytest

from conftest import CONDOR_QUERY_TSLA, make_tsla_snapshot
from helpers import (
    AS_OF,
    GREEK_ATOL,
    GREEK_RTOL,
    Leg,
    aggregates_equal,
    backtest_hand_fixture,
    basket_payoff,
    draw_params,
    fd_greeks,
    leg_payoff,
    oracle_order,
    oracle_survivors,
    pnl_path,
    random_ast,
    random_snapshot,
    random_valid_query,
    result_instances,
    run_cli,
    strategy_payoff,
)
from oql import serialize
from oql.backtest import (
    Position,
    PositionLeg,
    mark_path,
    report,
    risk_exposure,
)
from oql.catalog import build_catalog, validate
from oql.chain import generate_synthetic
from oql.config import RunConfig
from oql.engine import (
    execute,
    order_and_limit,
    result_to_json,
    soft_match,
    survivors,
)
from oql.evalkit import CaseOutcome, evaluate, load_cases, metrics
from oql.pricing import MarketParams, bsm_price, greeks, implied_vol
from oql.syntax import LegCondition, StratCondition, parse_text, pretty_print

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class Criterion:
    """Collects check results and prints one [PASS]/[FAIL] line.

    The line is written with output capture suspended (via the capfd
    fixture) so it always reaches the terminal, pass or fail.
    """

    def __init__(self, name: str, cap, budget: float | None = None):
        self.name = name
        self.cap = cap
        self.budget = budget
        self.failures: list[str] = []
        self.n_failed = 0
        self.detail = ""
        self.start = time.perf_counter()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.n_failed += 1
            if len(self.failures) < 8:
                self.failures.append(message)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc is not None:
            self.n_failed += 1
            self.failures.append(f"aborted by {exc_type.__name__}: {exc}")
        if self.budget is not None and elapsed > self.budget:
            self.n_failed += 1
            self.failures.append(
                f"took {elapsed:.1f}s, budget {self.budget:.0f}s")
        status = "PASS" if self.n_failed == 0 else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        with self.cap.disabled():
            print(f"[{status}] {self.name}{tail} ({elapsed:.1f}s)",
                  file=sys.stderr, flush=True)
        if exc is not None:
            return False  # let the original exception surface
        assert self.n_failed == 0, (
            f"{self.name}: {self.n_failed} failed check(s): "
            + "; ".join(self.failures))
        return False


# ------------------------------------------------------------
# 1. Grammar: golden printouts and random AST round-trips
# ------------------------------------------------------------

GOLDEN_QUERIES = [
    ("select long_call from spy",
     "SELECT LONG_CALL FROM SPY"),
    ("SELECT straddle FROM qqq WHERE dte ~ 30",
     "SELECT STRADDLE FROM QQQ WHERE Dte ~ 30"),
    ("SELECT IRON_CONDOR FROM TSLA WHERE SC.Delta < 0.20 AND LP.Delta > -0.05",
     "SELECT IRON_CONDOR FROM TSLA WHERE SC.Delta < 0.2 AND LP.Delta > -0.05"),
    ("SELECT BULL_CALL_SPREAD FROM SPY WHERE L.Strike >= 100.0 AND S.Strike <= 120",
     "SELECT BULL_CALL_SPREAD FROM SPY WHERE L.Strike >= 100 AND S.Strike <= 120"),
    ("SELECT STRANGLE FROM SPY WHERE Moneyness != ITM HAVING net_credit >= 150",
     "SELECT STRANGLE FROM SPY WHERE Moneyness != ITM HAVING net_credit >= 150"),
    ("SELECT BUTTERFLY_CALL FROM SPY HAVING width BETWEEN 5 AND 15",
     "SELECT BUTTERFLY_CALL FROM SPY HAVING width BETWEEN 5 AND 15"),
    ("SELECT LONG_PUT FROM SPY ORDER BY net_debit ASC, rr_ratio DESC LIMIT 3",
     "SELECT LONG_PUT FROM SPY ORDER BY net_debit ASC, rr_ratio DESC LIMIT 3"),
    ("SELECT CALENDAR_CALL FROM SPY WHERE Volume > 250 AND Iv < 0.9",
     "SELECT CALENDAR_CALL FROM SPY WHERE Volume > 250 AND Iv < 0.9"),
    ("SELECT\n  LONG_CALL\nFROM SPY\n  WHERE Price < 2.50",
     "SELECT LONG_CALL FROM SPY WHERE Price < 2.5"),
    ("-- cheap upside\nSELECT LONG_CALL FROM SPY WHERE Price < 1.5",
     "SELECT LONG_CALL FROM SPY WHERE Price < 1.5"),
    ("SELECT STRADDLE FROM SPY WHERE Strike = 100 AND Dte != 45",
     "SELECT STRADDLE FROM SPY WHERE Strike = 100 AND Dte != 45"),
    ("SELECT IRON_CONDOR FROM SPY HAVING net_theta > 0 AND max_loss < 500 LIMIT 10",
     "SELECT IRON_CONDOR FROM SPY HAVING net_theta > 0 AND max_loss < 500 LIMIT 10"),
]


def test_grammar_round_trips(capfd):
    with Criterion("query grammar round-trip", capfd, budget=5.0) as c:
        for raw, canonical in GOLDEN_QUERIES:
            printed = pretty_print(parse_text(raw))
            c.check(printed == canonical,
                    f"golden {raw!r} printed as {printed!r}")
            c.check(pretty_print(parse_text(canonical)) == canonical,
                    f"printing not idempotent for {canonical!r}")
            c.check(parse_text(canonical) == parse_text(raw),
                    f"reparse changed the tree for {raw!r}")
        rng = random.Random(20250601)
        for _ in range(1000):
            tree = random_ast(rng)
            c.check(parse_text(pretty_print(tree)) == tree,
                    f"random AST round-trip failed: {pretty_print(tree)!r}")
        c.detail = f"{len(GOLDEN_QUERIES)} goldens, 1000 random ASTs"


# ------------------------------------------------------------
# 2. Pricing: parity, Greeks vs finite differences, vol recovery
# ------------------------------------------------------------


def test_pricing_identities(capfd):
    with Criterion("pricing identities", capfd, budget=30.0) as c:
        rng = np.random.default_rng(11)
        worst_parity = 0.0
        for _ in range(10_000):
            s, k, r, v, t = draw_params(rng)
            m = MarketParams(s, r, v, t)
            gap = abs(bsm_price(m, k, "call") - bsm_price(m, k, "put")
                      - (s - k * math.exp(-r * t)))
            worst_parity = max(worst_parity, gap)
        c.check(worst_parity <= 1e-10,
                f"worst put/call parity gap {worst_parity:.2e}")

        worst_greek = 0.0
        for _ in range(10_000):
            s, k, r, v, t = draw_params(rng)
            m = MarketParams(s, r, v, t)
            option_type = "call" if rng.integers(2) else "put"
            analytic = greeks(m, k, option_type)
            fd = fd_greeks(m, k, option_type)
            for name in GREEK_ATOL:
                err = abs(getattr(analytic, name) - fd[name])
                bound = GREEK_ATOL[name] + GREEK_RTOL * abs(fd[name])
                worst_greek = max(worst_greek, err / bound)
        c.check(worst_greek < 1.0,
                f"worst greek-vs-FD normalized error {worst_greek:.3f}")

        checked = 0
        worst_iv = 0.0
        for _ in range(10_000):
            s, k, r, v, t = draw_params(rng)
            v = max(v, 1e-4)
            m = MarketParams(s, r, v, t)
            option_type = "call" if rng.integers(2) else "put"
            price = bsm_price(m, k, option_type)
            vega = greeks(m, k, option_type).vega
            # skip draws where one price ulp moves the vol past the target
            if vega <= 1e-12 or math.ulp(s + k) / vega > 2.5e-10:
                continue
            recovered = implied_vol(s, r, t, k, option_type, price)
            worst_iv = max(worst_iv, abs(recovered - v))
            checked += 1
        c.check(checked > 8_000, f"vol recovery tested only {checked} draws")
        c.check(worst_iv <= 1e-8, f"worst vol recovery error {worst_iv:.2e}")
        c.detail = (f"parity {worst_parity:.1e}, greeks-vs-FD "
                    f"{worst_greek:.2f}x bound, vol recovery {worst_iv:.1e} "
                    f"on {checked} draws")


# ------------------------------------------------------------
# 3. Payoff algebra: leg sums, family identities, extremes
# ------------------------------------------------------------

def _leg(direction, option_type, strike, premium, quantity=1):
    return Leg(direction=direction, option_type=option_type, strike=strike,
               quantity=quantity, premium=premium)


def _extremes_oracle(legs):
    """Exact extremes of a piecewise-linear payoff from its knots.

    The payoff is linear between strikes and beyond the last one, so the
    extreme values live on {0} + strikes unless a tail is unbounded. The
    tail slope equals a signed integer contract count, so rounding the
    two-point difference recovers it exactly.
    """
    strikes = sorted({item.strike for item in legs})
    knots = [0.0] + strikes
    values = [strategy_payoff(legs, s) for s in knots]
    far = strikes[-1]
    slope = round(strategy_payoff(legs, far + 2.0)
                  - strategy_payoff(legs, far + 1.0))
    max_profit = math.inf if slope > 0 else max(values)
    max_loss = math.inf if slope < 0 else -min(values)
    return max_profit, max_loss


def test_payoff_algebra(capfd):
    with Criterion("payoff algebra", capfd, budget=30.0) as c:
        rng = random.Random(33)
        for _ in range(10_000):
            legs = [
                _leg(rng.choice((1, -1)), rng.choice(("call", "put")),
                     rng.uniform(1.0, 500.0), rng.uniform(-20.0, 20.0),
                     quantity=rng.randint(1, 3))
                for _ in range(rng.randint(1, 6))
            ]
            spot = rng.uniform(0.0, 600.0)
            expected = 0.0
            for item in legs:
                expected += item.quantity * item.direction * (
                    leg_payoff(item, spot) - item.premium)
            c.check(strategy_payoff(legs, spot) == expected,
                    f"leg sum mismatch at spot {spot}")

        strike = 100.0
        straddle = [_leg(1, "call", strike, 0.0), _leg(1, "put", strike, 0.0)]
        for _ in range(1000):
            spot = rng.uniform(0.0, 300.0)
            c.check(strategy_payoff(straddle, spot)
                    == abs(spot - strike),
                    f"straddle != |S-K| at {spot}")

        # dyadic strikes/premiums keep the decomposition exact in floats
        for _ in range(1000):
            lp, sp, sc, lc = sorted(
                s / 4.0 for s in rng.sample(range(4, 800), 4))
            prem = [rng.randrange(0, 512) / 64.0 for _ in range(4)]
            condor = [_leg(-1, "call", sc, prem[0]),
                      _leg(1, "call", lc, prem[1]),
                      _leg(-1, "put", sp, prem[2]),
                      _leg(1, "put", lp, prem[3])]
            spot = rng.randrange(0, 1000) / 4.0
            whole = strategy_payoff(condor, spot)
            parts = (strategy_payoff(condor[:2], spot)
                     + strategy_payoff(condor[2:], spot))
            c.check(whole == parts, f"condor != spreads at {spot}")

        lo, body, hi = 90.0, 100.0, 110.0
        fly = [_leg(1, "call", lo, 0.0), _leg(-1, "call", body, 0.0, 2),
               _leg(1, "call", hi, 0.0)]
        grid = list(np.linspace(0.0, 300.0, 1501)) + [lo, body, hi]
        c.check(all(strategy_payoff(fly, float(s)) >= 0.0
                    for s in grid), "symmetric butterfly went negative")
        c.check(strategy_payoff(fly, body) == body - lo,
                "butterfly peak wrong")
        c.check(strategy_payoff(fly, body - 3.0)
                == strategy_payoff(fly, body + 3.0),
                "butterfly not symmetric about the body")

        for _ in range(300):
            legs = [
                _leg(rng.choice((1, -1)), rng.choice(("call", "put")),
                     float(rng.randrange(25, 400)),
                     rng.randrange(0, 512) / 64.0,
                     quantity=rng.randint(1, 3))
                for _ in range(rng.randint(1, 5))
            ]
            ext = basket_payoff(legs)
            want_mp, want_ml = _extremes_oracle(legs)
            for got, want, side in ((ext.max_profit, want_mp, "profit"),
                                    (ext.max_loss, want_ml, "loss")):
                if math.isinf(want):
                    c.check(math.isinf(got), f"max_{side} should be unbounded")
                else:
                    c.check(abs(got - want) <= 1e-9,
                            f"max_{side} {got} vs knot value {want}")
        c.detail = "10k leg sums, straddle/condor/butterfly, 300 extremes"


# ------------------------------------------------------------
# 4. Engine: equivalence with exhaustive enumeration, monotonicity
# ------------------------------------------------------------


def test_engine_matches_exhaustive_enumeration(capfd):
    with Criterion("engine vs exhaustive enumeration", capfd,
                   budget=120.0) as c:
        rng = random.Random(20250602)
        config = RunConfig()
        total_rows = 0
        nonempty = 0
        for _ in range(100):
            snapshot = random_snapshot(rng)
            c.check(len(snapshot.records) <= 50, "snapshot over 50 contracts")
            tree = random_valid_query(rng, snapshot)
            vq = validate(tree)
            expected, want_stats = oracle_survivors(vq, snapshot, config)
            surv = survivors(vq, snapshot, config)
            instances, stats = result_instances(surv), surv.stats

            got = {
                tuple(leg.record.ticker for leg in inst.legs): inst.aggregates
                for inst in instances
            }
            want = dict(expected)
            c.check(set(got) == set(want),
                    f"survivor sets differ for {pretty_print(tree)!r}")
            if set(got) == set(want):
                for key in got:
                    c.check(aggregates_equal(got[key], want[key]),
                            f"aggregates differ on {key}")
            c.check(stats.raw_product == want_stats["raw_product"]
                    and stats.assembled == want_stats["assembled"]
                    and stats.having_passed == want_stats["having_passed"]
                    and stats.candidates == want_stats["candidates"],
                    "pipeline stats differ")

            ranked = [instances[i] for i in
                      order_and_limit(surv, tree.order_by, tree.limit)]
            want_ranked = oracle_order(expected, tree.order_by, tree.limit)
            c.check([tuple(leg.record.ticker for leg in inst.legs)
                     for inst in ranked] == [row[0] for row in want_ranked],
                    "ranking differs")

            total_rows += len(instances)
            nonempty += bool(instances)
        c.check(nonempty >= 30 and total_rows >= 400,
                f"sweep too hollow: {nonempty} nonempty, {total_rows} rows")

        # tightening a query must never add strategies
        pool = [random_snapshot(rng) for _ in range(12)]
        catalog = build_catalog()
        shrank = 0
        for _ in range(500):
            snapshot = rng.choice(pool)
            base = dataclasses.replace(random_valid_query(rng, snapshot),
                                       order_by=(), limit=None)
            schema = catalog[base.strategy]
            if rng.random() < 0.5:
                role = (rng.choice(schema.role_ids)
                        if rng.random() < 0.5 else None)
                tighter = dataclasses.replace(base, where=base.where + (
                    rng.choice((
                        LegCondition(role, "Dte", "~", 30.0),
                        LegCondition(role, "Delta", ">", 0.0),
                        LegCondition(role, "Strike", "<", snapshot.spot),
                        LegCondition(role, "Volume", ">", 400.0),
                    )),))
            else:
                tighter = dataclasses.replace(base, having=base.having + (
                    rng.choice((
                        StratCondition("net_theta", ">", 0.0),
                        StratCondition("width", "BETWEEN", lo=0.0, hi=25.0),
                        StratCondition("max_loss", "<", 1000.0),
                        StratCondition("net_debit", "<", 800.0),
                    )),))
            wide = result_instances(survivors(validate(base), snapshot, config))
            narrow = result_instances(
                survivors(validate(tighter), snapshot, config))
            wide_keys = {inst.ticker_key() for inst in wide}
            narrow_keys = {inst.ticker_key() for inst in narrow}
            c.check(narrow_keys <= wide_keys,
                    "extra condition grew the result")
            shrank += narrow_keys < wide_keys
        c.check(shrank >= 50, f"narrowing only bit {shrank} times")
        c.detail = (f"100 snapshots, {total_rows} matched rows; "
                    f"500 narrowing trials, {shrank} strict")


# ------------------------------------------------------------
# 5. Soft matching: relative windows, inclusive edges
# ------------------------------------------------------------


def test_soft_match_windows(capfd):
    with Criterion("soft-match windows", capfd) as c:
        for value, ok in ((25.49, False), (25.5, True), (30.0, True),
                          (34.5, True), (34.51, False)):
            c.check(soft_match(value, 30.0, 0.15, 0.01) is ok,
                    f"Dte ~ 30 at {value} gave {not ok}")
        # the window scales with |target|, so negative targets work too
        for value, ok in ((-0.2549, False), (-0.255, True), (-0.30, True),
                          (-0.345, True), (-0.3451, False)):
            c.check(soft_match(value, -0.30, 0.15, 0.01) is ok,
                    f"Delta ~ -0.30 at {value} gave {not ok}")
        c.check(soft_match(0.01, 0.0, 0.15, 0.01)
                and not soft_match(0.0101, 0.0, 0.15, 0.01),
                "zero-target window is not the absolute epsilon")

        ladder = generate_synthetic(
            underlying="SYN", as_of=AS_OF, spot=100.0, rate=0.04,
            expiries=[AS_OF + dt.timedelta(days=d) for d in range(20, 41)],
            strikes=[100.0], base_vol=0.3, seed=1)
        result = execute("SELECT LONG_CALL FROM SYN WHERE Dte ~ 30",
                         ladder, RunConfig())
        days = sorted((inst.legs[0].record.expiry - AS_OF).days
                      for inst in result_instances(result))
        c.check(days == list(range(26, 35)),
                f"Dte ~ 30 kept {days}, wanted 26..34")
        c.detail = "band edges inclusive; 21-rung ladder kept 26..34"


# ------------------------------------------------------------
# 6. Determinism: byte-identical output across runs and shuffles
# ------------------------------------------------------------


def test_deterministic_output(capfd):
    with Criterion("deterministic output", capfd) as c:
        config = RunConfig()
        snapshot = make_tsla_snapshot()
        baseline = serialize.dumps(result_to_json(
            execute(CONDOR_QUERY_TSLA, snapshot, config), config))
        c.check(len(baseline) > 200, "reference result suspiciously small")
        repeat = serialize.dumps(result_to_json(
            execute(CONDOR_QUERY_TSLA, snapshot, config), config))
        c.check(repeat == baseline, "repeated run differs")
        rng = random.Random(5)
        for i in range(5):
            records = list(snapshot.records)
            rng.shuffle(records)
            shuffled = dataclasses.replace(snapshot, records=tuple(records))
            doc = serialize.dumps(result_to_json(
                execute(CONDOR_QUERY_TSLA, shuffled, config), config))
            c.check(doc == baseline, f"record permutation {i} differs")
        c.detail = "repeat run and 5 record permutations byte-identical"


# ------------------------------------------------------------
# 7. Quality metrics: efficiency, win/exposure rates, evaluation kit
# ------------------------------------------------------------


def _outcome(k):
    return CaseOutcome(case_id=f"k{k}", gold_strategy="LONG_CALL",
                       k_first_success=k, rows_at_success=1,
                       selected_strategy="LONG_CALL")


def test_quality_and_cohort_metrics(capfd):
    with Criterion("quality and cohort metrics", capfd) as c:
        c.check(metrics([_outcome(1)], 3)["eff"] == pytest.approx(2 / 3,
                                                                  abs=1e-15),
                "first-try efficiency != 2/3")
        c.check(metrics([_outcome(1), _outcome(3)], 3)["eff"]
                == pytest.approx(1 / 3, abs=1e-15),
                "mixed efficiency != 1/3")
        c.check(metrics([_outcome(None)], 3)["eff"] == 0.0,
                "unsolved case scored above zero")

        breach = pnl_path("b", 200.0, 0.0, -100.0, 10.0)
        c.check(risk_exposure(breach, 0.5) and not risk_exposure(breach, 0.9),
                "half-cost drawdown boundary not inclusive")
        deep = pnl_path("d", 200.0, 0.0, -180.0, 10.0)
        c.check(risk_exposure(deep, 0.9), "90% drawdown boundary not inclusive")
        shallow = pnl_path("s", 200.0, 0.0, -99.99, 10.0)
        c.check(not risk_exposure(shallow, 0.5), "inside the band but flagged")

        rep = report(backtest_hand_fixture())
        c.check(rep.wr == 12 / 20 and rep.wr_buyer == 8 / 12
                and rep.wr_seller == 4 / 8, "win rates off the hand fixture")
        c.check(rep.re50 == 9 / 20 and rep.re90 == 4 / 20,
                "exposure rates off the hand fixture")
        c.check(rep.mean_profit == pytest.approx(-247.0 / 20.0, abs=1e-12),
                "mean profit off the hand fixture")
        c.check(rep.mean_roc == pytest.approx(1.125 / 19.0, abs=1e-12),
                "mean return-on-cost off the hand fixture")
        c.check(rep.re90 <= rep.re50, "deep breaches exceed shallow ones")

        rng = random.Random(21)
        for _ in range(50):
            paths = [
                pnl_path(f"r{i}",
                         rng.choice((-1.0, 1.0)) * rng.uniform(50, 400),
                         *(rng.uniform(-500, 300) for _ in range(5)))
                for i in range(rng.randint(1, 30))
            ]
            rand_rep = report(paths)
            c.check(rand_rep.re90 <= rand_rep.re50,
                    "RE90 above RE50 on a random cohort")

        cases = load_cases(os.path.join(DATA_DIR, "cases20.jsonl"))
        _, ev = evaluate(cases, base_dir=DATA_DIR)
        c.check(ev["vr"] == 17 / 20, f"validity rate {ev['vr']}")
        c.check(ev["sm_conditional"] == 15 / 17
                and ev["sm_unconditional"] == 15 / 20,
                "strategy-match rates off the bundled cases")
        c.check(ev["eff"] == pytest.approx(9 / 20, abs=1e-12),
                f"efficiency {ev['eff']}")
        c.check(ev["avg_rows"] == pytest.approx(103 / 17, abs=1e-12),
                f"avg rows {ev['avg_rows']}")
        c.detail = ("efficiency 2/3 and 1/3 exact; 20-path cohort exact; "
                    "20-case evaluation frozen")


# ------------------------------------------------------------
# 8. Backtest settlement: final PnL equals the terminal payoff
# ------------------------------------------------------------


def test_settlement_matches_terminal_payoff(capfd):
    with Criterion("settlement equals terminal payoff", capfd,
                   budget=60.0) as c:
        rng = random.Random(101)
        config = RunConfig()
        worst = 0.0
        for _ in range(1000):
            days = rng.randint(3, 15)
            expiry = AS_OF + dt.timedelta(days=days)
            legs = tuple(
                PositionLeg(direction=rng.choice((1, -1)),
                            option_type=rng.choice(("call", "put")),
                            strike=float(rng.randrange(80, 121)),
                            expiry=expiry, quantity=rng.randint(1, 3),
                            entry_price=round(rng.uniform(0.5, 12.0), 2),
                            entry_iv=round(rng.uniform(0.15, 0.6), 2))
                for _ in range(rng.randint(1, 4)))
            spots = {}
            level = 100.0
            for i in range(days + 1):
                spots[AS_OF + dt.timedelta(days=i)] = level
                level *= 1.0 + rng.uniform(-0.05, 0.05)
            path = mark_path(Position("p", legs), spots, AS_OF, expiry,
                             config)
            terminal = strategy_payoff(
                [Leg(direction=l.direction, option_type=l.option_type,
                     strike=l.strike, quantity=l.quantity,
                     premium=l.entry_price) for l in legs],
                spots[expiry]) * config.multiplier
            worst = max(worst, abs(path.final_pnl() - terminal))
        c.check(worst <= 1e-9, f"worst settlement gap {worst:.2e}")
        c.detail = f"1000 positions, worst gap {worst:.1e}"


# ------------------------------------------------------------
# 9. Desk workflow: generate, query, backtest, evaluate
# ------------------------------------------------------------


def test_desk_workflow_end_to_end(tmp_path, capfd):
    with Criterion("desk workflow end to end", capfd, budget=60.0) as c:
        chain = str(tmp_path / "chain.csv")
        code, out, err = run_cli([
            "gen-chain", "--out", chain, "--underlying", "TSLA",
            "--as-of", "2025-06-02", "--spot", "300", "--dtes", "30,60",
            "--strike-range", "180:420:5", "--base-vol", "0.5",
            "--skew", "-0.2", "--term", "0.1", "--seed", "7"])
        c.check(code == 0, f"gen-chain exit {code}: {err.strip()}")
        doc = json.loads(out)
        c.check(doc["records"] == 196, f"chain has {doc['records']} records")

        results = str(tmp_path / "results.json")
        code, out, err = run_cli(["run", CONDOR_QUERY_TSLA, "--chain", chain,
                                  "--out", results])
        c.check(code == 0, f"run exit {code}: {err.strip()}")
        doc = json.loads(out)
        c.check(set(doc) == {"query", "strategy_type", "underlying", "as_of",
                             "config", "stats", "strategies"},
                f"result document keys {sorted(doc)}")
        c.check(len(doc["strategies"]) == 10,
                f"{len(doc['strategies'])} strategies returned")
        c.check(json.loads(open(results).read()) == doc,
                "file output differs from stdout")
        n_rows = len(doc["strategies"])

        spots = str(tmp_path / "spots.csv")
        code, out, err = run_cli([
            "gen-path", "--out", spots, "--spot", "300", "--mu", "0.0",
            "--sigma", "0.25", "--days", "40", "--start", "2025-06-02",
            "--seed", "3"])
        c.check(code == 0, f"gen-path exit {code}: {err.strip()}")
        c.check(json.loads(out)["points"] == 41, "spot path length wrong")

        code, out, err = run_cli([
            "backtest", "--results", results, "--spots", spots,
            "--entry", "2025-06-02", "--exit", "2025-06-27"])
        c.check(code == 0, f"backtest exit {code}: {err.strip()}")
        doc = json.loads(out)
        c.check(set(doc) == {"entry", "exit", "iv_policy", "config",
                             "cohorts"}, f"backtest keys {sorted(doc)}")
        cohorts = doc["cohorts"]
        c.check(set(cohorts) == {"all", "top"}
                and cohorts["all"]["n"] == n_rows
                and cohorts["top"]["n"] == 1, "cohort shapes wrong")
        labels = {row["label"] for row in cohorts["all"]["strategies"]}
        c.check(f"IRON_CONDOR#{n_rows}" in labels,
                f"missing ranked label in {sorted(labels)[:3]}...")
        for key in ("wr", "re50", "re90"):
            value = cohorts["all"][key]
            c.check(value is not None and 0.0 <= value <= 1.0,
                    f"{key} out of range: {value}")

        code, out, err = run_cli([
            "eval", "--cases", os.path.join(DATA_DIR, "cases20.jsonl")])
        c.check(code == 0, f"eval exit {code}: {err.strip()}")
        doc = json.loads(out)
        c.check(doc["n"] == 20 and doc["vr"] == 0.85
                and len(doc["outcomes"]) == 20,
                "evaluation headline numbers wrong")
        c.detail = (f"chain 196 records -> {n_rows} condors -> cohort "
                    "metrics -> 20-case evaluation")

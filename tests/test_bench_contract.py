"""The benchmark's hooks into oql still resolve.

perfbench/ traces oql by replacing module functions by name and checks
workload W through engine.assemble(vq, engine.filter_legs(...), config).
These tests run both against the current sources, so renaming or
reshaping one of those functions fails here rather than in a benchmark
run, and a traced query must reach every engine stage the trace names:
a wrapped function that execute no longer calls would read 0 in every
benchmark run. The seed-1 scan, attempts and backtest ops must give
their committed golden outcomes, so a change to output bytes or to an
eval outcome (k, rows, strategy, error stages) fails here too.
perfbench/ is put on sys.path and nothing in it is changed.
"""

import json
import os
import sys

import pytest

from helpers import oracle_survivors, result_instances
from oql import backtest, chain, engine, evalkit, pricing, serialize  # noqa: F401
from oql.catalog import validate
from oql.config import RunConfig
from oql.syntax import parse_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
CHAIN = os.path.join(ROOT, "tests", "data", "chain_tsla.csv")


@pytest.fixture(scope="module")
def perfbench():
    # perfbench's modules import their siblings lazily, so the path stays
    # for the run
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def spans(perfbench):
    import spans as module
    return module


def test_every_traced_function_resolves(spans):
    points = spans.wrap_points(spans.Tracer())
    assert len(points) >= 20
    for owner, attr, wrapper in points:
        assert callable(getattr(owner, attr)), attr
        assert wrapper.__wrapped__ is getattr(owner, attr)


@pytest.mark.parametrize("query", [
    "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.3 "
    "AND LC.Delta < 0.15 AND SP.Delta > -0.3 AND LP.Delta > -0.15",
    "SELECT BUTTERFLY_CALL FROM TSLA WHERE Dte ~ 30",
    "SELECT CALENDAR_CALL FROM TSLA",
])
def test_assemble_over_filter_legs_matches_the_oracle(query):
    snap = chain.load_snapshot(CHAIN)
    config = RunConfig(combinatorial_cap=10**12)
    vq = validate(parse_text(query))
    rows, raw = engine.assemble(vq, engine.filter_legs(vq, snap, config), config)
    _, want = oracle_survivors(vq, snap, config)
    assert raw == want["raw_product"]
    assert len(rows) == want["assembled"]


def test_traced_query_records_every_engine_stage(spans):
    tracer = spans.Tracer()
    query = ("SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.3 "
             "AND LC.Delta < 0.15 AND SP.Delta > -0.3 AND LP.Delta > -0.15 "
             "HAVING net_theta > 0 ORDER BY rr_ratio DESC LIMIT 5")
    snap = chain.load_snapshot(CHAIN)
    with spans.Patched(spans.wrap_points(tracer)):
        result = engine.execute(query, snap, RunConfig())
        # the breakevens are computed only when the result is rendered
        assert len(result_instances(result)) == 5
    calls = spans.summarize(tracer.names, **tracer.arrays())["calls"]
    for name in ("engine.filter_legs", "engine.assemble", "engine.survivors",
                 "engine.compute_aggregates", "pricing.payoff_extremes",
                 "pricing.breakevens", "engine.eval_strat_condition",
                 "engine.order_and_limit"):
        assert calls.get(name, 0) >= 1, name


def test_traced_load_records_an_enrich_span(spans):
    # load_snapshot reaches enrich through the module attribute, so the
    # traced chain.enrich span keeps timing enrichment of every load
    tracer = spans.Tracer()
    with spans.Patched(spans.wrap_points(tracer)):
        snap = chain.load_snapshot(CHAIN)
    calls = spans.summarize(tracer.names, **tracer.arrays())["calls"]
    assert calls["chain.load_snapshot"] == 1
    assert calls["chain.enrich"] == 1
    # one floor price per record, none expiring on as_of
    assert calls["pricing.bsm_price"] == len(snap.records) + len(snap.excluded)


def test_rendering_prints_the_query_through_the_engine_module(spans):
    # ResultSet.text is printed on first read, so the traced
    # syntax.pretty_print span counts a call only if the engine looks
    # pretty_print up as a module global when it is read
    tracer = spans.Tracer()
    snap = chain.load_snapshot(CHAIN)
    with spans.Patched(spans.wrap_points(tracer)):
        result = engine.execute("select bull_call_spread from tsla limit 2",
                                snap, RunConfig())
        before = spans.summarize(tracer.names, **tracer.arrays())["calls"]
        doc = engine.result_to_json(result, RunConfig())
        serialize.dumps(doc)
    calls = spans.summarize(tracer.names, **tracer.arrays())["calls"]
    assert before.get("syntax.pretty_print", 0) == 0
    assert calls["syntax.pretty_print"] == 1
    assert doc["query"] == "SELECT BULL_CALL_SPREAD FROM TSLA LIMIT 2"


@pytest.mark.parametrize("workload", ["scan", "attempts", "backtest"])
def test_seed_one_ops_give_their_golden_outcomes(perfbench, workload, tmp_path):
    import golden
    import inputs
    import workloads
    manifest = inputs.write_inputs(workload, 1, str(tmp_path))
    run = workloads.WORKLOADS[workload](str(tmp_path))
    ops = run.ops()
    expected = golden.expected_outcomes(workload, str(tmp_path), manifest)
    assert len(ops) == len(expected) > 0
    for op, want in zip(ops, expected):
        assert run.outcome(run.run(op)) == want, op


def test_traced_backtest_ops_record_each_policy_and_every_position_day(
        spans, tmp_path):
    # the mark_path wrapper spells out mark_path's parameters, so a
    # signature it cannot forward would fail every traced op here
    import golden
    import inputs
    import workloads
    manifest = inputs.write_inputs("backtest", 1, str(tmp_path))
    run = workloads.Backtest(str(tmp_path))
    expected = golden.expected_outcomes("backtest", str(tmp_path), manifest)
    firsts = {}  # the first op under each iv policy
    for op, want in zip(run.ops(), expected):
        firsts.setdefault(op["iv_policy"], (op, want))
    assert sorted(firsts) == sorted(backtest.IV_POLICIES)
    tracer = spans.Tracer()
    with spans.Patched(spans.wrap_points(tracer)):
        for op, want in firsts.values():
            assert run.outcome(run.run(op)) == want, op
    calls = spans.summarize(tracer.names, **tracer.arrays())["calls"]
    untraced_days = 0
    for policy, (op, _) in firsts.items():
        assert calls[f"backtest.mark_path.{policy}"] >= 1, policy
        result = engine.execute(op["query"], run.snapshot, run.config)
        positions = backtest.positions_from_results(json.loads(serialize.dumps(
            engine.result_to_json(result, run.config))))
        snapshots = run.snapshots if policy == "snapshot" else None
        untraced_days += sum(
            len(backtest.mark_path(p, run.spots, run.entry, run.exit,
                                   run.config, policy, snapshots).dates)
            for p in positions)
    assert untraced_days > 0
    assert tracer.counts["backtest.position_days"] == untraced_days

"""The benchmark's hooks into oql still resolve.

perfbench/ traces oql by replacing module functions by name and checks
workload W through engine.assemble(vq, engine.filter_legs(...), config).
These tests run both against the current sources, so renaming or
reshaping one of those functions fails here rather than in a benchmark
run. perfbench/ is put on sys.path and nothing in it is changed.
"""

import os
import sys

import pytest

from helpers import oracle_survivors
from oql import backtest, chain, engine, evalkit, pricing, serialize  # noqa: F401
from oql.catalog import validate
from oql.config import RunConfig
from oql.syntax import parse_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
CHAIN = os.path.join(ROOT, "tests", "data", "chain_tsla.csv")


@pytest.fixture(scope="module")
def spans():
    # spans imports its sibling modules lazily, so the path stays for the run
    sys.path.insert(0, PERFBENCH)
    import spans as module
    yield module
    sys.path.remove(PERFBENCH)


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

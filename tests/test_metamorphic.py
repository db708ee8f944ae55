"""Metamorphic relations over the differential corpus.

tests/test_corpus.py pins each case's outcome as it was recorded, so a
defect present at recording is pinned too. The relations here check the
engine against itself under a change of input whose effect on the output
is known exactly, and need no recorded answer:

* LIMIT prefix: a case whose query has LIMIT k returns the first k
  strategies of the same query without LIMIT, with the same stats apart
  from `returned`;
* record permutation: the snapshot's records shuffled with a fixed seed
  leave every outcome hash unchanged.

Each relation runs over every test_corpus.cases() case, as is and with
engine._BLOCK at 7, as the corpus does, and checks how many cases it
covered.
"""

import dataclasses
import json
import random

import pytest

from oql import engine, serialize
from oql.engine import execute, result_to_json
from oql.errors import OqlError
from oql.syntax import parse_text, pretty_print
from test_corpus import CORPUS_FILE, GROUPS, PER_GROUP, cases, outcome

# the cases each relation covers: those with a LIMIT whose query
# executes, and every case
LIMIT_CASES = 929
PERMUTED_CASES = GROUPS * PER_GROUP
SHUFFLE_SEED = 19


@pytest.fixture(params=[None, 7], ids=["one-block", "blocks-of-7"])
def block_size(request, monkeypatch):
    """The engine's block size: its default, or 7 rows."""
    if request.param is not None:
        monkeypatch.setattr(engine, "_BLOCK", request.param)


def _run(query, snapshot, config):
    """(results document, None), or (None, `stage:message`)."""
    try:
        return result_to_json(execute(query, snapshot, config), config), None
    except OqlError as exc:
        return None, f"{exc.stage}:{exc}"


def test_limit_returns_a_prefix_of_the_limit_free_run(block_size):
    covered = 0
    for snapshot, query, config in cases():
        ast = parse_text(query) if isinstance(query, str) else query
        if ast.limit is None:
            continue
        limited, error = _run(query, snapshot, config)
        full, full_error = _run(dataclasses.replace(ast, limit=None),
                                snapshot, config)
        assert error == full_error, pretty_print(ast)
        if error is not None:
            continue
        strategies, stats = limited["strategies"], limited["stats"]
        prefix = full["strategies"][:ast.limit]
        assert serialize.dumps(strategies) == serialize.dumps(prefix), \
            pretty_print(ast)
        assert stats["returned"] == len(strategies)
        assert {**stats, "returned": 0} == {**full["stats"], "returned": 0}
        covered += 1
    print(f"LIMIT prefix held on {covered} cases")
    assert covered == LIMIT_CASES


def _shuffled(snapshot, rng: random.Random):
    """A copy of snapshot with its records in a random order, marked
    enriched when the source is (dataclasses.replace drops the mark)."""
    records = list(snapshot.records)
    rng.shuffle(records)
    copy = dataclasses.replace(snapshot, records=tuple(records))
    assert copy.records != snapshot.records
    if snapshot.enriched:
        object.__setattr__(copy, "enriched", True)
    return copy


def test_shuffled_records_leave_every_outcome_unchanged(block_size):
    with open(CORPUS_FILE, "r", encoding="utf-8") as fh:
        want = json.load(fh)["sha256"]
    rng = random.Random(SHUFFLE_SEED)
    source = copy = None
    got = []
    for snapshot, query, config in cases():
        if snapshot is not source:  # a group's cases share its snapshot
            source, copy = snapshot, _shuffled(snapshot, rng)
        got.append(outcome(copy, query, config))
    moved = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert moved == [], f"{len(moved)} cases moved, first {moved[:20]}"
    print(f"record permutation held on {len(got)} cases")
    assert len(got) == len(want) == PERMUTED_CASES

"""Metamorphic relations over the differential corpus.

tests/test_corpus.py pins each case's outcome as it was recorded, so a
defect present at recording is pinned too. The relations here check the
engine against itself under a change of input whose effect on the output
is known exactly, and need no recorded answer:

* LIMIT prefix: a case whose query has LIMIT k returns the first k
  strategies of the same query without LIMIT, with the same stats apart
  from `returned`;
* record permutation: the snapshot's records shuffled with a fixed seed
  leave every outcome hash unchanged; it also runs over derandomized
  hypothesis draws of helpers.random_snapshot and random_valid_query;
* WHERE partition: for a role-bound comparison c, the rows assembled
  with c and with its negation add up to those assembled without c, less
  the rows whose leg lacks the tested field (its `_ok` column is false);
* HAVING partition: the same for a HAVING comparison and `having_passed`,
  less the rows whose aggregate is unavailable;
* multiplier doubling: doubling the contract multiplier, and every HAVING
  value or BETWEEN bound on a field the multiplier scales, keeps the same
  rows in the same order with the same stats; the scaled fields double bit
  for bit and every other aggregate stays as it was. A case whose HAVING
  holds `~` at target 0 on a scaled field is skipped and counted, since
  that band is the absolute epsilon_abs, which does not scale.

Each relation runs over every test_corpus.cases() case, as is and with
engine._BLOCK at 7, as the corpus does, and checks how many cases it
covered.
"""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oql import chain, engine, serialize
from oql.config import RunConfig
from oql.engine import execute, result_to_json
from oql.errors import OqlError
from oql.syntax import parse_text, pretty_print
from helpers import distinct_prefix, random_snapshot, random_valid_query
from test_corpus import CORPUS_FILE, GROUPS, PER_GROUP, cases, outcome

# the cases each relation covers: those with a LIMIT whose query
# executes, and every case; then the conditions each partition covers;
# then the cases multiplier doubling covers, and those it skips
LIMIT_CASES = 929
PERMUTED_CASES = GROUPS * PER_GROUP
PERMUTED_DRAWS = 200
WHERE_CONDITIONS = 717
HAVING_CONDITIONS = 1862
DOUBLED_CASES = 1766
DOUBLED_ABSOLUTE = 0
SHUFFLE_SEED = 19
NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


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


def test_shuffled_records_leave_a_drawn_outcome_unchanged(block_size):
    ran = []

    @given(seed=st.integers(0, 2 ** 32 - 1), cut=st.booleans())
    @settings(max_examples=PERMUTED_DRAWS, deadline=None, derandomize=True,
              database=None)
    def relation(seed, cut):
        rng = random.Random(seed)
        snapshot = random_snapshot(rng)
        if cut:  # tickers of mixed lengths, some a prefix of another
            taken: set[str] = set()
            snapshot = dataclasses.replace(snapshot, records=tuple(
                dataclasses.replace(r, ticker=distinct_prefix(
                    r.ticker, rng.randint(4, 20), taken))
                for r in snapshot.records))
        query = random_valid_query(rng, snapshot)
        config = RunConfig(atm_band=rng.choice((0.0, 0.01, 0.05)))
        assert (outcome(_shuffled(snapshot, rng), query, config)
                == outcome(snapshot, query, config)), pretty_print(query)
        ran.append(seed)

    relation()
    print(f"record permutation held on {len(ran)} drawn cases")
    assert len(ran) == PERMUTED_DRAWS


def _partitions(clause: str):
    """(case, the query without the clause's condition i, with it, with
    its negation, the condition) for every comparison of the clause that
    the relation covers, ORDER BY and LIMIT dropped; for WHERE, HAVING too,
    which leaves the assembled rows alone."""
    for snapshot, query, config in cases():
        ast = parse_text(query) if isinstance(query, str) else query
        ast = dataclasses.replace(ast, order_by=(), limit=None)
        if clause == "where":
            ast = dataclasses.replace(ast, having=())
        conditions = getattr(ast, clause)
        for i, cond in enumerate(conditions):
            # a broadcast WHERE condition tests every role at once
            if cond.op not in NEGATION or (clause == "where" and cond.role is None):
                continue
            rest = conditions[:i] + conditions[i + 1:]
            negated = dataclasses.replace(cond, op=NEGATION[cond.op])
            yield ((snapshot, config), dataclasses.replace(ast, **{clause: rest}),
                   ast, dataclasses.replace(ast, **{clause: rest + (negated,)}),
                   cond)


def _split(clause: str, count, missing) -> tuple[int, int]:
    """Check one partition relation: the number of conditions it covered,
    and of those with rows the condition cannot test."""
    covered = untested = 0
    for (snapshot, config), without, with_c, with_not, cond in _partitions(clause):
        try:
            whole = execute(without, snapshot, config)
        except OqlError:
            continue
        parts = [count(execute(q, snapshot, config)) for q in (with_c, with_not)]
        lost = missing(whole, cond)
        assert sum(parts) == count(whole) - lost, pretty_print(with_c)
        covered += 1
        untested += lost > 0
    return covered, untested


def _missing_leg_field(result, cond) -> int:
    """Rows of the result whose cond.role leg lacks cond.field."""
    known = result.snapshot.columns.get(f"{cond.field.lower()}_ok")
    if known is None:
        return 0
    role = result.query.schema.role_ids.index(cond.role)
    return int((~known[result.passed[:, role]]).sum())


def test_where_partitions_the_assembled_rows(block_size):
    covered, untested = _split("where", lambda result: result.stats.assembled,
                               _missing_leg_field)
    print(f"WHERE partition held on {covered} conditions, {untested} of them "
          "with a leg missing the field")
    assert covered == WHERE_CONDITIONS


def test_having_partitions_the_rows_that_pass(block_size):
    covered, untested = _split(
        "having", lambda result: result.stats.having_passed,
        lambda result, cond: int(
            (~result.complete([cond.field])[cond.field][1]).sum()))
    print(f"HAVING partition held on {covered} conditions, {untested} of them "
          "with the aggregate unavailable")
    assert covered == HAVING_CONDITIONS


# the aggregates the contract multiplier scales: cash, payoff and net Greeks
SCALED = ("net_debit", "net_credit", "max_loss", "max_profit",
          "net_delta", "net_gamma", "net_vega", "net_theta")


def _doubled(cond):
    """cond with its value or bounds doubled when its field scales."""
    if cond.field not in SCALED:
        return cond
    if cond.op == "BETWEEN":
        return dataclasses.replace(cond, lo=2 * cond.lo, hi=2 * cond.hi)
    return dataclasses.replace(cond, value=2 * cond.value)


def _execute(query, snapshot, config):
    """(the result, its aggregates read), or (None, `stage:message`)."""
    try:
        result = execute(query, snapshot, config)
        return result, result.aggregates
    except OqlError as exc:
        return None, f"{exc.stage}:{exc}"


def _bits(values: np.ndarray) -> np.ndarray:
    """The float64 values as their bit patterns, so -0.0 != 0.0."""
    return values.view(np.int64)


def test_doubling_the_multiplier_doubles_the_scaled_fields(block_size):
    covered = absolute = 0
    source = enriched = None
    for snapshot, query, config in cases():
        # the multiplier does not enter enrichment: enrich a group's
        # snapshot once for both runs of all its cases
        if snapshot is not source:
            source, enriched = snapshot, chain.enrich(snapshot)
        ast = parse_text(query) if isinstance(query, str) else query
        # the ~ band at target 0 is absolute, so it does not scale
        if any(cond.op == "~" and cond.field in SCALED and cond.value == 0
               for cond in ast.having):
            absolute += 1
            continue
        result, read = _execute(ast, enriched, config)
        twice, twice_read = _execute(
            dataclasses.replace(ast, having=tuple(map(_doubled, ast.having))),
            enriched, dataclasses.replace(config, multiplier=2 * config.multiplier))
        if result is None or twice is None:  # the same `stage:message`
            assert twice_read == read, pretty_print(ast)
            continue
        assert twice.stats == result.stats, pretty_print(ast)
        assert np.array_equal(twice.rows, result.rows), pretty_print(ast)
        for field, (values, available) in read.items():
            twice_values, twice_available = twice_read[field]
            scale = 2 if field in SCALED else 1
            assert np.array_equal(_bits(twice_values), _bits(scale * values)), \
                (field, pretty_print(ast))
            assert np.array_equal(twice_available, available), \
                (field, pretty_print(ast))
        covered += 1
    print(f"multiplier doubling held on {covered} cases, {absolute} skipped "
          "for a ~ at target 0 on a scaled field")
    assert (covered, absolute) == (DOUBLED_CASES, DOUBLED_ABSOLUTE)

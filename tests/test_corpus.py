"""Differential corpus: 2,000 seeded (snapshot, query, config) cases.

tests/data/corpus_sha256.json holds one sha256 per case, recorded once
from the engine that computed all twelve aggregates of every assembled
row. A case hashes the standard and the blueprint results document
(serialize.dumps of result_to_json), or `stage:message` when execute
raises. Every case must reproduce its hash, so a change to ranking,
aggregates, stats, rendering or error stage fails here even when every
self-consistency check still passes.

The cases come in groups of 20 queries on one snapshot. A group's
snapshot is a helpers.random_snapshot, as generated or hand-built from
one: tickers cut to 3-20 characters with helpers.distinct_prefix, and
some Greeks dropped, either left for enrich to backfill or kept missing
on a snapshot marked enriched. Queries are helpers.random_valid_query,
some without WHERE, with extra HAVING conditions and ORDER BY keys over
every aggregate field and random LIMITs; one in twelve is a
helpers.random_ast, which mostly fails validation or names another
underlying. Configs vary the soft-match band, the ATM band, the
multiplier, symmetric wings and the combinatorial cap.

The corpus runs twice: as is, where every case is one block, and with
engine._BLOCK at 7, so that assembly, HAVING, ranking and the
aggregates read merge many blocks.

Recording (only when the output contract changes on purpose):

    PYTHONPATH=src python3 tests/test_corpus.py --record
"""

import dataclasses
import hashlib
import json
import os
import random
import sys

from helpers import (
    distinct_prefix,
    random_ast,
    random_snapshot,
    random_strat_condition,
    random_valid_query,
)
from oql import engine, serialize
from oql.config import RunConfig
from oql.engine import execute, result_to_json
from oql.errors import OqlError
from oql.fields import AGGREGATE_FIELDS
from oql.syntax import OrderItem, pretty_print

CORPUS_FILE = os.path.join(os.path.dirname(__file__), "data",
                           "corpus_sha256.json")
SEED = 20_260_408
GROUPS = 100
PER_GROUP = 20
GREEKS = ("delta", "gamma", "vega", "theta")


def _snapshot(rng: random.Random, kind: int):
    """Group snapshot: 0 generated, 1 cut tickers, 2 cut tickers and
    dropped Greeks that enrich backfills, 3 cut tickers and Greeks that
    stay missing."""
    snapshot = random_snapshot(rng)
    if kind == 0:
        return snapshot
    taken: set[str] = set()
    records = []
    for r in snapshot.records:
        dropped = ({g: None for g in GREEKS if rng.random() < 0.25}
                   if kind >= 2 else {})
        records.append(dataclasses.replace(
            r, ticker=distinct_prefix(r.ticker, rng.randint(3, 20), taken),
            **dropped))
    snapshot = dataclasses.replace(snapshot, records=tuple(records))
    if kind == 3:
        object.__setattr__(snapshot, "enriched", True)
    return snapshot


def _query(rng: random.Random, snapshot):
    """A query AST, or its text one time in four."""
    if rng.random() < 1 / 12:
        ast = random_ast(rng)
    else:
        ast = random_valid_query(rng, snapshot)
        if rng.random() < 0.2:
            ast = dataclasses.replace(ast, where=())
        if rng.random() < 0.3:
            ast = dataclasses.replace(
                ast, having=ast.having + (random_strat_condition(rng),))
        if rng.random() < 0.5:
            order_by = tuple(OrderItem(rng.choice(AGGREGATE_FIELDS),
                                       rng.choice(("ASC", "DESC")))
                             for _ in range(rng.randint(0, 3)))
            ast = dataclasses.replace(
                ast, order_by=order_by,
                limit=rng.choice((None, None, 1, 2, 3, 7, 25)))
    return pretty_print(ast) if rng.random() < 0.25 else ast


def _config(rng: random.Random) -> RunConfig:
    return RunConfig(
        epsilon=rng.choice((0.15, 0.15, 0.05, 0.4)),
        atm_band=rng.choice((0.01, 0.0, 0.05)),
        multiplier=rng.choice((100.0, 100.0, 1.0, 10.0)),
        symmetric_wings=rng.random() < 0.2,
        combinatorial_cap=rng.choice((10_000_000,) * 8 + (50, 400)))


def cases():
    """Every (snapshot, query, config) case in corpus order."""
    rng = random.Random(SEED)
    for group in range(GROUPS):
        snapshot = _snapshot(rng, group % 4)
        for _ in range(PER_GROUP):
            yield snapshot, _query(rng, snapshot), _config(rng)


def outcome(snapshot, query, config: RunConfig) -> str:
    """sha256 of both results documents, or of `stage:message`."""
    try:
        result = execute(query, snapshot, config)
    except OqlError as exc:
        text = f"{exc.stage}:{exc}"
    else:
        blueprint = dataclasses.replace(config, output_mode="blueprint")
        text = "\n".join((serialize.dumps(result_to_json(result, config)),
                          serialize.dumps(result_to_json(result, blueprint))))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_reproduces_its_recorded_hash():
    with open(CORPUS_FILE, "r", encoding="utf-8") as fh:
        want = json.load(fh)["sha256"]
    got = [outcome(*case) for case in cases()]
    assert len(got) == len(want) == GROUPS * PER_GROUP
    moved = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert moved == [], f"{len(moved)} cases moved, first {moved[:20]}"


def test_every_case_holds_when_rows_come_in_tiny_blocks(monkeypatch):
    # every case assembles at most 70 rows, one block at the default size;
    # blocks of 7 make _join, survivors and ResultSet.complete merge
    # many blocks per case
    monkeypatch.setattr(engine, "_BLOCK", 7)
    test_every_case_reproduces_its_recorded_hash()


def record() -> None:
    digests = [outcome(*case) for case in cases()]
    with open(CORPUS_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "sha256": digests}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_corpus.py --record")
    record()

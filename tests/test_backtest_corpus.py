"""Backtest byte gate: seeded run_cohorts cases against recorded hashes.

tests/data/backtest_corpus_sha256.json holds one sha256 per case, of
serialize.dumps of the case's run_cohorts reports ("all" and "top", as
`oql backtest` writes them), or of `stage:message` when the case raises.
Every case must reproduce its hash, so a change to marking, settlement,
the cohort metrics or an error's text, stage or order fails here.

A group is one synthetic chain at entry with three expiries, a GBM spot
path and one snapshot per day whose ivs drift from the entry ivs. Its
positions are the returned strategies of one catalog family (every
family in turn, calendars included), read back through
positions_from_results. Each group gives four cases: two exits, each
under both iv policies. One exit falls inside the first position's
window, the other anywhere from before entry to past every expiry. Some
groups lose a spot day, a snapshot day, both on one day, or one held
contract's iv on one day.

Recording (only when the output contract changes on purpose):

    PYTHONPATH=src python3 tests/test_backtest_corpus.py --record
"""

import collections
import dataclasses
import datetime as dt
import hashlib
import json
import os
import random
import sys

from oql import serialize
from oql.backtest import IV_POLICIES, positions_from_results, run_cohorts
from oql.catalog import build_catalog
from oql.chain import ChainSnapshot, generate_path, generate_synthetic
from oql.config import RunConfig
from oql.engine import execute, result_to_json
from oql.errors import OqlError

CORPUS_FILE = os.path.join(os.path.dirname(__file__), "data",
                           "backtest_corpus_sha256.json")
SEED = 20_261_019
GROUPS = 100
FAMILIES = sorted(build_catalog())
ORDER_KEYS = ("net_debit", "net_credit", "rr_ratio", "width", "net_theta")
# the error texts a case may end in
FAILURES = ("no spot for", "no snapshot for", "no iv for",
            "is after effective exit")


def _day_snapshot(rng: random.Random, entry_chain: ChainSnapshot,
                  day: dt.date, spot: float, lost=None) -> ChainSnapshot:
    """The entry chain's contracts as of `day`, each iv drifted. The
    contract `lost` names as (expiry, option type, strike) is left out,
    or kept without an iv."""
    shift = rng.uniform(-0.05, 0.05)
    records = []
    for r in entry_chain.records:
        iv = max(0.05, r.iv + shift + rng.uniform(-0.01, 0.01))
        if (r.expiry, r.option_type, r.strike) == lost:
            if rng.random() < 0.5:
                continue
            iv = None
        records.append(dataclasses.replace(r, as_of=day, iv=iv))
    return ChainSnapshot(underlying=entry_chain.underlying, as_of=day,
                         spot=spot, rate=entry_chain.rate,
                         records=tuple(records))


def _group(rng: random.Random, group: int):
    """One group's positions, spots, entry, snapshots and config, and the
    days from entry to the first position's earliest expiry."""
    entry = dt.date(2025, 6, 2) + dt.timedelta(days=rng.randrange(200))
    spot = round(rng.uniform(40.0, 400.0), 2)
    rate = rng.choice((0.0, 0.03, 0.05))
    step = max(0.5, round(spot * rng.choice((0.025, 0.05)) * 2) / 2)
    strikes = [round(spot / step) * step + step * i for i in range(-3, 4)]
    expiries = sorted({entry + dt.timedelta(days=d) for d in
                       (rng.randint(4, 15), rng.randint(16, 30),
                        rng.randint(31, 45))})
    chain = generate_synthetic("SPY", entry, spot, rate, expiries, strikes,
                               base_vol=rng.uniform(0.15, 0.6),
                               skew=rng.uniform(-0.3, 0.0),
                               term=rng.uniform(0.0, 0.1), seed=group)
    config = RunConfig(multiplier=rng.choice((100.0, 100.0, 10.0)),
                       rate=rate, symmetric_wings=rng.random() < 0.2)
    query = (f"SELECT {FAMILIES[group % len(FAMILIES)]} FROM SPY "
             f"ORDER BY {rng.choice(ORDER_KEYS)} "
             f"{rng.choice(('ASC', 'DESC'))} LIMIT {rng.randint(1, 8)}")
    positions = positions_from_results(
        result_to_json(execute(query, chain, config), config))

    horizon = (expiries[-1] - entry).days + 5
    levels = generate_path(spot, rng.uniform(-0.2, 0.2),
                           rng.uniform(0.1, 0.8), horizon, seed=group)
    days = [entry + dt.timedelta(days=i) for i in range(horizon + 1)]
    spots = dict(zip(days, levels))
    # a lost day or contract falls inside the first position's window
    first = min(leg.expiry for leg in positions[0].legs)
    inside = days[1:(first - entry).days + 1]
    gap = rng.choice(inside)
    held = rng.choice(positions[rng.randrange(len(positions))].legs)
    lost = ((held.expiry, held.option_type, held.strike)
            if rng.random() < 0.2 else None)
    snapshots = {day: _day_snapshot(rng, chain, day, spots[day],
                                    lost if day == gap else None)
                 for day in days}
    # lose a spot day, a spot and a snapshot on one day (the missing spot
    # is reported), or a snapshot day
    loss = rng.random()
    if loss < 0.16:
        del spots[gap]
    if 0.08 < loss < 0.28:
        del snapshots[gap if loss < 0.16 else rng.choice(inside)]
    return positions, spots, entry, snapshots, config, (first - entry).days


def cases():
    """Every (positions, spots, entry, exit, config, iv_policy, snapshots)
    case in corpus order."""
    rng = random.Random(SEED)
    for group in range(GROUPS):
        positions, spots, entry, snapshots, config, window = _group(rng, group)
        # one exit inside the first position's window, one anywhere
        for days in (rng.randint(0, window), rng.randint(-5, 50)):
            exit = entry + dt.timedelta(days=days)
            for iv_policy in IV_POLICIES:
                yield positions, spots, entry, exit, config, iv_policy, snapshots


def outcome(positions, spots, entry, exit, config, iv_policy,
            snapshots) -> str:
    """sha256 of the dumped reports, or of `stage:message`."""
    try:
        reports = run_cohorts(positions, spots, entry, exit, config,
                              iv_policy, snapshots)
    except OqlError as exc:
        text = f"{exc.stage}:{exc}"
    else:
        text = serialize.dumps({name: report.to_json_dict()
                                for name, report in reports.items()})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_reproduces_its_recorded_hash():
    with open(CORPUS_FILE, "r", encoding="utf-8") as fh:
        want = json.load(fh)["sha256"]
    got = [outcome(*case) for case in cases()]
    assert len(got) == len(want) == GROUPS * 4
    moved = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert moved == [], f"{len(moved)} cases moved, first {moved[:20]}"


def test_the_cases_cover_what_the_gate_is_for():
    families, exits = set(), set()
    kinds = collections.Counter()
    for positions, spots, entry, exit, config, iv_policy, snapshots in cases():
        families.add(positions[0].label.split("#")[0])
        first = min(leg.expiry for p in positions for leg in p.legs)
        exits.add((exit > entry) + (exit > first))
        try:
            run_cohorts(positions, spots, entry, exit, config, iv_policy,
                        snapshots)
        except OqlError as exc:
            [kind] = [k for k in FAILURES if k in str(exc)]
            kinds[kind] += 1
        else:
            kinds[iv_policy] += 1
    assert families == set(FAMILIES)
    # exits at or before entry, inside every window, and past a leg expiry
    assert exits == {0, 1, 2}
    assert kinds["sticky_entry"] >= 100 and kinds["snapshot"] >= 100
    for kind in FAILURES:
        assert kinds[kind] >= 5, (kind, kinds[kind])


def record() -> None:
    digests = [outcome(*case) for case in cases()]
    with open(CORPUS_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "sha256": digests}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_backtest_corpus.py --record")
    record()

"""Byte pins: `oql run` output on the committed chains, recorded once.

tests/data/run_pins.json holds the exit code, stdout and stderr of every
run below. The first 27 CLI runs and the engine runs were recorded from
the row-at-a-time engine that preceded the columnar core; the WHERE-heavy
runs after them from the engine that still filtered one record at a time.
Each run must reproduce them byte for byte, so a change in ranking,
aggregates, stats or formatting shows up here even when every
self-consistency check still passes.

The engine-level pins run survivors() and order_and_limit() on the edge
chain with one Greek removed: enrich backfills missing Greeks, so a None
net Greek cannot reach a query through the CLI.

Recording (only when the output contract changes on purpose):

    PYTHONPATH=src python3 tests/test_pins.py --record
"""

import dataclasses
import json
import os
import sys

import pytest

from helpers import run_cli
from oql import serialize
from oql.catalog import validate
from oql.chain import load_snapshot
from oql.config import RunConfig
from oql.engine import (ResultSet, order_and_limit, result_to_json,
                        survivors)
from oql.serialize import format_date
from oql.syntax import parse_text, pretty_print

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
PIN_FILE = os.path.join(DATA_DIR, "run_pins.json")

TSLA = "chain_tsla.csv"
QQQ = "chain_qqq.csv"
EDGE = "chain_spy_edges.csv"

# (chain file, query, extra CLI flags)
CLI_RUNS = [
    (TSLA, "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.20 "
           "AND LC.Delta < 0.05 AND SP.Delta > -0.20 AND LP.Delta > -0.05 "
           "HAVING net_theta > 0 AND max_loss < 500 LIMIT 10", []),
    (TSLA, "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 60 AND SC.Delta < 0.3 "
           "AND LC.Delta < 0.15 AND SP.Delta > -0.3 AND LP.Delta > -0.15 "
           "HAVING rr_ratio BETWEEN 0.2 AND 1 ORDER BY net_credit DESC LIMIT 5",
     ["--output-mode", "blueprint"]),
    (TSLA, "SELECT LONG_CALL FROM TSLA ORDER BY net_theta DESC LIMIT 3", []),
    (TSLA, "SELECT LONG_PUT FROM TSLA WHERE Moneyness = OTM "
           "ORDER BY net_debit ASC LIMIT 5", []),
    (TSLA, "SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 30 "
           "HAVING net_debit < 300 ORDER BY rr_ratio DESC LIMIT 5", []),
    (TSLA, "SELECT BEAR_CALL_SPREAD FROM TSLA WHERE Dte ~ 60 AND S.Delta < 0.3 "
           "HAVING net_credit BETWEEN 100 AND 400 "
           "ORDER BY rr_ratio DESC, net_credit DESC LIMIT 5", []),
    (TSLA, "SELECT BEAR_PUT_SPREAD FROM TSLA WHERE Moneyness = OTM "
           "HAVING max_loss ~ 200 ORDER BY net_debit ASC LIMIT 4", []),
    (TSLA, "SELECT CALENDAR_CALL FROM TSLA WHERE Strike ~ 300 "
           "ORDER BY net_debit ASC", []),
    (TSLA, "SELECT CALENDAR_CALL FROM TSLA LIMIT 5", []),
    (TSLA, "SELECT STRADDLE FROM TSLA WHERE Dte ~ 30 AND Moneyness = ATM", []),
    (TSLA, "SELECT STRADDLE FROM TSLA ORDER BY breakeven_high DESC LIMIT 3", []),
    (TSLA, "SELECT STRANGLE FROM TSLA WHERE Dte ~ 30 AND P.Delta > -0.3 "
           "AND C.Delta < 0.3 HAVING net_vega > 0 "
           "ORDER BY net_debit ASC LIMIT 5", ["--format", "table"]),
    (TSLA, "SELECT BUTTERFLY_CALL FROM TSLA WHERE Dte ~ 30 "
           "ORDER BY rr_ratio DESC LIMIT 5", []),
    (TSLA, "SELECT BUTTERFLY_CALL FROM TSLA WHERE Dte ~ 60 AND Strike > 250 "
           "AND Strike < 350 HAVING width ~ 40 ORDER BY max_loss ASC LIMIT 5",
     ["--symmetric-wings"]),
    (TSLA, "SELECT IRON_CONDOR FROM TSLA", ["--cap", "1000"]),
    (QQQ, "SELECT IRON_CONDOR FROM QQQ WHERE SC.Dte ~ 30 AND LC.Dte ~ 30 "
          "AND SP.Dte ~ 30 AND LP.Dte ~ 30 HAVING net_credit >= 100 "
          "ORDER BY rr_ratio DESC LIMIT 20", []),
    (QQQ, "SELECT BUTTERFLY_CALL FROM QQQ HAVING max_profit > 500 "
          "AND breakeven_low > 450 ORDER BY max_profit DESC, rr_ratio DESC "
          "LIMIT 6", []),
    (QQQ, "SELECT BEAR_PUT_SPREAD FROM QQQ WHERE L.Moneyness != OTM "
          "HAVING net_delta ~ -20 AND width BETWEEN 10 AND 30 "
          "ORDER BY net_gamma ASC LIMIT 5", []),
    (QQQ, "SELECT STRANGLE FROM QQQ HAVING net_debit != 1000 "
          "ORDER BY breakeven_low DESC, width ASC LIMIT 5",
     ["--multiplier", "10"]),
    (QQQ, "SELECT LONG_CALL FROM QQQ WHERE Dte > 400", []),
    (EDGE, "SELECT BULL_CALL_SPREAD FROM SPY ORDER BY rr_ratio DESC", []),
    (EDGE, "SELECT BULL_CALL_SPREAD FROM SPY HAVING net_debit = 0", []),
    (EDGE, "SELECT BULL_CALL_SPREAD FROM SPY ORDER BY rr_ratio ASC LIMIT 12",
     []),
    (EDGE, "SELECT CALENDAR_CALL FROM SPY ORDER BY net_debit ASC, "
           "max_loss DESC", []),
    (EDGE, "SELECT IRON_CONDOR FROM SPY HAVING max_loss > 0 "
           "ORDER BY net_delta ASC LIMIT 7", []),
    (EDGE, "SELECT STRADDLE FROM SPY ORDER BY net_theta DESC", []),
    (EDGE, "SELECT BUTTERFLY_CALL FROM SPY HAVING breakeven_low ~ 100 "
           "ORDER BY net_debit DESC LIMIT 4", ["--epsilon", "0.05"]),
    # WHERE-heavy runs, recorded from the engine that filtered one record
    # at a time, before WHERE became masks over the snapshot's record table
    (TSLA, "SELECT LONG_CALL FROM TSLA WHERE Moneyness = ITM AND Dte ~ 55 "
           "ORDER BY net_debit ASC LIMIT 6", []),
    (TSLA, "SELECT LONG_PUT FROM TSLA WHERE Moneyness = atm "
           "ORDER BY net_theta DESC", ["--atm-band", "0.05"]),
    (TSLA, "SELECT STRADDLE FROM TSLA WHERE Moneyness != OTM AND Dte ~ 60 "
           "ORDER BY net_debit ASC LIMIT 5", []),
    (TSLA, "SELECT LONG_CALL FROM TSLA WHERE Volume > 1000 AND Iv < 0.55 "
           "ORDER BY net_vega DESC LIMIT 8", []),
    (TSLA, "SELECT LONG_PUT FROM TSLA WHERE Delta ~ -0.3 AND Dte <= 45 "
           "ORDER BY net_delta ASC", []),
    (TSLA, "SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 30 "
           "AND L.Moneyness = ITM AND S.Moneyness = OTM AND S.Volume >= 500 "
           "ORDER BY rr_ratio DESC LIMIT 5", []),
    (TSLA, "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 60 AND SP.Delta ~ -0.2 "
           "AND LP.Delta ~ -0.1 AND SC.Delta ~ 0.2 AND LC.Delta ~ 0.1 "
           "AND Iv > 0.3 ORDER BY net_credit DESC LIMIT 5", []),
    (TSLA, "SELECT BEAR_CALL_SPREAD FROM TSLA WHERE Delta < 0.5 "
           "AND S.Delta < 0.35 AND L.Delta < 0.2 AND Dte ~ 30 "
           "ORDER BY net_credit DESC LIMIT 5", []),
    (TSLA, "SELECT BUTTERFLY_CALL FROM TSLA WHERE Dte ~ 30 AND Price > 1 "
           "AND Moneyness != ITM ORDER BY max_profit DESC LIMIT 3", []),
    (QQQ, "SELECT STRANGLE FROM QQQ WHERE P.Moneyness = OTM "
          "AND C.Moneyness = OTM AND Volume >= 200 AND Gamma > 0.001 "
          "ORDER BY net_debit ASC LIMIT 5", []),
    (QQQ, "SELECT BEAR_PUT_SPREAD FROM QQQ WHERE L.Delta ~ -0.5 "
          "AND S.Delta ~ -0.25 AND Dte ~ 30 ORDER BY rr_ratio DESC LIMIT 5",
     []),
    (QQQ, "SELECT CALENDAR_CALL FROM QQQ WHERE Moneyness = ATM AND Price < 30 "
          "AND Vega > 0.1 ORDER BY net_debit ASC", ["--atm-band", "0.02"]),
    (EDGE, "SELECT LONG_PUT FROM SPY WHERE Delta >= -0.3 AND Delta != -0.12 "
           "AND Theta ~ -0.04", []),
    (EDGE, "SELECT BEAR_PUT_SPREAD FROM SPY WHERE L.Moneyness = ITM "
           "AND S.Delta <= -0.26 AND Dte = 30", []),
    (EDGE, "SELECT LONG_CALL FROM SPY WHERE Moneyness = ATM",
     ["--atm-band", "0"]),
    (EDGE, "SELECT STRADDLE FROM SPY WHERE Moneyness != ITM AND Volume > 800",
     ["--atm-band", "0.05"]),
    (EDGE, "SELECT LONG_CALL FROM SPY WHERE Iv > 0.5", []),
]

# (query, strike of the 30-day call that loses a Greek, that Greek)
ENGINE_RUNS = [
    ("SELECT BULL_CALL_SPREAD FROM SPY WHERE Dte ~ 30 "
     "ORDER BY net_vega DESC LIMIT 12", 105.0, "vega"),
    ("SELECT BULL_CALL_SPREAD FROM SPY WHERE Dte ~ 30 HAVING net_vega < 0", 105.0,
     "vega"),
    ("SELECT STRADDLE FROM SPY ORDER BY net_delta ASC, net_theta DESC", 100.0,
     "delta"),
]


def cli_run(chain: str, query: str, flags: list) -> dict:
    code, out, err = run_cli(["run", query, "--chain",
                              os.path.join(DATA_DIR, chain), *flags])
    return {"code": code, "stdout": out, "stderr": err}


def engine_run(query: str, strike: float, greek: str) -> dict:
    """execute() without enrich, on the edge chain with one Greek missing."""
    snapshot = load_snapshot(os.path.join(DATA_DIR, EDGE))
    records = tuple(
        dataclasses.replace(r, **{greek: None})
        if r.strike == strike and r.option_type == "call"
        and r.expiry.isoformat() == "2025-07-02" else r
        for r in snapshot.records)
    snapshot = dataclasses.replace(snapshot, records=records)
    config = RunConfig()
    ast = parse_text(query)
    vq = validate(ast)
    instances, stats = survivors(vq, snapshot, config)
    ranked = order_and_limit(instances, ast.order_by, ast.limit)
    stats.returned = len(ranked)
    result = ResultSet(query=vq, text=pretty_print(ast),
                       underlying=snapshot.underlying,
                       as_of=format_date(snapshot.as_of), strategies=ranked,
                       stats=stats)
    return {"stdout": serialize.dumps(result_to_json(result, config))}


def _load_pins() -> dict:
    with open(PIN_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cli_id(run) -> str:
    return f"{run[0]}: {run[1][:60]}"


@pytest.fixture(scope="module")
def pins():
    os.environ.pop("OQL_CONFIG", None)
    return _load_pins()


@pytest.mark.parametrize("index", range(len(CLI_RUNS)),
                         ids=[_cli_id(r) for r in CLI_RUNS])
def test_cli_run_matches_pin(pins, index):
    chain, query, flags = CLI_RUNS[index]
    want = pins["cli"][index]
    assert want["query"] == query
    got = cli_run(chain, query, flags)
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    assert got["stdout"] == want["stdout"]


@pytest.mark.parametrize("index", range(len(ENGINE_RUNS)))
def test_engine_run_matches_pin(pins, index):
    query, strike, greek = ENGINE_RUNS[index]
    want = pins["engine"][index]
    assert want["query"] == query
    assert engine_run(query, strike, greek)["stdout"] == want["stdout"]


def test_pins_cover_every_family_and_outcome(pins):
    families = {parse_text(q).strategy for _, q, _ in CLI_RUNS}
    assert len(families) == 10
    codes = {p["code"] for p in pins["cli"]}
    assert codes == {0, 1, 2}  # results, a budget error, an empty result
    assert any('"net_debit": 0.0' in p["stdout"] for p in pins["cli"])
    assert any('"net_vega": null' in p["stdout"] for p in pins["engine"])


def record() -> None:
    os.environ.pop("OQL_CONFIG", None)
    doc = {
        "cli": [{"query": q, **cli_run(c, q, f)} for c, q, f in CLI_RUNS],
        "engine": [{"query": q, **engine_run(q, k, g)} for q, k, g in ENGINE_RUNS],
    }
    with open(PIN_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_pins.py --record")
    record()

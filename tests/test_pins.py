"""Byte pins: oql output on the committed chains, recorded once.

tests/data/run_pins.json holds the exit code, stdout and stderr of every
run below. The first 27 CLI runs and the engine runs were recorded from
the row-at-a-time engine that preceded the columnar core; the WHERE-heavy
runs after them from the engine that still filtered one record at a time.
Each run must reproduce them byte for byte, so a change in ranking,
aggregates, stats or formatting shows up here even when every
self-consistency check still passes.

The document pins cover what the other commands print (parse, check,
eval, backtest, the gen-chain and gen-path summaries, the repl's
:config, and a run under a config file). Each is a short session of
commands in a fresh working directory, so relative --out paths echo the
same text wherever the suite runs; every step's output is pinned. They
were recorded before the JSON views became derived from their
dataclasses; the repl session of queries and the --format table runs
were recorded before the table was rendered from columns.

The engine-level pins run execute() on the edge chain with one Greek
removed, on a snapshot marked enriched so enrich leaves it as it is:
enrich backfills missing Greeks, so a None net Greek cannot reach a
query through the CLI.

Recording pins every run added to the lists below and leaves the pins
already recorded as they are (remove a pin first only when the output
contract changes on purpose):

    PYTHONPATH=src python3 tests/test_pins.py --record
"""

import dataclasses
import json
import os
import sys
import tempfile

import pytest

from helpers import run_cli
from oql import serialize
from oql.chain import load_snapshot
from oql.config import RunConfig
from oql.engine import execute, result_to_json
from oql.syntax import parse_text

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
    # --format table runs, recorded before the table was rendered from
    # columns: an unbounded max_profit, a calendar's unavailable cells, an
    # empty result and a condor whose width ties break on tickers
    (TSLA, "SELECT LONG_CALL FROM TSLA WHERE Dte ~ 30 AND Delta ~ 0.5 "
           "ORDER BY net_debit ASC LIMIT 4", ["--format", "table"]),
    (QQQ, "SELECT CALENDAR_CALL FROM QQQ WHERE Moneyness = ATM "
          "ORDER BY net_debit DESC LIMIT 4", ["--format", "table"]),
    (QQQ, "SELECT STRADDLE FROM QQQ WHERE Dte > 400", ["--format", "table"]),
    (TSLA, "SELECT IRON_CONDOR FROM TSLA WHERE Strike > 270 AND Strike < 330 "
           "AND Dte ~ 30 ORDER BY width ASC LIMIT 6", ["--format", "table"]),
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


PARSE_QUERY = ("SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.2 "
               "AND LP.Delta > -0.05 AND Moneyness = OTM "
               "HAVING rr_ratio BETWEEN 0.2 AND 1 AND net_theta > 0 "
               "ORDER BY net_credit DESC, rr_ratio ASC LIMIT 5")
# buyers only, then sellers only: each side's rates are null in one report
BUYER_QUERY = ("SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 30 "
               "HAVING net_debit < 1500 ORDER BY rr_ratio DESC LIMIT 6")
SELLER_QUERY = ("SELECT BEAR_CALL_SPREAD FROM TSLA WHERE Dte ~ 30 "
                "HAVING net_credit > 200 ORDER BY rr_ratio DESC LIMIT 4")
CONFIG_QUERY = ("SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 30 "
                "AND L.Delta ~ 0.5 HAVING net_debit ~ 800 "
                "ORDER BY rr_ratio DESC LIMIT 3")
# keys out of sorted order on purpose: the echo sorts them
CONFIG_FILE = ('{"epsilon": 0.1, '
               '"epsilon_overrides": {"net_debit": 0.3, "Delta": 0.05}}\n')
TSLA_PATH = os.path.join(DATA_DIR, TSLA)
REPL_SESSION = (
    "SELECT LONG_PUT FROM TSLA WHERE Dte ~ 30 ORDER BY net_theta DESC LIMIT 3\n"
    "SELECT BULL_CALL_SPREAD FROM TSLA WHERE Dte ~ 60 HAVING net_debit < 400 "
    "ORDER BY rr_ratio DESC LIMIT 3\n"
    "SELECT STRADDLE FROM TSLA HAVING max_gain > 0\n"
    ":quit\n")

# name -> (files written into the working directory, steps); a step is
# (argv, stdin text or None)
DOC_RUNS = {
    "parse": ({}, [(["parse", PARSE_QUERY], None)]),
    "check": ({}, [(["check", PARSE_QUERY], None)]),
    "check --schemas": ({}, [(["check", "--schemas"], None)]),
    "check --schemas --symmetric-wings": (
        {}, [(["check", "--schemas", "--symmetric-wings"], None)]),
    "eval": ({}, [(["eval", "--cases",
                    os.path.join(DATA_DIR, "cases20.jsonl")], None)]),
    "backtest": ({}, [
        (["run", BUYER_QUERY, "--chain", TSLA_PATH,
          "--out", "buyers.json"], None),
        (["run", SELLER_QUERY, "--chain", TSLA_PATH,
          "--out", "sellers.json"], None),
        (["gen-path", "--out", "spots.csv", "--spot", "300", "--mu", "0.1",
          "--sigma", "0.5", "--days", "30", "--start", "2025-06-02",
          "--seed", "4"], None),
        (["backtest", "--results", "buyers.json", "--spots", "spots.csv",
          "--entry", "2025-06-02", "--exit", "2025-06-25"], None),
        (["backtest", "--results", "sellers.json", "--spots", "spots.csv",
          "--entry", "2025-06-02", "--exit", "2025-06-25"], None),
    ]),
    "gen-chain --rate": ({}, [
        (["gen-chain", "--out", "chain.csv", "--underlying", "abc",
          "--as-of", "2025-06-02", "--spot", "100", "--dtes", "30,60",
          "--strike-range", "80:120:5", "--base-vol", "0.3",
          "--rate", "0.05", "--seed", "3"], None),
    ]),
    "repl :config": ({}, [
        (["repl", "--chain", TSLA_PATH, "--epsilon", "0.2"],
         ":config\n:quit\n"),
    ]),
    "run --config": ({"oql.json": CONFIG_FILE}, [
        (["run", CONFIG_QUERY, "--chain", TSLA_PATH, "--config", "oql.json"],
         None),
    ]),
    # two queries printed as tables, then one that fails validation
    "repl queries": ({}, [
        (["repl", "--chain", TSLA_PATH], REPL_SESSION),
    ]),
}


def doc_run(name: str, workdir: str) -> list:
    """Every step's outcome, run in workdir (which is left as found)."""
    files, steps = DOC_RUNS[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for file_name, text in files.items():
            with open(file_name, "w", encoding="utf-8") as fh:
                fh.write(text)
        outcomes = []
        for argv, stdin_text in steps:
            code, out, err = run_cli(argv, stdin_text)
            outcomes.append({"code": code, "stdout": out, "stderr": err})
        return outcomes
    finally:
        os.chdir(cwd)


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
    object.__setattr__(snapshot, "enriched", True)
    config = RunConfig()
    result = execute(query, snapshot, config)
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


@pytest.mark.parametrize("name", list(DOC_RUNS))
def test_document_matches_pin(pins, name, tmp_path):
    assert doc_run(name, str(tmp_path)) == pins["documents"][name]


def test_pins_cover_every_family_and_outcome(pins):
    families = {parse_text(q).strategy for _, q, _ in CLI_RUNS}
    assert len(families) == 10
    codes = {p["code"] for p in pins["cli"]}
    assert codes == {0, 1, 2}  # results, a budget error, an empty result
    assert any('"net_debit": 0.0' in p["stdout"] for p in pins["cli"])
    assert any('"net_vega": null' in p["stdout"] for p in pins["engine"])


def record() -> None:
    """Pin every run that has no pin yet; the pins already there stay."""
    os.environ.pop("OQL_CONFIG", None)
    doc = (_load_pins() if os.path.exists(PIN_FILE)
           else {"cli": [], "engine": [], "documents": {}})
    for c, q, f in CLI_RUNS[len(doc["cli"]):]:
        doc["cli"].append({"query": q, **cli_run(c, q, f)})
    for q, k, g in ENGINE_RUNS[len(doc["engine"]):]:
        doc["engine"].append({"query": q, **engine_run(q, k, g)})
    for name in DOC_RUNS:
        if name not in doc["documents"]:
            with tempfile.TemporaryDirectory() as workdir:
                doc["documents"][name] = doc_run(name, workdir)
    with open(PIN_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_pins.py --record")
    record()

"""Command-line interface tests.

Each test drives main() in process through a small runner that captures
stdout/stderr, so exit codes, JSON document shapes, diagnostics routing,
and the repl loop are all checked without spawning subprocesses. Two
smoke tests run real processes: one installs the checkout with
setuptools into a temporary prefix and runs the `oql` console script it
writes, the other runs `python -m oql`.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from helpers import run_cli
from oql.backtest import load_spots
from oql.chain import load_snapshot
from oql.cli import EXIT_EMPTY, EXIT_ERROR, EXIT_OK

AS_OF = "2025-06-02"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SPREAD_QUERY = ("SELECT BULL_CALL_SPREAD FROM SPY WHERE Dte ~ 30 "
                "AND Moneyness = OTM HAVING net_debit < 300 LIMIT 5")


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A working directory with a generated chain, results, and spots."""
    os.environ.pop("OQL_CONFIG", None)
    d = tmp_path_factory.mktemp("cli")
    chain = str(d / "chain.csv")
    code, _, err = run_cli([
        "gen-chain", "--out", chain, "--underlying", "spy",
        "--as-of", AS_OF, "--spot", "100", "--dtes", "30,60",
        "--strike-range", "80:120:5", "--base-vol", "0.3", "--seed", "5"])
    assert code == EXIT_OK, err
    results = str(d / "results.json")
    code, _, err = run_cli(["run", SPREAD_QUERY, "--chain", chain,
                            "--out", results])
    assert code == EXIT_OK, err
    spots = str(d / "spots.csv")
    code, _, err = run_cli([
        "gen-path", "--out", spots, "--spot", "100", "--mu", "0.05",
        "--sigma", "0.2", "--days", "40", "--start", AS_OF, "--seed", "9"])
    assert code == EXIT_OK, err
    return d


# ============================================================
# parse / check
# ============================================================


class TestParse:
    def test_json_document(self):
        code, out, err = run_cli(["parse",
                                  "select long_call from spy where dte ~ 30"])
        assert code == EXIT_OK
        assert err == ""
        doc = json.loads(out)
        assert set(doc) == {"query", "ast", "config"}
        assert doc["query"] == "SELECT LONG_CALL FROM SPY WHERE Dte ~ 30"
        assert doc["ast"]["strategy"] == "LONG_CALL"
        assert doc["ast"]["where"] == [
            {"role": None, "field": "Dte", "op": "~", "value": 30.0}]
        assert doc["ast"]["limit"] is None

    def test_between_condition_serializes_bounds(self):
        code, out, _ = run_cli([
            "parse", "SELECT STRADDLE FROM SPY HAVING width BETWEEN 5 AND 10"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ast"]["having"] == [
            {"field": "width", "op": "BETWEEN", "lo": 5.0, "hi": 10.0}]

    def test_table_format_prints_canonical_text(self):
        code, out, _ = run_cli(["parse", "--format", "table",
                                "select straddle from spy limit 3"])
        assert code == EXIT_OK
        assert out == "SELECT STRADDLE FROM SPY LIMIT 3\n"

    def test_query_file(self, tmp_path):
        qf = tmp_path / "q.oql"
        qf.write_text("-- find condors\nSELECT IRON_CONDOR FROM QQQ\n")
        code, out, _ = run_cli(["parse", "--query-file", str(qf)])
        assert code == EXIT_OK
        assert json.loads(out)["query"] == "SELECT IRON_CONDOR FROM QQQ"

    def test_missing_query_is_an_error(self):
        code, out, err = run_cli(["parse"])
        assert code == EXIT_ERROR
        assert out == ""
        assert "no query given" in err

    def test_parse_error_goes_to_stderr(self):
        code, out, err = run_cli(["parse", "SELECT LONG_CALL SPY"])
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error [parse]:")

    def test_lex_error_stage(self):
        code, _, err = run_cli(["parse", "SELECT LONG_CALL FROM SPY WHERE $"])
        assert code == EXIT_ERROR
        assert err.startswith("error [lex]:")

    def test_unknown_flag_maps_to_exit_one(self):
        code, _, _ = run_cli(["parse", "--bogus", "SELECT LONG_CALL FROM SPY"])
        assert code == EXIT_ERROR

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["parse", "--help"])
        assert code == EXIT_OK
        assert "--query-file" in out


class TestCheck:
    def test_valid_query_document(self):
        code, out, _ = run_cli([
            "check",
            "SELECT IRON_CONDOR FROM TSLA WHERE Dte ~ 30 AND SC.Delta < 0.2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["strategy"] == "IRON_CONDOR"
        assert doc["per_role_conditions"] == {
            "SC": 2, "LC": 1, "SP": 1, "LP": 1}

    def test_unknown_strategy_fails_validation(self):
        code, out, err = run_cli(["check", "SELECT JADE_LIZARD FROM SPY"])
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error [validate]:")

    def test_type_mismatch_fails_validation(self):
        code, _, err = run_cli(
            ["check", "SELECT LONG_CALL FROM SPY WHERE Moneyness > ATM"])
        assert code == EXIT_ERROR
        assert "error [validate]:" in err

    def test_schema_listing_json(self):
        code, out, _ = run_cli(["check", "--schemas"])
        assert code == EXIT_OK
        doc = json.loads(out)
        names = [s["name"] for s in doc["schemas"]]
        assert names == [
            "LONG_CALL", "LONG_PUT", "BULL_CALL_SPREAD", "BEAR_CALL_SPREAD",
            "BEAR_PUT_SPREAD", "CALENDAR_CALL", "STRADDLE", "STRANGLE",
            "IRON_CONDOR", "BUTTERFLY_CALL"]

    def test_schema_listing_table(self):
        code, out, _ = run_cli(["check", "--schemas", "--format", "table"])
        assert code == EXIT_OK
        assert "IRON_CONDOR" in out
        assert "BUTTERFLY_CALL" in out


# ============================================================
# gen-chain / gen-path
# ============================================================


class TestGenChain:
    def test_document_and_file(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        snapshot = load_snapshot(chain)
        assert snapshot.underlying == "SPY"  # upper-cased from "spy"
        assert snapshot.spot == 100.0
        # 9 strikes x 2 expiries x call+put
        assert len(snapshot.records) == 36

    def test_stdout_summary(self, tmp_path):
        out_file = str(tmp_path / "c.csv")
        code, out, _ = run_cli([
            "gen-chain", "--out", out_file, "--underlying", "ABC",
            "--as-of", AS_OF, "--spot", "50", "--dtes", "15",
            "--strikes", "45,50,55", "--seed", "3"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"out", "underlying", "as_of", "spot", "rate",
                            "records", "seed", "config"}
        assert doc["underlying"] == "ABC"
        assert doc["records"] == 6
        assert doc["seed"] == 3

    def test_explicit_expiry_dates(self, tmp_path):
        out_file = str(tmp_path / "c.csv")
        code, _, _ = run_cli([
            "gen-chain", "--out", out_file, "--underlying", "ABC",
            "--as-of", AS_OF, "--spot", "50",
            "--expiries", "2025-07-18,2025-08-15", "--strikes", "50"])
        assert code == EXIT_OK
        snapshot = load_snapshot(out_file)
        expiries = sorted({r.expiry.isoformat() for r in snapshot.records})
        assert expiries == ["2025-07-18", "2025-08-15"]

    def test_same_seed_same_bytes(self, tmp_path):
        argv = ["gen-chain", "--underlying", "X", "--as-of", AS_OF,
                "--spot", "80", "--dtes", "20", "--strike-range", "70:90:10",
                "--seed", "4"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(argv + ["--out", a])[0] == EXIT_OK
        assert run_cli(argv + ["--out", b])[0] == EXIT_OK
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_refuses_overwrite_without_force(self, tmp_path):
        out_file = str(tmp_path / "c.csv")
        argv = ["gen-chain", "--out", out_file, "--underlying", "X",
                "--as-of", AS_OF, "--spot", "80", "--dtes", "20",
                "--strikes", "80"]
        assert run_cli(argv)[0] == EXIT_OK
        code, _, err = run_cli(argv)
        assert code == EXIT_ERROR
        assert "pass --force" in err
        assert run_cli(argv + ["--force"])[0] == EXIT_OK

    def test_bad_strike_range(self, tmp_path):
        code, _, err = run_cli([
            "gen-chain", "--out", str(tmp_path / "c.csv"), "--underlying",
            "X", "--as-of", AS_OF, "--spot", "80", "--dtes", "20",
            "--strike-range", "90-100-5"])
        assert code == EXIT_ERROR
        assert "LO:HI:STEP" in err

    def test_strikes_or_range_required(self, tmp_path):
        code, _, err = run_cli([
            "gen-chain", "--out", str(tmp_path / "c.csv"), "--underlying",
            "X", "--as-of", AS_OF, "--spot", "80", "--dtes", "20"])
        assert code == EXIT_ERROR
        assert "--strikes or --strike-range" in err

    def test_strike_range_is_inclusive(self, tmp_path):
        out_file = str(tmp_path / "c.csv")
        code, _, _ = run_cli([
            "gen-chain", "--out", out_file, "--underlying", "X",
            "--as-of", AS_OF, "--spot", "100", "--dtes", "20",
            "--strike-range", "90:110:5"])
        assert code == EXIT_OK
        strikes = sorted({r.strike for r in load_snapshot(out_file).records})
        assert strikes == [90.0, 95.0, 100.0, 105.0, 110.0]


class TestGenPath:
    def test_file_shape_and_loadability(self, cli_dir):
        spots = load_spots(str(cli_dir / "spots.csv"))
        assert len(spots) == 41  # start day plus 40 steps
        assert min(spots).isoformat() == AS_OF
        assert all(v > 0 for v in spots.values())

    def test_stdout_summary(self, tmp_path):
        out_file = str(tmp_path / "p.csv")
        code, out, _ = run_cli([
            "gen-path", "--out", out_file, "--spot", "250", "--days", "10",
            "--start", AS_OF, "--seed", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["points"] == 11
        assert doc["days"] == 10
        assert doc["start"] == AS_OF

    def test_deterministic_by_seed(self, tmp_path):
        argv = ["gen-path", "--spot", "250", "--days", "10", "--start",
                AS_OF, "--seed", "2"]
        a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
        run_cli(argv + ["--out", a])
        run_cli(argv + ["--out", b])
        run_cli(["gen-path", "--spot", "250", "--days", "10", "--start",
                 AS_OF, "--seed", "3", "--out", c])
        assert open(a).read() == open(b).read()
        assert open(a).read() != open(c).read()

    def test_refuses_overwrite_without_force(self, tmp_path):
        out_file = str(tmp_path / "p.csv")
        argv = ["gen-path", "--out", out_file, "--spot", "100", "--days",
                "5", "--start", AS_OF]
        assert run_cli(argv)[0] == EXIT_OK
        assert run_cli(argv)[0] == EXIT_ERROR
        assert run_cli(argv + ["--force"])[0] == EXIT_OK


# ============================================================
# run
# ============================================================


class TestRun:
    def test_success_document(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        code, out, err = run_cli(["run", SPREAD_QUERY, "--chain", chain])
        assert code == EXIT_OK
        assert err == ""
        doc = json.loads(out)
        assert set(doc) == {"query", "strategy_type", "underlying", "as_of",
                            "config", "stats", "strategies"}
        assert doc["strategy_type"] == "BULL_CALL_SPREAD"
        assert 1 <= len(doc["strategies"]) <= 5
        leg = doc["strategies"][0]["legs"][0]
        assert leg["iv"] is not None

    def test_out_file_matches_stdout(self, cli_dir, tmp_path):
        chain = str(cli_dir / "chain.csv")
        out_file = str(tmp_path / "r.json")
        code, out, _ = run_cli(["run", SPREAD_QUERY, "--chain", chain,
                                "--out", out_file])
        assert code == EXIT_OK
        assert open(out_file).read() == out

    def test_empty_result_exits_two(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        code, out, err = run_cli([
            "run", "SELECT LONG_CALL FROM SPY WHERE Dte > 900",
            "--chain", chain])
        assert code == EXIT_EMPTY
        doc = json.loads(out)
        assert doc["strategies"] == []
        assert doc["stats"]["returned"] == 0

    def test_underlying_mismatch_exits_one(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        code, _, err = run_cli(["run", "SELECT LONG_CALL FROM QQQ",
                                "--chain", chain])
        assert code == EXIT_ERROR
        assert "error [validate]:" in err

    @pytest.mark.parametrize("query", [
        "SELECT LONG_CALL FROM SPY WHERE Dte ~ " + "9" * 400,
        "SELECT LONG_CALL FROM SPY LIMIT " + "9" * 5000,
    ], ids=["where-literal", "limit"])
    def test_out_of_range_literal_exits_one(self, cli_dir, query):
        chain = str(cli_dir / "chain.csv")
        code, out, err = run_cli(["run", query, "--chain", chain])
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error [parse]: ") and "out of range" in err
        assert err.count("\n") == 1

    def test_malformed_chain_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a chain\n")
        code, _, err = run_cli(["run", "SELECT LONG_CALL FROM SPY",
                                "--chain", str(bad)])
        assert code == EXIT_ERROR
        assert "error [load]:" in err

    @pytest.mark.parametrize("old,new,message", [
        (",-18\n", ",nan\n", "row 3: theta must be finite, got 'nan'"),
        ("spot=100", "spot=0", "row 1: spot must be > 0, got '0'"),
    ])
    def test_non_finite_or_zero_numbers_exit_one(self, tmp_path, old, new,
                                                 message):
        text = ("# oql-chain underlying=SPY as_of=2025-06-02 spot=100 "
                "rate=0.04\n"
                "ticker,underlying,as_of,expiry,strike,type,price,volume,"
                "iv,delta,gamma,vega,theta\n"
                "O:SPY250702C00100000,SPY,2025-06-02,2025-07-02,100,C,"
                "3.5,120,0.3,0.5,0.02,11,-18\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace(old, new))
        code, out, err = run_cli([
            "run", "SELECT LONG_CALL FROM SPY ORDER BY net_theta DESC LIMIT 3",
            "--chain", str(bad)])
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error [load]: {message}\n"

    def test_table_format(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        code, out, _ = run_cli(["run", SPREAD_QUERY, "--chain", chain,
                                "--format", "table"])
        assert code == EXIT_OK
        assert "BULL_CALL_SPREAD on SPY" in out
        assert "net_debit=" in out

    def test_repeated_runs_identical(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        one = run_cli(["run", SPREAD_QUERY, "--chain", chain])
        two = run_cli(["run", SPREAD_QUERY, "--chain", chain])
        assert one == two

    def test_blueprint_mode_flag(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        code, out, _ = run_cli(["run", SPREAD_QUERY, "--chain", chain,
                                "--output-mode", "blueprint"])
        assert code == EXIT_OK
        strat = json.loads(out)["strategies"][0]
        assert set(strat) == {"strategy_type", "strategy_details"}
        assert "contract_ticker_L" in strat["strategy_details"]


# ============================================================
# Config precedence
# ============================================================


class TestConfigPrecedence:
    def test_flag_overrides_default(self):
        code, out, _ = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                "--epsilon", "0.25"])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["epsilon"] == 0.25

    def test_config_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3, "multiplier": 10}))
        code, out, _ = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                "--config", str(cfg)])
        assert code == EXIT_OK
        doc = json.loads(out)["config"]
        assert doc["epsilon"] == 0.3
        assert doc["multiplier"] == 10

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3}))
        code, out, _ = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                "--config", str(cfg), "--epsilon", "0.05"])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["epsilon"] == 0.05

    def test_env_var_names_the_default_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"atm_band": 0.05}))
        monkeypatch.setenv("OQL_CONFIG", str(cfg))
        code, out, _ = run_cli(["parse", "SELECT LONG_CALL FROM SPY"])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["atm_band"] == 0.05

    def test_explicit_config_beats_env_var(self, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"atm_band": 0.05}))
        cli_cfg = tmp_path / "cli.json"
        cli_cfg.write_text(json.dumps({"atm_band": 0.02}))
        monkeypatch.setenv("OQL_CONFIG", str(env_cfg))
        code, out, _ = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                "--config", str(cli_cfg)])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["atm_band"] == 0.02

    def test_unknown_config_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilonn": 0.3}))
        code, _, err = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert "error [config]:" in err
        assert "epsilonn" in err

    def test_invalid_config_value_is_rejected(self):
        code, _, err = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                "--epsilon", "1.5"])
        assert code == EXIT_ERROR
        assert "error [config]:" in err


# ============================================================
# backtest
# ============================================================


class TestBacktest:
    def test_document_shape(self, cli_dir):
        code, out, err = run_cli([
            "backtest", "--results", str(cli_dir / "results.json"),
            "--spots", str(cli_dir / "spots.csv"),
            "--entry", AS_OF, "--exit", "2025-06-22"])
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert set(doc) == {"entry", "exit", "iv_policy", "config", "cohorts"}
        assert doc["iv_policy"] == "sticky_entry"
        assert set(doc["cohorts"]) == {"all", "top"}
        n_results = len(json.load(open(cli_dir / "results.json"))["strategies"])
        assert doc["cohorts"]["all"]["n"] == n_results
        assert doc["cohorts"]["top"]["n"] == 1
        row = doc["cohorts"]["all"]["strategies"][0]
        assert row["label"] == "BULL_CALL_SPREAD#1"
        assert row["side"] in ("buyer", "seller")

    def test_table_format(self, cli_dir):
        code, out, _ = run_cli([
            "backtest", "--results", str(cli_dir / "results.json"),
            "--spots", str(cli_dir / "spots.csv"),
            "--entry", AS_OF, "--exit", "2025-06-22", "--format", "table"])
        assert code == EXIT_OK
        assert "cohort: all" in out
        assert "cohort: top" in out
        assert "WR" in out

    def test_missing_spot_window_fails(self, cli_dir):
        code, _, err = run_cli([
            "backtest", "--results", str(cli_dir / "results.json"),
            "--spots", str(cli_dir / "spots.csv"),
            "--entry", "2025-05-01", "--exit", "2025-06-22"])
        assert code == EXIT_ERROR
        assert "error [backtest]:" in err

    def test_blueprint_results_rejected(self, cli_dir, tmp_path):
        chain = str(cli_dir / "chain.csv")
        blueprint = str(tmp_path / "bp.json")
        code, _, _ = run_cli(["run", SPREAD_QUERY, "--chain", chain,
                              "--out", blueprint, "--output-mode",
                              "blueprint"])
        assert code == EXIT_OK
        code, _, err = run_cli([
            "backtest", "--results", blueprint,
            "--spots", str(cli_dir / "spots.csv"),
            "--entry", AS_OF, "--exit", "2025-06-22"])
        assert code == EXIT_ERROR
        assert "blueprint" in err


# ============================================================
# eval
# ============================================================


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TestEval:
    def test_bundled_cases_document(self):
        code, out, err = run_cli([
            "eval", "--cases", os.path.join(DATA_DIR, "cases20.jsonl")])
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert doc["n"] == 20
        assert doc["vr"] == 0.85
        assert doc["sm_unconditional"] == 0.75
        assert doc["eff"] == pytest.approx(0.45, abs=1e-12)
        assert len(doc["outcomes"]) == 20
        first = doc["outcomes"][0]
        assert set(first) == {"case_id", "gold_strategy", "k_first_success",
                              "rows_at_success", "selected_strategy"}

    def test_budget_of_one(self):
        code, out, _ = run_cli([
            "eval", "--cases", os.path.join(DATA_DIR, "cases20.jsonl"),
            "--k", "1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["k"] == 1
        assert doc["vr"] == 12 / 20  # only the first-try successes remain
        assert doc["eff"] == 0.0     # k == K scores zero

    def test_table_format(self):
        code, out, _ = run_cli([
            "eval", "--cases", os.path.join(DATA_DIR, "cases20.jsonl"),
            "--format", "table"])
        assert code == EXIT_OK
        assert "VR 0.8500" in out
        assert "c01" in out

    def test_bad_cases_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code, _, err = run_cli(["eval", "--cases", str(bad)])
        assert code == EXIT_ERROR
        assert "error [eval]:" in err


# ============================================================
# repl
# ============================================================


class TestRepl:
    def chain(self, cli_dir):
        return str(cli_dir / "chain.csv")

    def test_session_transcript(self, cli_dir):
        script = "\n".join([
            ":help",
            ":schema STRADDLE",
            "SELECT LONG_CALL FROM SPY WHERE Dte ~ 30 AND Moneyness = ATM",
            ":quit",
        ]) + "\n"
        code, out, err = run_cli(["repl", "--chain", self.chain(cli_dir)],
                                 stdin_text=script)
        assert code == EXIT_OK
        assert "loaded 36 contracts for SPY as of 2025-06-02" in out
        assert ":quit" in out        # help text
        assert "STRADDLE" in out     # schema table
        assert "LONG_CALL on SPY" in out
        assert err == ""

    def test_config_command(self, cli_dir):
        code, out, _ = run_cli(
            ["repl", "--chain", self.chain(cli_dir), "--epsilon", "0.2"],
            stdin_text=":config\n:quit\n")
        assert code == EXIT_OK
        assert '"epsilon": 0.2' in out

    def test_eof_ends_cleanly(self, cli_dir):
        code, out, _ = run_cli(["repl", "--chain", self.chain(cli_dir)],
                               stdin_text="")
        assert code == EXIT_OK
        assert "loaded 36 contracts" in out

    def test_bad_query_keeps_the_loop_alive(self, cli_dir):
        script = "SELECT NOPE FROM SPY\nSELECT LONG_CALL FROM SPY LIMIT 1\n"
        code, out, err = run_cli(["repl", "--chain", self.chain(cli_dir)],
                                 stdin_text=script)
        assert code == EXIT_OK
        assert "error [validate]:" in err
        assert "LONG_CALL on SPY" in out

    def test_unknown_colon_command(self, cli_dir):
        code, _, err = run_cli(["repl", "--chain", self.chain(cli_dir)],
                               stdin_text=":frobnicate\n:quit\n")
        assert code == EXIT_OK
        assert "unknown command :frobnicate" in err

    def test_schema_with_unknown_name(self, cli_dir):
        code, _, err = run_cli(["repl", "--chain", self.chain(cli_dir)],
                               stdin_text=":schema NOPE\n:quit\n")
        assert code == EXIT_OK
        assert "error [validate]:" in err


# ============================================================
# Console script
# ============================================================


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """Install the checkout into a temporary prefix and run its `oql`.

        setuptools, the declared build backend, builds the project from
        pyproject.toml and writes the launcher from [project.scripts]. The
        classic `install` command needs no `wheel` package and no network,
        and every file it writes lands under tmp_path.
        """
        pytest.importorskip("setuptools")
        leftovers = [REPO_ROOT / "src" / "oql.egg-info", REPO_ROOT / "build"]
        existed = [p.exists() for p in leftovers]
        prefix = tmp_path / "prefix"
        lib, scripts = prefix / "lib", prefix / "bin"
        record = tmp_path / "record.txt"
        build = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "egg_info", "--egg-base", str(tmp_path),
             "build", "--build-base", str(tmp_path / "build"),
             "install", "--prefix", str(prefix),
             "--install-lib", str(lib), "--install-scripts", str(scripts),
             "--single-version-externally-managed", "--record", str(record)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
        assert build.returncode == 0, build.stdout + build.stderr
        launcher = shutil.which("oql", path=str(scripts))
        assert launcher is not None
        assert launcher in record.read_text().splitlines()

        env = {**os.environ, "PYTHONPATH": str(lib)}
        proc = subprocess.run(
            [launcher, "parse", "SELECT STRADDLE FROM SPY LIMIT 2"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["query"] == \
            "SELECT STRADDLE FROM SPY LIMIT 2"

        where = subprocess.run(
            [sys.executable, "-c", "import oql; print(oql.__file__)"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert where.returncode == 0, where.stderr
        assert pathlib.Path(where.stdout.strip()).is_relative_to(lib)
        assert [p.exists() for p in leftovers] == existed

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "oql", "check", "--schemas"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "LONG_CALL" in proc.stdout

"""Command-line interface tests.

Each test drives main() in process through a small runner that captures
stdout/stderr, so exit codes, JSON document shapes, diagnostics routing,
and the repl loop are all checked without spawning subprocesses. Two
smoke tests run real processes: one installs the checkout with
setuptools into a temporary prefix and runs the `oql` console script it
writes, the other runs `python -m oql`.
"""

import datetime as dt
import io
import json
import os
import pathlib
import re
import runpy
import shutil
import subprocess
import sys

import pytest

from helpers import run_cli
from oql.backtest import load_spots
from oql.chain import generate_synthetic, load_snapshot, snapshot_to_text
from oql.cli import EXIT_EMPTY, EXIT_ERROR, EXIT_OK, main

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

# underlyings no FROM clause can name: the chain written would fail to
# load, or load under a name no query reaches
_BAD_UNDERLYINGS = {"space": "SP Y", "comma": "S,P", "empty": "",
                    "digit": "SPY1"}


class TestGenChain:
    def test_document_and_file(self, cli_dir):
        chain = str(cli_dir / "chain.csv")
        snapshot = load_snapshot(chain)
        assert snapshot.underlying == "SPY"  # upper-cased from "spy"
        assert snapshot.spot == 100.0
        # 9 strikes x 2 expiries x call+put
        assert len(snapshot.records) == 36

    def test_stdout_summary(self, tmp_path):
        # gen-chain has no table: --format table prints the same document
        for name, extra in (("c.csv", []), ("t.csv", ["--format", "table"])):
            code, out, _ = run_cli([
                "gen-chain", "--out", str(tmp_path / name), "--underlying",
                "ABC", "--as-of", AS_OF, "--spot", "50", "--dtes", "15",
                "--strikes", "45,50,55", "--seed", "3", *extra])
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

    @pytest.mark.parametrize("underlying", _BAD_UNDERLYINGS.values(),
                             ids=_BAD_UNDERLYINGS.keys())
    def test_bad_underlying_writes_no_file(self, tmp_path, underlying):
        out_file = tmp_path / "c.csv"
        code, _, _ = run_cli(_gen_chain(str(out_file), underlying=underlying))
        assert code == EXIT_ERROR
        assert not out_file.exists()

    def test_deep_out_of_the_money_call_prices_at_zero(self, tmp_path):
        # S N(d+) - K e^(-r tau) N(d-) cancels to -1.5e-323 at strike 903
        out_file = tmp_path / "c.csv"
        code, _, err = run_cli([
            "gen-chain", "--underlying", "SPY", "--as-of", AS_OF,
            "--spot", "100", "--dtes", "30", "--strikes", "903",
            "--out", str(out_file)])
        assert code == EXIT_OK, err
        text = out_file.read_text(encoding="utf-8")
        snapshot = load_snapshot(str(out_file))
        assert [r.price for r in snapshot.records
                if r.option_type == "call"] == [0.0]
        assert snapshot_to_text(snapshot, "csv") == text


class TestGenPath:
    def test_file_shape_and_loadability(self, cli_dir):
        spots = load_spots(str(cli_dir / "spots.csv"))
        assert len(spots) == 41  # start day plus 40 steps
        assert min(spots).isoformat() == AS_OF
        assert all(v > 0 for v in spots.values())

    def test_stdout_summary(self, tmp_path):
        # gen-path has no table: --format table prints the same document
        for name, extra in (("p.csv", []), ("t.csv", ["--format", "table"])):
            code, out, _ = run_cli([
                "gen-path", "--out", str(tmp_path / name), "--spot", "250",
                "--days", "10", "--start", AS_OF, "--seed", "2", *extra])
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

_EXPIRING = "O:SPY250602C00100000,SPY,2025-06-02,2025-06-02,100,C,1.5,10,0.3,,,,"
_EXCLUSION_SUMMARY = ("1 record(s) excluded:\n  O:SPY250602C00100000: "
                      "expires on as_of; model values undefined\n")


def _expiring_chain(cli_dir, tmp_path) -> str:
    """The fixture's chain plus one record that expires on as_of."""
    path = tmp_path / "expiring.csv"
    path.write_text((cli_dir / "chain.csv").read_text() + _EXPIRING + "\n")
    return str(path)


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

    def test_excluded_records_are_summarized_on_stderr(self, cli_dir, tmp_path):
        # the record expiring on as_of is excluded at load and named on
        # stderr; the document is the one of the chain without it
        code, out, err = run_cli(["run", SPREAD_QUERY, "--chain",
                                  _expiring_chain(cli_dir, tmp_path)])
        assert code == EXIT_OK
        assert err == _EXCLUSION_SUMMARY
        assert out == run_cli(["run", SPREAD_QUERY, "--chain",
                               str(cli_dir / "chain.csv")])[1]

    def test_out_file_matches_stdout(self, cli_dir, tmp_path):
        chain = str(cli_dir / "chain.csv")
        out_file = str(tmp_path / "r.json")
        code, out, _ = run_cli(["run", SPREAD_QUERY, "--chain", chain,
                                "--out", out_file])
        assert code == EXIT_OK
        assert open(out_file).read() == out

    def test_out_file_and_stdout_are_rendered_once(self, cli_dir, tmp_path,
                                                   monkeypatch):
        import oql.cli
        real, rendered = oql.cli.dumps, []

        def dumps(doc):
            rendered.append(doc)
            return real(doc)
        monkeypatch.setattr(oql.cli, "dumps", dumps)
        out_file = tmp_path / "r.json"
        code, out, _ = run_cli(["run", SPREAD_QUERY, "--chain",
                                str(cli_dir / "chain.csv"), "--out",
                                str(out_file)])
        assert code == EXIT_OK
        assert out_file.read_bytes() == out.encode("utf-8")
        assert len(rendered) == 1

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
    def test_unreadable_config_file_is_a_config_error(self, tmp_path):
        from oql.config import load_config
        from oql.errors import ConfigError
        path = str(tmp_path / "missing.json")
        with pytest.raises(OSError) as opened:
            open(path, encoding="utf-8")
        with pytest.raises(ConfigError) as exc_info:
            load_config(path)
        assert str(exc_info.value) == (
            f"cannot read config file {path}: {opened.value}")

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

    @pytest.mark.parametrize("flag,value", [
        ("--multiplier", "nan"), ("--multiplier", "inf"),
        ("--atm-band", "inf"), ("--atm-band", "nan"),
        ("--epsilon-abs", "nan"), ("--epsilon-abs", "inf"),
    ])
    def test_non_finite_config_value_is_rejected(self, flag, value):
        code, out, err = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                  flag, value])
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error [config]:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,needle", [
        ('{"combinatorial_cap": NaN}', "combinatorial_cap must be finite"),
        ('{"combinatorial_cap": Infinity}', "combinatorial_cap must be finite"),
        ('{"multiplier": Infinity}', "multiplier must be finite"),
        ('{"symmetric_wings": "false"}', "symmetric_wings must be true or false"),
        ('{"rate": "0.04"}', "rate must be a number, got '0.04'"),
        ('{"epsilon": "0.5"}', "epsilon must be a number, got '0.5'"),
        ('{"multiplier": [1]}', "multiplier must be a number, got [1]"),
        ('{"combinatorial_cap": "5"}', "combinatorial_cap must be a number, got '5'"),
        ('{"atm_band": null}', "atm_band must be a number, got None"),
        # integers no float can hold
        ('{"rate": <401 digits>}', "rate must be finite, got an integer past"),
        ('{"multiplier": <401 digits>}', "multiplier must be finite"),
        ('{"epsilon_abs": <310 digits>}', "epsilon_abs must be finite"),
        ('{"atm_band": -<500 digits>}', "atm_band must be finite"),
        ('{"rate": <5000 digits>}', "is not valid JSON: Exceeds the limit"),
    ])
    def test_config_file_value_that_cannot_apply_is_rejected(self, tmp_path,
                                                             text, needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(re.sub(r"<(\d+) digits>",
                              lambda m: "1" + "0" * (int(m[1]) - 1), text))
        code, out, err = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                  "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error [config]:")
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides,needle", [
        ([0.2], "must be a JSON object"),
        ("Dte", "must be a JSON object"),
        ({"Dte": "0.2"}, "'Dte' must be in (0, 1)"),
        ({"Dte": None}, "'Dte' must be in (0, 1)"),
        ({"Dte": True}, "'Dte' must be in (0, 1)"),
        ({"Dte": [0.2]}, "'Dte' must be in (0, 1)"),
        ({"delta": 0.5}, "unknown field 'delta'"),
        ({"Moneyness": 0.5}, "unknown field 'Moneyness'"),
        ({"NET_DEBIT": 0.5}, "unknown field 'NET_DEBIT'"),
    ])
    def test_bad_epsilon_overrides_are_rejected(self, tmp_path, overrides,
                                                needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon_overrides": overrides}))
        code, out, err = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                  "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error [config]:")
        assert needle in err
        assert "Traceback" not in err

    def test_epsilon_overrides_take_leg_and_aggregate_fields(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon_overrides": {
            "Dte": 0.25, "Iv": 0.5, "net_debit": 0.3, "breakeven_high": 1e-3}}))
        code, out, err = run_cli(["parse", "SELECT LONG_CALL FROM SPY",
                                  "--config", str(cfg)])
        assert code == EXIT_OK, err
        assert json.loads(out)["config"]["epsilon_overrides"] == {
            "Dte": 0.25, "Iv": 0.5, "breakeven_high": 1e-3, "net_debit": 0.3}


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

    def test_iv_policy_is_not_a_flag(self, cli_dir):
        # the snapshot policy needs a per-date snapshot map, which only a
        # library caller of run_cohorts can pass
        code, out, err = run_cli([
            "backtest", "--results", str(cli_dir / "results.json"),
            "--spots", str(cli_dir / "spots.csv"),
            "--entry", AS_OF, "--exit", "2025-06-22",
            "--iv-policy", "snapshot"])
        assert code == EXIT_ERROR
        assert out == ""
        assert "unrecognized arguments: --iv-policy snapshot" in err
        assert "Traceback" not in err

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

    def test_excluded_records_are_summarized_on_stderr(self, cli_dir, tmp_path):
        code, out, err = run_cli(
            ["repl", "--chain", _expiring_chain(cli_dir, tmp_path)],
            stdin_text=":quit\n")
        assert code == EXIT_OK
        assert err == _EXCLUSION_SUMMARY
        assert "loaded 36 contracts for SPY" in out

    def test_blank_line_reprompts_and_bare_schema_lists_the_catalog(
            self, cli_dir):
        code, out, err = run_cli(["repl", "--chain", self.chain(cli_dir)],
                                 stdin_text="\n:schema\n:quit\n")
        assert code == EXIT_OK
        assert err == ""
        assert out.count("oql> ") == 3
        catalog = run_cli(["check", "--schemas", "--format", "table"])[1]
        assert "oql> oql> " + catalog + "oql> " in out

    def test_schema_with_unknown_name(self, cli_dir):
        code, _, err = run_cli(["repl", "--chain", self.chain(cli_dir)],
                               stdin_text=":schema NOPE\n:quit\n")
        assert code == EXIT_OK
        assert "error [validate]:" in err


# ============================================================
# Bad input: one diagnostic line, exit 1, nothing on stdout
# ============================================================


def _results(mutate):
    """The fixture's results document, changed in place by mutate."""
    def text(cli_dir):
        doc = json.loads((cli_dir / "results.json").read_text())
        mutate(doc)
        return json.dumps(doc)
    return text


def _first_leg(**changes):
    return _results(lambda doc: doc["strategies"][0]["legs"][0].update(changes))


def _legs(*picks):
    """The first strategy's legs replaced by its legs at `picks`."""
    def pick(doc):
        legs = doc["strategies"][0]["legs"]
        legs[:] = [legs[i] for i in picks]
    return _results(pick)


def _backtest(results="{d}/results.json", spots="{d}/spots.csv",
              entry=AS_OF, exit="2025-06-22"):
    return ["backtest", "--results", results, "--spots", spots,
            "--entry", entry, "--exit", exit]


def _jsonl_chain(**changes):
    """The fixture's chain as JSONL, its first record changed."""
    def text(cli_dir):
        lines = snapshot_to_text(load_snapshot(str(cli_dir / "chain.csv")),
                                 "jsonl").splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), **changes})
        return "\n".join(lines) + "\n"
    return text


def _csv_chain(old, new):
    """The fixture's chain file, its first record's text `old` made `new`."""
    def text(cli_dir):
        lines = (cli_dir / "chain.csv").read_text().splitlines()
        assert old in lines[2]
        lines[2] = lines[2].replace(old, new, 1)
        return "\n".join(lines) + "\n"
    return text


def _run_chain(name):
    return ["run", SPREAD_QUERY, "--chain", "{tmp}/" + name]


def _case(**changes):
    case = {"id": "c1", "intent": "a call", "gold_strategy": "LONG_CALL",
            "chain": "{d}/chain.csv", "attempts": ["SELECT LONG_CALL FROM SPY"]}
    return json.dumps({**case, **changes}) + "\n"


# a JSON integer past Python's 4,300-digit limit for int(text); json.dumps
# refuses to write one, so it is spliced into the text in place of 0
_HUGE_INT = "1" + "0" * 5000

# a JSON array nested past the interpreter's recursion limit
_DEEP = "[" * 200000 + "]" * 200000 + "\n"


def _huge(key: str, text):
    """`text` (a string or a function of the fixture directory) with the
    value 0 of `key` written as _HUGE_INT."""
    def huge(cli_dir):
        content = text(cli_dir) if callable(text) else text
        assert f'"{key}": 0' in content
        return content.replace(f'"{key}": 0', f'"{key}": {_HUGE_INT}', 1)
    return huge


_PARSE = ["parse", "SELECT LONG_CALL FROM SPY", "--config", "{tmp}/cfg.json"]
_EVAL = ["eval", "--cases", "{tmp}/cases.jsonl"]


def _gen_chain(out="{tmp}/c.csv", as_of=AS_OF, expiries=("--dtes", "30"),
               strikes="100", underlying="spy"):
    return ["gen-chain", "--underlying", underlying, "--as-of", as_of,
            "--spot", "100", *expiries, "--strikes", strikes, "--out", out]



def _gen_path(out="{tmp}/p.csv", start=AS_OF):
    return ["gen-path", "--spot", "100", "--days", "5", "--start", start,
            "--out", out]


_MISSING = "No such file or directory"


def _long_dated_chain(cli_dir):
    """What `gen-chain --underlying SPY --as-of 2025-06-02 --spot 100 --dtes
    30,400 --strikes 90,100,110 --seed 1` writes, its header's rate made
    -1000: the 400-day strikes discount by exp(1096), past the float
    range."""
    as_of = dt.date.fromisoformat(AS_OF)
    snapshot = generate_synthetic(
        "SPY", as_of, 100.0, 0.04, [as_of + dt.timedelta(days=d)
                                    for d in (30, 400)], [90.0, 100.0, 110.0],
        seed=1)
    text = snapshot_to_text(snapshot, "csv")
    assert " rate=0.04\n" in text
    return text.replace(" rate=0.04\n", " rate=-1000\n", 1)


def _one_call_chain(spot, expiry, iv):
    """A one-record chain whose Greeks are blank, so a load backfills them."""
    return (f"# oql-chain underlying=SPY as_of={AS_OF} spot={spot} rate=0.04\n"
            "ticker,underlying,as_of,expiry,strike,type,price,volume,iv,"
            "delta,gamma,vega,theta\n"
            f"O:SPY{expiry[2:].replace('-', '')}C00100000,SPY,{AS_OF},{expiry},"
            f"100,C,50,10,{iv},,,,\n")

_TSLA_RUN = ["run", "SELECT LONG_CALL FROM TSLA LIMIT 1", "--chain",
             str(REPO_ROOT / "tests" / "data" / "chain_tsla.csv")]


def _tsla_results(cli_dir):
    """What `run --out` writes for _TSLA_RUN: the document on its stdout."""
    code, out, err = run_cli(_TSLA_RUN)
    assert code == EXIT_OK, err
    return out


def _huge_call_chain(cli_dir):
    """What `gen-chain --underlying SPY --as-of 2025-06-02 --spot 1e308
    --dtes 30 --strikes 0.001` writes: a call priced 1e+308, whose entry
    cash at the default multiplier of 100 is past the float range."""
    as_of = dt.date.fromisoformat(AS_OF)
    return snapshot_to_text(generate_synthetic(
        "SPY", as_of, 1e308, 0.04, [as_of + dt.timedelta(days=30)], [0.001]),
        "csv")

# (id, files written to tmp_path, argv, stage, text in the diagnostic).
# "{d}" is the fixture directory and "{tmp}" the test's own; files map a
# name to text or to a function of the fixture directory. A stage of None
# is an argparse usage error, which prints "oql ...: error: ..." instead.
BAD_INPUT = [
    ("config-multiplier-true", {"cfg.json": '{"multiplier": true}'}, _PARSE,
     "config", "multiplier must be a number, got True"),
    ("config-rate-false", {"cfg.json": '{"rate": false}'}, _PARSE,
     "config", "rate must be a number, got False"),
    ("config-epsilon-true", {"cfg.json": '{"epsilon": true}'}, _PARSE,
     "config", "epsilon must be a number"),
    ("config-epsilon-abs-true", {"cfg.json": '{"epsilon_abs": true}'}, _PARSE,
     "config", "epsilon_abs must be a number"),
    ("config-atm-band-false", {"cfg.json": '{"atm_band": false}'}, _PARSE,
     "config", "atm_band must be a number"),
    ("config-cap-true", {"cfg.json": '{"combinatorial_cap": true}'}, _PARSE,
     "config", "combinatorial_cap must be a number"),
    ("config-cap-fraction", {"cfg.json": '{"combinatorial_cap": 2.5}'},
     _PARSE, "config", "combinatorial_cap must be a whole number, got 2.5"),
    ("config-all-three", {"cfg.json": '{"multiplier": true, "rate": false, '
                                      '"combinatorial_cap": 2.5}'},
     _PARSE, "config", "multiplier must be a number"),
    ("config-nested-past-recursion-limit", {"cfg.json": _DEEP}, _PARSE,
     "config", "cfg.json is not valid JSON"),
    ("chain-lower-case-underlying",
     {"c.csv": f"# oql-chain underlying=spy as_of={AS_OF} spot=100 rate=0.04\n"
               "ticker,underlying,as_of,expiry,strike,type,price,volume,iv,"
               "delta,gamma,vega,theta\n"
               f"O:SPY250702C00100000,spy,{AS_OF},2025-07-02,100,C,5,10,0.3,"
               ",,,\n"},
     ["run", "SELECT LONG_CALL FROM SPY", "--chain", "{tmp}/c.csv"], "load",
     "row 1: underlying must be upper-case ASCII letters, got 'spy'"),
    ("spots-close-text", {"s.csv": "date,close\n2025-06-02,abc\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "s.csv: row 2: bad close 'abc'"),
    ("spots-bad-date", {"s.csv": "date,close\n2025-13-02,100\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "row 2: bad date '2025-13-02'"),
    ("spots-negative-close", {"s.csv": "date,close\n2025-06-02,1\n2025-06-03,-5\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "row 3: close must be > 0"),
    ("spots-zero-close", {"s.csv": "date,close\n2025-06-02,0\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "close must be > 0"),
    ("spots-nan-close", {"s.csv": "date,close\n2025-06-02,nan\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "close must be finite"),
    ("spots-inf-close", {"s.csv": "date,close\n2025-06-02,inf\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "close must be finite"),
    ("spots-empty-close", {"s.csv": "date,close\n2025-06-02,\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "s.csv: row 2: missing close"),
    ("spots-cell-past-csv-field-limit",
     {"s.csv": "date,close\n2025-06-02,100\n2025-06-03," + "1" * 131073 + "\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest",
     "s.csv: row 3: field larger than field limit (131072)"),
    ("spots-bad-header", {"s.csv": "day,close\n2025-06-02,100\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest",
     "s.csv: row 1: spot series must start with 'date,close', got "
     "['day', 'close']"),
    ("spots-empty-series", {"s.csv": "date,close\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest", "s.csv: spot series is empty"),
    ("spots-duplicate-date",
     {"s.csv": "date,close\n2025-06-02,100\n2025-06-02,200\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest",
     "s.csv: row 3: duplicate date 2025-06-02; first seen at row 2"),
    ("spots-header-past-csv-field-limit",
     {"s.csv": "date," + "c" * 131073 + "\n2025-06-02,100\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest",
     "s.csv: row 1: field larger than field limit (131072)"),
    ("results-not-json", {"r.json": "{not json"},
     _backtest(results="{tmp}/r.json"), "backtest", "is not a JSON document"),
    ("results-not-utf8", {"r.json": b"\xff\xfe{}"},
     _backtest(results="{tmp}/r.json"), "backtest", "is not a JSON document"),
    ("results-nested-past-recursion-limit", {"r.json": _DEEP},
     _backtest(results="{tmp}/r.json"), "backtest",
     "r.json is not a JSON document"),
    ("results-not-object", {"r.json": "[1, 2]"},
     _backtest(results="{tmp}/r.json"), "backtest", "a 'strategies' list"),
    ("results-strategies-string", {"r.json": '{"strategies": "x"}'},
     _backtest(results="{tmp}/r.json"), "backtest", "a 'strategies' list"),
    ("results-strategy-not-object", {"r.json": '{"strategies": [1]}'},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1 is not a JSON object"),
    ("results-unknown-strategy",
     {"r.json": _results(lambda doc: doc["strategies"][0].update(
         strategy_type="NOPE"))},
     _backtest(results="{tmp}/r.json"), "backtest", "strategy 1: "),
    ("results-legs-not-list",
     {"r.json": _results(lambda doc: doc["strategies"][0].update(legs="x"))},
     _backtest(results="{tmp}/r.json"), "backtest", "legs must be a list"),
    ("results-leg-not-object",
     {"r.json": _results(lambda doc: doc["strategies"][0].update(legs=[1]))},
     _backtest(results="{tmp}/r.json"), "backtest", "a leg is not a JSON object"),
    ("leg-missing-key",
     {"r.json": _results(lambda doc: doc["strategies"][0]["legs"][0].pop(
         "strike"))},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: missing key 'strike'"),
    ("leg-direction-text", {"r.json": _first_leg(direction="x")},
     _backtest(results="{tmp}/r.json"), "backtest", "bad direction 'x'"),
    ("leg-direction-two", {"r.json": _first_leg(direction=2)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "direction must be 1 or -1, got 2"),
    ("leg-direction-not-the-roles", {"r.json": _first_leg(direction=-1)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: BULL_CALL_SPREAD role 'L' has direction 1 and quantity 1, "
     "got -1 and 1"),
    ("leg-unknown-role", {"r.json": _first_leg(role="ZZ")},
     _backtest(results="{tmp}/r.json"), "backtest",
     "BULL_CALL_SPREAD has no role 'ZZ'"),
    ("leg-strike-nan-text", {"r.json": _first_leg(strike="nan")},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strike must be finite, got 'nan'"),
    ("leg-bad-expiry", {"r.json": _first_leg(expiry="2025-13-02")},
     _backtest(results="{tmp}/r.json"), "backtest", "bad expiry '2025-13-02'"),
    ("leg-fractional-quantity", {"r.json": _first_leg(quantity=1.5)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "quantity must be a whole number >= 1, got 1.5"),
    ("leg-quantity-true", {"r.json": _first_leg(quantity=True)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: bad quantity True"),
    ("leg-direction-true", {"r.json": _first_leg(direction=True)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: bad direction True"),
    ("leg-strike-past-float-range", {"r.json": _first_leg(strike=10 ** 400)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: strike must be finite, got an integer past the float range"),
    ("leg-iv-true", {"r.json": _first_leg(iv=True)},
     _backtest(results="{tmp}/r.json"), "backtest", "strategy 1: bad iv True"),
    ("leg-iv-negative", {"r.json": _first_leg(iv=-0.2)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: iv must be >= 0, got -0.2"),
    ("leg-strike-negative", {"r.json": _first_leg(strike=-5)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: strike must be > 0, got -5"),
    ("leg-strike-zero", {"r.json": _first_leg(strike=0.0)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: strike must be > 0, got 0.0"),
    ("leg-price-negative", {"r.json": _first_leg(price=-5)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: price must be >= 0, got -5"),
    ("legs-a-role-twice", {"r.json": _legs(0, 0)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: BULL_CALL_SPREAD legs must be L, S in that order, got L, L"),
    ("legs-a-role-missing", {"r.json": _legs(0)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: BULL_CALL_SPREAD legs must be L, S in that order, got L"),
    ("legs-a-role-extra", {"r.json": _legs(0, 0, 1)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: BULL_CALL_SPREAD legs must be L, S in that order, "
     "got L, L, S"),
    ("legs-out-of-role-order", {"r.json": _legs(1, 0)},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: BULL_CALL_SPREAD legs must be L, S in that order, got S, L"),
    ("legs-none", {"r.json": _legs()},
     _backtest(results="{tmp}/r.json"), "backtest",
     "strategy 1: BULL_CALL_SPREAD legs must be L, S in that order, got none"),
    ("eval-line-not-object", {"cases.jsonl": "[1]\n"}, _EVAL,
     "eval", "cases.jsonl:1: a case must be a JSON object"),
    ("eval-attempts-string",
     {"cases.jsonl": _case(attempts="SELECT LONG_CALL FROM SPY")}, _EVAL,
     "eval", "cases.jsonl:1: attempts must be a list of strings"),
    ("eval-attempts-numbers", {"cases.jsonl": _case(attempts=[1, 2])}, _EVAL,
     "eval", "cases.jsonl:1: attempts must be a list of strings"),
    ("eval-sa-grade-past-int-digits",
     {"cases.jsonl": _huge("sa_grade", _case(sa_grade=0))}, _EVAL,
     "eval", "cases.jsonl:1: bad JSON: Exceeds the limit (4300 digits)"),
    ("eval-id-null", {"cases.jsonl": _case(id=None)}, _EVAL,
     "eval", "cases.jsonl:1: bad id None"),
    ("eval-intent-number", {"cases.jsonl": _case(intent=5)}, _EVAL,
     "eval", "cases.jsonl:1: bad intent 5"),
    ("eval-gold-strategy-list",
     {"cases.jsonl": _case(gold_strategy=["LONG_CALL"])}, _EVAL,
     "eval", "cases.jsonl:1: bad gold_strategy ['LONG_CALL']"),
    ("eval-gold-strategy-unknown-solved",
     {"cases.jsonl": _case(gold_strategy="iron butterfly")}, _EVAL, "eval",
     "label 'iron butterfly' maps to no catalog family"),
    ("eval-gold-strategy-unknown-unsolved",
     {"cases.jsonl": _case() + _case(
         id="c2", gold_strategy="iron butterfly",
         attempts=["SELECT LONG_CALL FROM SPY WHERE Dte > 900"])},
     _EVAL, "eval",
     "label 'iron butterfly' maps to no catalog family"),
    ("eval-chain-list", {"cases.jsonl": _case(chain=["c.csv"])}, _EVAL,
     "eval", "cases.jsonl:1: bad chain ['c.csv']"),
    ("eval-chain-nul", {"cases.jsonl": _case(chain="a\0b.csv")}, _EVAL,
     "eval", "cases.jsonl:1: bad chain 'a\\x00b.csv'"),
    ("eval-nested-past-recursion-limit", {"cases.jsonl": _DEEP}, _EVAL,
     "eval", "cases.jsonl:1: bad JSON"),
    ("eval-attempts-empty", {"cases.jsonl": _case(attempts=[])}, _EVAL,
     "eval", "cases.jsonl:1: case 'c1' has no attempts"),
    ("eval-chain-load-names-the-file",
     {"bad.csv": _csv_chain(",80,C,", ",abc,C,"),
      "cases.jsonl": _case(chain="bad.csv")}, _EVAL,
     "load", "bad.csv: row 3: bad strike 'abc'"),
    ("eval-chain-not-utf8-names-the-file",
     {"bin.csv": b"\xff\xfe\x00", "cases.jsonl": _case(chain="bin.csv")},
     _EVAL, "io", "/bin.csv: 'utf-8' codec can't decode byte 0xff"),
    ("eval-k-negative", {"cases.jsonl": _case()}, _EVAL + ["--k", "-1"],
     "eval", "k must be >= 1, got -1"),
    ("eval-k-zero", {"cases.jsonl": _case()}, _EVAL + ["--k", "0"],
     "eval", "k must be >= 1, got 0"),
    ("io-run-chain", {}, ["run", SPREAD_QUERY, "--chain", "{tmp}/no.csv"],
     "io", _MISSING),
    ("io-run-query-file", {},
     ["run", "--query-file", "{tmp}/no.oql", "--chain", "{d}/chain.csv"],
     "io", _MISSING),
    ("io-run-out", {}, ["run", SPREAD_QUERY, "--chain", "{d}/chain.csv",
                        "--out", "{tmp}/no/r.json"], "io", _MISSING),
    ("io-eval-cases", {}, _EVAL, "io", _MISSING),
    ("io-eval-case-chain", {"cases.jsonl": _case(chain="{tmp}/no.csv")},
     _EVAL, "io", _MISSING),
    ("io-backtest-results", {}, _backtest(results="{tmp}/no.json"),
     "io", _MISSING),
    ("io-backtest-spots", {}, _backtest(spots="{tmp}/no.csv"), "io", _MISSING),
    ("io-gen-chain-out", {}, _gen_chain(out="{tmp}/no/c.csv"), "io", _MISSING),
    ("io-gen-path-out", {}, _gen_path(out="{tmp}/no/p.csv"), "io", _MISSING),
    ("date-entry", {}, _backtest(entry="2025-13-02"), None,
     "argument --entry: bad date '2025-13-02'; want YYYY-MM-DD"),
    ("date-exit", {}, _backtest(exit="June 22"), None,
     "argument --exit: bad date 'June 22'"),
    ("date-as-of", {}, _gen_chain(as_of="2025-06-31"), None,
     "argument --as-of: bad date '2025-06-31'"),
    ("date-start", {}, _gen_path(start="x"), None,
     "argument --start: bad date 'x'"),
    ("date-expiries", {},
     _gen_chain(expiries=("--expiries", "2025-07-01,2025-13-01")), None,
     "argument --expiries: bad date list '2025-07-01,2025-13-01'"),
    ("list-dtes", {}, _gen_chain(expiries=("--dtes", "30,x")), None,
     "argument --dtes: bad days-to-expiry list '30,x'"),
    ("list-strikes", {}, _gen_chain(strikes="95,abc"), None,
     "argument --strikes: bad strike list '95,abc'"),
    ("chain-jsonl-volume-true", {"c.jsonl": _jsonl_chain(volume=True)},
     _run_chain("c.jsonl"), "load", "row 2: bad volume True"),
    ("chain-jsonl-volume-fraction", {"c.jsonl": _jsonl_chain(volume=12.9)},
     _run_chain("c.jsonl"), "load", "row 2: bad volume 12.9"),
    ("chain-jsonl-strike-true", {"c.jsonl": _jsonl_chain(strike=True)},
     _run_chain("c.jsonl"), "load", "row 2: bad strike True"),
    # the kind pre-pass runs before the record's own checks
    ("chain-jsonl-strike-true-before-type-code",
     {"c.jsonl": _jsonl_chain(strike=True, type="X")},
     _run_chain("c.jsonl"), "load", "row 2: bad strike True"),
    ("chain-jsonl-strike-empty", {"c.jsonl": _jsonl_chain(strike="")},
     _run_chain("c.jsonl"), "load", "row 2: missing strike"),
    ("chain-jsonl-volume-past-int-digits",
     {"c.jsonl": _huge("volume", _jsonl_chain(volume=0))},
     _run_chain("c.jsonl"), "load",
     "row 2: bad JSON: Exceeds the limit (4300 digits)"),
    ("chain-jsonl-nested-past-recursion-limit", {"c.jsonl": _DEEP},
     _run_chain("c.jsonl"), "load", "row 1: bad JSON"),
    ("chain-jsonl-strike-past-float-range",
     {"c.jsonl": _jsonl_chain(strike=10 ** 400)},
     _run_chain("c.jsonl"), "load",
     "row 2: strike must be finite, got an integer past the float range"),
    ("chain-jsonl-ticker-number", {"c.jsonl": _jsonl_chain(ticker=12345)},
     _run_chain("c.jsonl"), "load", "row 2: bad ticker 12345"),
    ("chain-csv-expiry-basic-form",
     {"c.csv": _csv_chain(",2025-07-02,", ",20250702,")}, _run_chain("c.csv"),
     "load", "row 3: bad expiry '20250702'; want YYYY-MM-DD"),
    ("chain-csv-as-of-week-form",
     {"c.csv": _csv_chain(",2025-06-02,", ",2025-W23-1,")},
     _run_chain("c.csv"), "load",
     "row 3: bad as_of '2025-W23-1'; want YYYY-MM-DD"),
    ("spots-date-basic-form", {"s.csv": "date,close\n20250602,100\n"},
     _backtest(spots="{tmp}/s.csv"), "backtest",
     "row 2: bad date '20250602'; want YYYY-MM-DD"),
    ("leg-expiry-basic-form", {"r.json": _first_leg(expiry="20250702")},
     _backtest(results="{tmp}/r.json"), "backtest",
     "bad expiry '20250702'; want YYYY-MM-DD"),
    ("date-entry-basic-form", {}, _backtest(entry="20250602"), None,
     "argument --entry: bad date '20250602'; want YYYY-MM-DD"),
    ("date-as-of-week-form", {}, _gen_chain(as_of="2025-W23-1"), None,
     "argument --as-of: bad date '2025-W23-1'; want YYYY-MM-DD"),
    ("io-chain-not-utf8", {"bin.csv": b"\xff\xfe\x00"},
     ["run", SPREAD_QUERY, "--chain", "{tmp}/bin.csv"], "io",
     "can't decode byte 0xff"),
    ("gen-chain-unknown-extension", {}, _gen_chain(out="{tmp}/g.txt"), "load",
     "name a .csv, .jsonl or .ndjson file"),
    ("gen-chain-strikes-nan", {}, _gen_chain(strikes="nan"), None,
     "argument --strikes: bad strike list 'nan'; want finite numbers > 0"),
    ("gen-chain-strikes-zero", {}, _gen_chain(strikes="0"), None,
     "argument --strikes: bad strike list '0'"),
    ("gen-chain-no-expiries", {}, _gen_chain(expiries=()), "execute",
     "pass --expiries or --dtes"),
    ("gen-chain-dtes-negative", {}, _gen_chain(expiries=("--dtes", "30,-5")),
     None, "argument --dtes: bad days-to-expiry list '30,-5'; want whole "
     "numbers >= 1"),
    ("gen-chain-dtes-zero", {}, _gen_chain(expiries=("--dtes", "0")), None,
     "argument --dtes: bad days-to-expiry list '0'"),
    ("gen-chain-spot-negative", {}, _gen_chain() + ["--spot", "-1"], None,
     "argument --spot: bad value '-1'; want a finite number > 0"),
    ("gen-chain-base-vol-nan", {}, _gen_chain() + ["--base-vol", "nan"], None,
     "argument --base-vol: bad value 'nan'; want a finite number"),
    ("gen-chain-skew-inf", {}, _gen_chain() + ["--skew", "inf"], None,
     "argument --skew: bad value 'inf'"),
    ("gen-chain-term-nan", {}, _gen_chain() + ["--term", "nan"], None,
     "argument --term: bad value 'nan'"),
    ("gen-chain-seed-negative", {}, _gen_chain() + ["--seed", "-1"], None,
     "argument --seed: bad value '-1'; want a whole number >= 0"),
    ("gen-chain-expiry-before-as-of", {},
     _gen_chain(expiries=("--expiries", "2025-05-01")), "execute",
     "expiry 2025-05-01 must be after as_of 2025-06-02"),
    ("gen-chain-dtes-past-year-9999", {},
     _gen_chain(expiries=("--dtes", "10000000")), "execute",
     "cannot generate the chain: date value out of range"),
    ("gen-chain-strike-overflow", {}, _gen_chain(strikes="1e308"), "execute",
     "cannot generate the chain: "),
    *((f"gen-chain-underlying-{name}", {}, _gen_chain(underlying=underlying),
       "execute", "cannot generate the chain: underlying must be upper-case "
       f"ASCII letters, got {underlying!r}")
      for name, underlying in _BAD_UNDERLYINGS.items()),
    ("gen-chain-strikes-share-a-ticker", {},
     _gen_chain(strikes="100,100.0001"), "execute",
     "cannot generate the chain: two grid contracts give one ticker "
     "O:SPY250702C00100000"),
    ("gen-chain-strike-past-ticker-digits", {}, _gen_chain(strikes="1e6"),
     "execute", "cannot generate the chain: strike 1000000.0 does not fit "
     "the ticker's 8 digits"),
    ("gen-chain-strike-range-inf", {},
     _gen_chain(strikes=",") + ["--strike-range", "1:inf:1"], "execute",
     "bad strike range '1:inf:1'"),
    ("gen-chain-strike-range-lost-step", {},
     _gen_chain(strikes=",") + ["--strike-range", "1e300:1e300:1"], "execute",
     "bad strike range '1e300:1e300:1'"),
    ("gen-chain-strike-range-past-ticker-digits", {},
     _gen_chain(strikes=",") + ["--strike-range", "1:1e12:1"], "execute",
     "bad strike range '1:1e12:1': a strike of 100000 or more does not fit "
     "the ticker's 8 digits"),
    ("gen-chain-strike-range-step-under-ticker-resolution", {},
     _gen_chain(strikes=",") + ["--strike-range", "1:2:0.0005"], "execute",
     "bad strike range '1:2:0.0005': strikes under 0.001 apart share a "
     "ticker"),
    ("gen-chain-strike-range-too-many-strikes", {},
     _gen_chain(strikes=",") + ["--strike-range", "0.001:99999.999:0.001"],
     "execute", "bad strike range '0.001:99999.999:0.001': more than 100000 "
     "strikes"),
    ("gen-chain-strike-range-zero", {},
     _gen_chain(strikes=",") + ["--strike-range", "0:10:5"], "execute",
     "strike must be > 0, got 0.0"),
    ("price-discount-overflow", {"c.csv": _long_dated_chain},
     ["run", "SELECT LONG_CALL FROM SPY LIMIT 1", "--chain", "{tmp}/c.csv"],
     "price", "strike * exp(-rate * tau) leaves the float range "
     "at spot=100.0, strike=90.0, rate=-1000.0, vol=0.0, "
     "tau=1.095890410958904"),
    ("price-backtest-discount-overflow", {},
     _backtest() + ["--rate", "-10000"], "price",
     "strike * exp(-rate * tau) leaves the float range "
     "at spot=100.0, strike=105.0, rate=-10000.0, vol=0.3, "
     "tau=0.0821917808219178"),
    ("price-vol-sqrt-tau-overflow",
     {"c.csv": _one_call_chain("100", "2029-07-11", "1e308")},
     ["run", "SELECT LONG_CALL FROM SPY LIMIT 1", "--chain", "{tmp}/c.csv"],
     "price", "vol * sqrt(tau) leaves the float range "
     "at spot=100.0, strike=100.0, rate=0.04, vol=1e+308, "
     "tau=4.109589041095891"),
    ("price-spot-over-strike-underflow",
     {"c.csv": _one_call_chain("5e-324", "2025-07-02", "0.2")},
     ["run", "SELECT LONG_CALL FROM SPY LIMIT 1", "--chain", "{tmp}/c.csv"],
     "price", "spot / strike leaves the float range "
     "at spot=5e-324, strike=100.0, rate=0.04, vol=0.2, "
     "tau=0.0821917808219178"),
    ("gen-chain-discount-overflow", {},
     _gen_chain(expiries=("--dtes", "400")) + ["--rate", "-1000"], "price",
     "strike * exp(-rate * tau) leaves the float range "
     "at spot=100.0, strike=100.0, rate=-1000.0, vol=0.2, "
     "tau=1.095890410958904"),
    ("run-entry-cash-past-float-range", {}, _TSLA_RUN + ["--multiplier", "1e307"],
     "execute", "entry cash of LONG_CALL leaves the float range"),
    ("run-entry-cash-past-float-range-at-huge-price",
     {"c.csv": _huge_call_chain},
     ["run", "SELECT LONG_CALL FROM SPY", "--chain", "{tmp}/c.csv"],
     "execute", "entry cash of LONG_CALL leaves the float range"),
    ("backtest-entry-cash-past-float-range", {"r.json": _tsla_results},
     _backtest(results="{tmp}/r.json") + ["--multiplier", "1e307"],
     "backtest", "LONG_CALL#1: entry cash leaves the float range"),
    ("gen-path-spot-nan", {}, _gen_path() + ["--spot", "nan"], None,
     "argument --spot: bad value 'nan'; want a finite number > 0"),
    ("gen-path-mu-inf", {}, _gen_path() + ["--mu", "inf"], None,
     "argument --mu: bad value 'inf'; want a finite number"),
    ("gen-path-sigma-nan", {}, _gen_path() + ["--sigma", "nan"], None,
     "argument --sigma: bad value 'nan'; want a finite number >= 0"),
    ("gen-path-sigma-negative", {}, _gen_path() + ["--sigma", "-1"], None,
     "argument --sigma: bad value '-1'"),
    ("gen-path-days-negative", {}, _gen_path() + ["--days", "-1"], None,
     "argument --days: bad value '-1'; want a whole number >= 0"),
    ("gen-path-seed-negative", {}, _gen_path() + ["--seed", "-1"], None,
     "argument --seed: bad value '-1'"),
    ("gen-path-days-past-year-9999", {}, _gen_path() + ["--days", "3000000"],
     "execute", "--days 3000000 runs past 9999-12-31"),
    ("gen-path-overflow", {}, _gen_path() + ["--mu", "1e300"], "execute",
     "cannot generate the path: the path leaves the positive float range"),
]


@pytest.mark.parametrize("files,argv,stage,needle",
                         [case[1:] for case in BAD_INPUT],
                         ids=[case[0] for case in BAD_INPUT])
def test_bad_input_is_one_diagnostic(cli_dir, tmp_path, files, argv, stage,
                                     needle):
    def fill(text):
        return text.replace("{d}", str(cli_dir)).replace("{tmp}", str(tmp_path))

    for name, content in files.items():
        content = content(cli_dir) if callable(content) else content
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(fill(content))
    code, out, err = run_cli([fill(a) for a in argv])
    assert code == EXIT_ERROR
    assert out == ""
    assert "Traceback" not in err
    if stage is None:
        assert "error: " in err
    else:
        assert err.startswith(f"error [{stage}]: ")
        assert err.count("\n") == 1
    assert needle in err


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
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "LONG_CALL" in proc.stdout

    def test_module_entry_point_in_process(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["oql", "check", "--schemas"])
        with pytest.raises(SystemExit) as exc_info:
            runpy.run_module("oql", run_name="__main__")
        assert exc_info.value.code == EXIT_OK
        assert "LONG_CALL" in capsys.readouterr().out

    def test_a_closed_stdout_exits_1_with_no_diagnostic(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["check", "--schemas"]) == EXIT_ERROR
        assert err.getvalue() == ""

"""Generated input through cli.main: every run ends in a defined outcome.

Hypothesis draws query text, config files, spot CSVs and case files, most
well formed or one defect away from it and some arbitrary, and runs `oql`
in process over a small generated chain. Chain files have their own byte
gate in test_load_corpus.py. Every run must exit 0, 1 or 2 with no
traceback. On exit 1 stdout is empty and stderr is one `error [stage]:
...` diagnostic or an argparse usage error. On exit 0 or 2 stderr is
empty and stdout is strict JSON, without NaN or Infinity.

The example counts are fixed and the draws derandomized, so every run
checks the same inputs.
"""

import itertools
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_cli
from oql.catalog import build_catalog
from oql.cli import EXIT_EMPTY, EXIT_ERROR, EXIT_OK
from oql.fields import AGGREGATE_FIELDS, LEG_FIELDS, SOFT_MATCH_FIELDS

AS_OF = "2025-06-02"
STAGES = ("lex", "parse", "validate", "assemble", "execute", "price", "load",
          "backtest", "eval", "config", "io")
_DIAGNOSTIC = re.compile(r"error \[(%s)\]: " % "|".join(STAGES))
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A chain of 12 contracts, a results file and 21 days of spots."""
    os.environ.pop("OQL_CONFIG", None)
    d = tmp_path_factory.mktemp("fuzz")
    steps = (
        ["gen-chain", "--out", str(d / "chain.csv"), "--underlying", "SPY",
         "--as-of", AS_OF, "--spot", "100", "--dtes", "30,60",
         "--strikes", "95,100,105", "--base-vol", "0.3", "--seed", "3"],
        ["run", "SELECT BULL_CALL_SPREAD FROM SPY", "--chain",
         str(d / "chain.csv"), "--out", str(d / "results.json")],
        ["gen-path", "--out", str(d / "spots.csv"), "--spot", "100",
         "--days", "20", "--start", AS_OF, "--seed", "4"],
    )
    for argv in steps:
        code, _, err = run_cli(argv)
        assert code == EXIT_OK, err
    return d


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def check_outcome(code: int, out: str, err: str) -> None:
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_EMPTY)
    assert "Traceback" not in err
    if code == EXIT_ERROR:
        assert out == ""
        assert _DIAGNOSTIC.match(err) or (
            err.startswith("usage: ") and ": error: " in err), err
    else:
        assert err == ""
        strict_json(out)


_SERIAL = itertools.count()


def write(directory, name: str, text: str) -> str:
    """text in a new file of directory; a new file, because truncating one
    that was just written can wait on the disk."""
    path = os.path.join(directory, f"{next(_SERIAL)}-{name}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def mostly(valid, odd, times: int = 5):
    """valid `times` times in times + 1, else odd."""
    return st.integers(0, times).flatmap(lambda n: odd if n == 0 else valid)


# text without lone surrogates, which no UTF-8 file can hold
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_ODD_NUMBERS = ("0", "-0", "-1", "1e400", "-1e400", "1e-400", "nan", "inf",
                "9" * 40, "1_0", "١٠", "", " ", "abc")
_ODD_JSON = st.sampled_from((
    None, True, False, 0, -1, 2, 10 ** 30, float("nan"), float("inf"),
    -float("inf"), -1e308, 1e-320, 2.5, "", "0.2", "abc", (), ("x",),
    (1,), {"Delta": "x"}))

# ============================================================
# Query text
# ============================================================

_CATALOG = build_catalog()
_STRATEGIES = sorted(_CATALOG)
_ROLES = sorted({role for schema in _CATALOG.values()
                 for role in schema.role_ids})
_OPS = ("=", "!=", "<", "<=", ">", ">=", "~")
_NUMBERS = ("0", "1", "5", "30", "100", "0.3", "-0.5", "250")
_VALUES = mostly(st.sampled_from(_NUMBERS), st.sampled_from(_ODD_NUMBERS))
# HAVING fields are numeric, so the Moneyness values must be refused there
_HAVING_VALUES = mostly(_VALUES, st.sampled_from(("ATM", "OTM", "ITM")))


@st.composite
def _leg_condition(draw):
    field = draw(st.sampled_from(sorted(LEG_FIELDS.values())))
    if field == "Moneyness":
        value = draw(st.sampled_from(("ITM", "ATM", "OTM", "CALL", "5")))
    else:
        value = draw(_VALUES)
    if draw(st.booleans()):
        field = draw(st.sampled_from(_ROLES)) + "." + field
    return f"{field} {draw(st.sampled_from(_OPS))} {value}"


@st.composite
def _having_condition(draw):
    field = draw(st.sampled_from(AGGREGATE_FIELDS))
    if draw(st.integers(0, 3)) == 0:
        return (f"{field} BETWEEN {draw(_HAVING_VALUES)} "
                f"AND {draw(_HAVING_VALUES)}")
    return f"{field} {draw(st.sampled_from(_OPS))} {draw(_HAVING_VALUES)}"


@st.composite
def _query(draw):
    """A query of the grammar's shape, now and then with a token changed."""
    parts = ["SELECT", draw(st.sampled_from(_STRATEGIES)), "FROM",
             draw(mostly(st.sampled_from(("SPY", "spy")), st.just("QQQ")))]
    where = draw(st.lists(_leg_condition(), max_size=3))
    if where:
        parts += ["WHERE", " AND ".join(where)]
    having = draw(st.lists(_having_condition(), max_size=2))
    if having:
        parts += ["HAVING", " AND ".join(having)]
    order = draw(st.lists(st.sampled_from(AGGREGATE_FIELDS), max_size=2))
    if order:
        parts += ["ORDER BY", ", ".join(
            f"{name} {draw(st.sampled_from(('', 'ASC', 'DESC')))}"
            for name in order)]
    if draw(st.booleans()):
        parts += ["LIMIT", draw(mostly(st.sampled_from(("1", "3")),
                                       st.sampled_from(("0", "-2", "1.5",
                                                        "9" * 30))))]
    tokens = " ".join(parts).split(" ")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(st.sampled_from(
            ("", "(", ")", ",", ".", "--", "\n", "'", "SELECT", "AND", "BY",
             "WHERE") + _OPS + _ODD_NUMBERS))
    return " ".join(tokens)


_QUERIES = mostly(_query(), _TEXT)


@_FUZZ
@given(query=_QUERIES)
def test_query_text(fuzz_dir, query):
    query_file = write(fuzz_dir, "q.oql", query)
    for command in ("check", "run"):
        argv = [command, "--query-file", query_file]
        if command == "run":
            argv += ["--chain", str(fuzz_dir / "chain.csv")]
        check_outcome(*run_cli(argv))


# ============================================================
# Config files
# ============================================================

_EPSILON = st.floats(0.01, 0.9)
_CONFIG_VALUES = {
    "epsilon": _EPSILON,
    "epsilon_abs": st.floats(0.001, 5.0),
    "atm_band": st.floats(0.0, 0.2),
    "multiplier": st.floats(1.0, 1000.0),
    "rate": st.floats(-0.1, 0.2),
    "combinatorial_cap": st.integers(1, 10 ** 7),
    "output_mode": st.sampled_from(("standard", "blueprint")),
    # "table" is left out: it prints text, not JSON
    "output_format": st.just("json"),
    "symmetric_wings": st.booleans(),
    "epsilon_overrides": st.dictionaries(
        mostly(st.sampled_from(SOFT_MATCH_FIELDS),
               st.sampled_from(("delta", "Moneyness", ""))),
        mostly(_EPSILON, _ODD_JSON), max_size=2),
}


def one_defect(draw, valid: dict, odd_values) -> dict:
    """valid, or two times in three valid with one value made odd, one key
    dropped or one key added."""
    kind = draw(st.integers(0, 5))
    if kind > 3 or not valid:
        return valid
    key = draw(st.sampled_from(sorted(valid)))
    if kind < 2:
        valid[key] = draw(odd_values)
    elif kind == 2:
        del valid[key]
    else:
        valid["bogus"] = 1
    return valid


@st.composite
def _config(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.sampled_from(("", "[]", "null", "{")), _TEXT))
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)),
                         unique=True))
    return json.dumps(one_defect(
        draw, {key: draw(_CONFIG_VALUES[key]) for key in keys}, _ODD_JSON))


@_FUZZ
@given(config=_config())
def test_config_file(fuzz_dir, config):
    cfg = write(fuzz_dir, "cfg.json", config)
    check_outcome(*run_cli([
        "run", "SELECT BULL_CALL_SPREAD FROM SPY WHERE Dte ~ 30 "
        "ORDER BY net_debit LIMIT 2", "--chain", str(fuzz_dir / "chain.csv"),
        "--config", cfg]))


# ============================================================
# Spot CSVs
# ============================================================

_DATES = ("2025-06-05", "2025-13-02", "20250602", "", "x", "2025-06-31",
          " 2025-06-03", "9999-12-31")
_SPOT_ROWS = [f"2025-06-{day:02d},{100 + day % 7}" for day in range(2, 23)]


@st.composite
def _spots(draw):
    """A 21-day spot series with a cell, row or line now and then changed."""
    lines = [draw(mostly(st.just("date,close"),
                         st.sampled_from(("close,date", "date,close,x", "",
                                          '"date","close"'))))] + _SPOT_ROWS
    for _ in range(draw(st.integers(0, 3)) // 2):
        at = draw(st.integers(1, len(lines) - 1))
        cells = lines[at].split(",")
        kind = draw(st.integers(0, 4))
        if kind == 0:
            cells[0] = draw(st.sampled_from(_DATES))
        elif kind == 1:
            cells[-1] = draw(st.sampled_from(_ODD_NUMBERS + ('"', "1,2")))
        elif kind == 2:
            cells.append(draw(st.sampled_from(("", "1"))))
        elif kind == 3:
            cells = [draw(_TEXT).replace("\n", " ")]
        else:
            lines.insert(at, lines[at])
        lines[at] = ",".join(cells)
    return "\n".join(lines) + "\n"


@_FUZZ
@given(spots=_spots(), exit_date=st.sampled_from(("2025-06-09", "2025-06-22",
                                                  "2025-07-30", AS_OF)))
def test_spot_csv(fuzz_dir, spots, exit_date):
    path = write(fuzz_dir, "spots.csv", spots)
    check_outcome(*run_cli([
        "backtest", "--results", str(fuzz_dir / "results.json"),
        "--spots", path, "--entry", AS_OF, "--exit", exit_date]))


# ============================================================
# Case files
# ============================================================

_CASE_VALUES = {
    "id": st.sampled_from(("c1", "c2", "")),
    "intent": st.just("a spread"),
    "gold_strategy": st.sampled_from(("BULL_CALL_SPREAD", "long call",
                                      "Iron Condor", "NOPE")),
    "chain": mostly(st.just("chain.csv"),
                    st.sampled_from(("missing.csv", "", ".", "results.json",
                                     "chain.txt", "spots.csv"))),
    "attempts": st.lists(mostly(_QUERIES, _ODD_JSON, 11), min_size=1,
                         max_size=3),
    "sa_grade": st.floats(0.0, 1.0),
}


@st.composite
def _case_line(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(("", "[1]", "null", "{", "\"x\"")))
    case = {key: draw(values) for key, values in _CASE_VALUES.items()
            if key != "sa_grade" or draw(st.booleans())}
    if draw(st.booleans()):
        case = one_defect(draw, case, _ODD_JSON)
    return json.dumps(case)


@_FUZZ
@given(lines=st.lists(_case_line(), min_size=1, max_size=2),
       k=st.sampled_from(((), ("--k", "1"), ("--k", "0"), ("--k", "5"))))
def test_case_file(fuzz_dir, lines, k):
    path = write(fuzz_dir, "cases.jsonl", "\n".join(lines) + "\n")
    check_outcome(*run_cli(["eval", "--cases", path, *k]))

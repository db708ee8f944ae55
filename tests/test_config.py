"""Every setting's declaration holds for the flag and the config file alike.

Each RunConfig field declares its flag, help text and rules (config._setting).
These tests read those declarations, so a setting added later is covered
with no edit here: every field has a flag or is named file only, and every
numeric setting with a flag refuses a value just outside a rule with the
same one line, whether the value comes through its flag or through
--config.
"""

import json
import math
from dataclasses import fields

import pytest

from helpers import run_cli
from oql.cli import EXIT_ERROR
from oql.config import RunConfig
from oql.errors import ConfigError

FILE_ONLY = {"epsilon_overrides"}

# the boundary values a rule can sit on, and a step past each; an int
# setting takes the whole ones, which its flag reads
PROBES = {
    float: (-1.0, -5e-324, 0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0,
            2.0, math.inf, -math.inf, math.nan),
    int: (-1, 0, 1, 2),
}

NUMERIC = [f for f in fields(RunConfig)
           if f.type in PROBES and f.metadata["flag"] is not None]


def _refusal(f, value) -> str | None:
    """The line RunConfig's first failing rule for `value` gives, or None
    when every rule holds."""
    for wording, test in f.metadata["rules"]:
        if not test(value):
            return f"error [config]: {f.name} must be {wording}, got {value}\n"
    return None


def test_every_field_has_a_flag_or_is_file_only():
    flags = [f.metadata["flag"] for f in fields(RunConfig)]
    assert {f.name for f in fields(RunConfig)
            if f.metadata["flag"] is None} == FILE_ONLY
    named = [flag for flag in flags if flag is not None]
    assert len(set(named)) == len(named)
    assert all(flag.startswith("--") and f.metadata["help"]
               for flag, f in zip(flags, fields(RunConfig)) if flag)


def test_every_numeric_setting_is_probed():
    assert [f.name for f in NUMERIC] == [
        "epsilon", "epsilon_abs", "atm_band", "multiplier", "rate",
        "combinatorial_cap"]


@pytest.mark.parametrize("f", NUMERIC, ids=[f.name for f in NUMERIC])
def test_a_value_outside_a_rule_is_refused_alike_by_flag_and_file(
        f, tmp_path):
    assert _refusal(f, f.default) is None
    refused = 0
    for value in PROBES[f.type]:
        want = _refusal(f, value)
        if want is None:
            RunConfig(**{f.name: value})
            continue
        with pytest.raises(ConfigError):
            RunConfig(**{f.name: value})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({f.name: value}))
        query = "SELECT LONG_CALL FROM SPY"
        by_flag = run_cli(["parse", query, f"{f.metadata['flag']}={value!r}"])
        by_file = run_cli(["parse", query, "--config", str(cfg)])
        assert by_flag == by_file == (EXIT_ERROR, "", want), value
        refused += 1
    assert refused, f"no probe lies outside the rules of {f.name}"

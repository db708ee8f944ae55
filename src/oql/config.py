"""Run configuration: defaults, JSON config files, and CLI overrides.

Each setting is declared once, on its RunConfig field (see _setting): its
default, CLI flag, help text, allowed values and rules. The CLI flags and
the checks are built from those fields. Flags win over the config file,
which wins over defaults; the file is JSON keyed by field name, and the
OQL_CONFIG environment variable names it when --config is not given.
The effective config is echoed into every JSON report.
"""

import json
import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .fields import SOFT_MATCH_FIELDS

ENV_CONFIG_VAR = "OQL_CONFIG"

OUTPUT_MODES = ("standard", "blueprint")
OUTPUT_FORMATS = ("json", "table")


def _setting(default, flag: str | None, help: str, *rules, choices=None):
    """A RunConfig field that declares its CLI flag (None: file only), its
    help text, its allowed values and its rules, each a (wording, test)
    pair refused as `<field> must be <wording>, got <value>`."""
    if choices:
        rules = ((f"one of {choices}", choices.__contains__),)
    metadata = {"flag": flag, "help": help, "choices": choices, "rules": rules}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    epsilon: float = _setting(0.15, "--epsilon", "relative half-width of the ~ band",
                              ("in (0, 1)", lambda v: 0.0 < v < 1.0))
    epsilon_abs: float = _setting(0.01, "--epsilon-abs", "absolute ~ band at target 0",
                                  ("finite and > 0", lambda v: 0.0 < v < math.inf))
    atm_band: float = _setting(0.01, "--atm-band", "|K-S|/S threshold for ATM",
                               ("finite and >= 0", lambda v: 0.0 <= v < math.inf))
    multiplier: float = _setting(100.0, "--multiplier", "contract multiplier",
                                 ("finite and >= 1", lambda v: 1.0 <= v < math.inf))
    rate: float = _setting(0.04, "--rate", "annualized risk-free rate",
                           ("finite", math.isfinite))
    combinatorial_cap: int = _setting(10_000_000, "--cap", "max raw candidate product",
                                      ("finite and >= 1", lambda v: 1 <= v < math.inf),
                                      ("a whole number", lambda v: v % 1 == 0))
    output_mode: str = _setting("standard", "--output-mode",
                                "results serialization shape", choices=OUTPUT_MODES)
    output_format: str = _setting("json", "--format", "stdout rendering",
                                  choices=OUTPUT_FORMATS)
    symmetric_wings: bool = _setting(False, "--symmetric-wings",
                                     "require equidistant butterfly wings",
                                     ("true or false", lambda v: isinstance(v, bool)))
    epsilon_overrides: dict = _setting({}, None, "field name -> epsilon",
                                       ("a JSON object", lambda v: isinstance(v, dict)))

    def __post_init__(self):
        # JSON numbers only; true or false would pass their rules as 1 or 0
        for name, kind in _NUMBERS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            # read as floats, so an integer past the float range cannot apply
            if kind is float:
                try:
                    float(value)
                except OverflowError:
                    raise ConfigError(f"{name} must be finite, got an "
                                      "integer past the float range") from None
        for name, wording, test in _RULES:
            value = getattr(self, name)
            if not test(value):
                raise ConfigError(f"{name} must be {wording}, got {value!r}")
        for key, value in self.epsilon_overrides.items():
            if key not in SOFT_MATCH_FIELDS:
                raise ConfigError(f"epsilon override for unknown field {key!r}; "
                                  f"one of {', '.join(SOFT_MATCH_FIELDS)}")
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0.0 < value < 1.0):
                raise ConfigError(
                    f"epsilon override for {key!r} must be in (0, 1), got {value!r}")

    def epsilon_for(self, field_name: str) -> float:
        return float(self.epsilon_overrides.get(field_name, self.epsilon))

    def to_json_dict(self) -> dict:
        """Every field in declaration order; overrides sorted by key."""
        return {**vars(self),
                "epsilon_overrides": dict(sorted(self.epsilon_overrides.items()))}


# computed once: each RunConfig checks its numbers, then every rule
_NUMBERS = tuple((f.name, f.type) for f in fields(RunConfig)
                 if f.type in (int, float))
_RULES = tuple((f.name, wording, test) for f in fields(RunConfig)
               for wording, test in f.metadata["rules"])
_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Resolve the effective config: defaults, then file, then overrides.

    path=None falls back to the OQL_CONFIG environment variable; if neither
    names a file, defaults apply. Unknown keys are a ConfigError.
    """
    settings: dict = {}
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR) or None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        # JSONDecodeError, an int too long, or nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        settings.update(loaded)
    if overrides:
        settings.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(settings) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return RunConfig(**settings)

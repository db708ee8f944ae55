"""Run configuration: defaults, JSON config files, and CLI overrides.

Precedence is flags > config file > defaults. The config file is JSON with
the same key names as RunConfig fields; the OQL_CONFIG environment variable
names a default config file used when --config is not given. The effective
config is echoed into every JSON report.
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

# read as floats, so an integer past the float range cannot apply
_FLOAT_FIELDS = ("epsilon", "epsilon_abs", "atm_band", "multiplier", "rate")
# JSON numbers only; true or false would pass their range checks as 1 or 0
_NUMERIC_FIELDS = _FLOAT_FIELDS + ("combinatorial_cap",)


@dataclass(frozen=True)
class RunConfig:
    epsilon: float = 0.15            # relative half-width of the ~ band
    epsilon_abs: float = 0.01        # absolute band when the ~ target is 0
    atm_band: float = 0.01           # |K-S|/S threshold for ATM
    multiplier: float = 100.0        # contract multiplier (shares per contract)
    rate: float = 0.04               # annualized risk-free rate
    combinatorial_cap: int = 10_000_000  # max raw candidate product
    output_mode: str = "standard"
    output_format: str = "json"
    symmetric_wings: bool = False    # butterfly wings must be equidistant
    epsilon_overrides: dict = field(default_factory=dict)  # field name -> epsilon

    def __post_init__(self):
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if name in _FLOAT_FIELDS:
                try:
                    float(value)
                except OverflowError:
                    raise ConfigError(f"{name} must be finite, got an "
                                      "integer past the float range") from None
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (0.0 < self.epsilon_abs < math.inf):
            raise ConfigError(
                f"epsilon_abs must be finite and > 0, got {self.epsilon_abs}")
        if not (0.0 <= self.atm_band < math.inf):
            raise ConfigError(
                f"atm_band must be finite and >= 0, got {self.atm_band}")
        if not (1.0 <= self.multiplier < math.inf):
            raise ConfigError(
                f"multiplier must be finite and >= 1, got {self.multiplier}")
        if not math.isfinite(self.rate):
            raise ConfigError(f"rate must be finite, got {self.rate}")
        if not (1 <= self.combinatorial_cap < math.inf):
            raise ConfigError(f"combinatorial_cap must be finite and >= 1, "
                              f"got {self.combinatorial_cap}")
        if self.combinatorial_cap % 1 != 0:
            raise ConfigError("combinatorial_cap must be a whole number, got "
                              f"{self.combinatorial_cap}")
        if self.output_mode not in OUTPUT_MODES:
            raise ConfigError(f"output_mode must be one of {OUTPUT_MODES}, "
                              f"got {self.output_mode!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output_format must be one of {OUTPUT_FORMATS}, "
                              f"got {self.output_format!r}")
        if not isinstance(self.symmetric_wings, bool):
            raise ConfigError("symmetric_wings must be true or false, got "
                              f"{self.symmetric_wings!r}")
        if not isinstance(self.epsilon_overrides, dict):
            raise ConfigError("epsilon_overrides must be a JSON object, got "
                              f"{self.epsilon_overrides!r}")
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
        except ValueError as exc:  # JSONDecodeError, or an int too long
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

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

ENV_CONFIG_VAR = "OQL_CONFIG"

OUTPUT_MODES = ("standard", "blueprint")
OUTPUT_FORMATS = ("json", "table")


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
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.epsilon_abs <= 0.0:
            raise ConfigError(f"epsilon_abs must be > 0, got {self.epsilon_abs}")
        if self.atm_band < 0.0:
            raise ConfigError(f"atm_band must be >= 0, got {self.atm_band}")
        if self.multiplier < 1.0:
            raise ConfigError(f"multiplier must be >= 1, got {self.multiplier}")
        if not math.isfinite(self.rate):
            raise ConfigError(f"rate must be finite, got {self.rate}")
        if self.combinatorial_cap < 1:
            raise ConfigError(
                f"combinatorial_cap must be >= 1, got {self.combinatorial_cap}")
        if self.output_mode not in OUTPUT_MODES:
            raise ConfigError(f"output_mode must be one of {OUTPUT_MODES}, "
                              f"got {self.output_mode!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output_format must be one of {OUTPUT_FORMATS}, "
                              f"got {self.output_format!r}")
        for key, value in self.epsilon_overrides.items():
            if not (0.0 < float(value) < 1.0):
                raise ConfigError(
                    f"epsilon override for {key!r} must be in (0, 1), got {value}")

    def epsilon_for(self, field_name: str) -> float:
        return float(self.epsilon_overrides.get(field_name, self.epsilon))

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "epsilon_abs": self.epsilon_abs,
            "atm_band": self.atm_band,
            "multiplier": self.multiplier,
            "rate": self.rate,
            "combinatorial_cap": self.combinatorial_cap,
            "output_mode": self.output_mode,
            "output_format": self.output_format,
            "symmetric_wings": self.symmetric_wings,
            "epsilon_overrides": dict(sorted(self.epsilon_overrides.items())),
        }


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        settings.update(loaded)
    if overrides:
        settings.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(settings) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        return RunConfig(**settings)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc

"""OQL: a query language for multi-leg option strategy search.

Compile SELECT/FROM/WHERE/HAVING queries over option-chain snapshots into
ranked strategy instances, backtest them over spot paths, and score query
transcripts with retrieval-style metrics.

The chain, pricing, engine and eval-kit names load on first use (PEP
562), so importing the package, or a module that needs none of them such
as oql.syntax, loads no numpy, and oql.backtest does not load the engine.
"""

import importlib
import types

from .catalog import (
    RoleSpec,
    StrategySchema,
    StructuralRule,
    ValidatedQuery,
    catalog,
    lookup,
    validate,
)
from .config import RunConfig, load_config
from .errors import OqlError
from .syntax import QueryAst, parse_text, pretty_print

__version__ = "0.1.0"

# name -> the submodule that defines it, imported by __getattr__
_LAZY = {
    "ChainSnapshot": "chain",
    "ContractRecord": "chain",
    "generate_path": "chain",
    "generate_synthetic": "chain",
    "load_snapshot": "chain",
    "save_snapshot": "chain",
    "GreeksVector": "pricing",
    "MarketParams": "pricing",
    "bsm_price": "pricing",
    "greeks": "pricing",
    "implied_vol": "pricing",
    "ResultSet": "engine",
    "execute": "engine",
    "result_to_json": "engine",
    "CaseOutcome": "evalkit",
    "EvalCase": "evalkit",
    "evaluate": "evalkit",
    "load_cases": "evalkit",
}

# the names imported above (not the submodules they bind) and the lazy ones
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)] + list(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

"""OQL: a query language for multi-leg option strategy search.

Compile SELECT/FROM/WHERE/HAVING queries over option-chain snapshots into
ranked strategy instances, backtest them over spot paths, and score query
transcripts with retrieval-style metrics.

The engine and the eval kit load on first use of one of their names
(PEP 562), so importing a module that needs neither, such as
oql.backtest, does not load them.
"""

import importlib

from .catalog import (
    RoleSpec,
    StrategySchema,
    StructuralRule,
    ValidatedQuery,
    catalog,
    lookup,
    validate,
)
from .chain import (
    ChainSnapshot,
    ContractRecord,
    generate_path,
    generate_synthetic,
    load_snapshot,
    save_snapshot,
)
from .config import RunConfig, load_config
from .errors import OqlError
from .pricing import (
    GreeksVector,
    MarketParams,
    bsm_price,
    d_plus_minus,
    greeks,
    implied_vol,
)
from .syntax import QueryAst, parse, parse_text, pretty_print, tokenize

__version__ = "0.1.0"

# name -> the submodule that defines it, imported by __getattr__
_LAZY = {
    "ResultSet": "engine",
    "execute": "engine",
    "result_to_json": "engine",
    "CaseOutcome": "evalkit",
    "EvalCase": "evalkit",
    "evaluate": "evalkit",
    "load_cases": "evalkit",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "CaseOutcome",
    "ChainSnapshot",
    "ContractRecord",
    "EvalCase",
    "GreeksVector",
    "MarketParams",
    "OqlError",
    "QueryAst",
    "ResultSet",
    "RoleSpec",
    "RunConfig",
    "StrategySchema",
    "StructuralRule",
    "ValidatedQuery",
    "bsm_price",
    "catalog",
    "d_plus_minus",
    "evaluate",
    "execute",
    "generate_path",
    "generate_synthetic",
    "greeks",
    "implied_vol",
    "load_cases",
    "load_config",
    "load_snapshot",
    "lookup",
    "parse",
    "parse_text",
    "pretty_print",
    "result_to_json",
    "save_snapshot",
    "tokenize",
    "validate",
]

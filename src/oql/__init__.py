"""OQL: a query language for multi-leg option strategy search.

Compile SELECT/FROM/WHERE/HAVING queries over option-chain snapshots into
ranked strategy instances, backtest them over spot paths, and score query
transcripts with retrieval-style metrics.
"""

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
from .engine import ResultSet, StrategyInstance, execute, result_to_json
from .errors import OqlError
from .evalkit import CaseOutcome, EvalCase, evaluate, load_cases
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
    "StrategyInstance",
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

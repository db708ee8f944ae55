"""Exception types shared across the package.

Every error carries a ``stage`` label naming the pipeline phase that raised
it (lex, parse, validate, assemble, execute, price, load, backtest, eval,
config), so callers and the CLI can report where a query died without
matching on concrete types. The CLI reports a file it cannot open, read or
write under the stage io.
"""


class OqlError(Exception):
    """Base class for every error raised by this package."""

    stage = "execute"


# ============================================================
# Syntax
# ============================================================


class LexError(OqlError):
    """Input character outside the token alphabet."""

    stage = "lex"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(OqlError):
    """Token sequence does not match the grammar."""

    stage = "parse"

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        detail = f"{message} (line {line}, column {column})"
        if expected:
            detail += "; expected " + " | ".join(expected)
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


# ============================================================
# Catalog / semantic validation
# ============================================================


class SchemaError(OqlError):
    """A query does not fit any strategy schema."""

    stage = "validate"


class UnknownStrategy(SchemaError):
    """SELECT names a strategy absent from the catalog."""


class UnknownRole(SchemaError):
    """A leg condition references a role the schema does not define."""


class UnknownField(SchemaError):
    """A condition or sort key references a field outside the vocabulary."""


class TypeMismatch(SchemaError):
    """Operator or value is incompatible with the field's type."""


# ============================================================
# Pricing
# ============================================================


class PricingError(OqlError):
    stage = "price"


class DomainError(PricingError):
    """Inputs outside the domain of a pricing formula (e.g. tau=0 Greeks)."""


class NoSolution(PricingError):
    """Observed price violates no-arbitrage bounds; no implied vol exists."""


class NonConvergence(PricingError):
    """Root finder failed to meet the residual tolerance inside the bracket."""


# ============================================================
# Chain data
# ============================================================


class ChainError(OqlError):
    stage = "load"

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class FormatError(ChainError):
    """File not in the canonical chain format."""


class InvariantViolation(ChainError):
    """A record breaks a chain invariant (bad strike, dup contract, ...)."""


# ============================================================
# Engine
# ============================================================


class EngineError(OqlError):
    stage = "execute"


class UnderlyingMismatch(EngineError):
    """FROM clause names a different underlying than the snapshot."""

    stage = "validate"


class CombinatorialBudgetExceeded(EngineError):
    """Raw candidate product exceeds the configured cap."""

    stage = "assemble"


# ============================================================
# Backtest
# ============================================================


class BacktestError(OqlError):
    stage = "backtest"


class MissingSpot(BacktestError):
    """Spot series lacks a date inside the marking window."""


# ============================================================
# Evaluation kit
# ============================================================


class EvalError(OqlError):
    stage = "eval"


class EmptyInput(EvalError):
    """A metric was asked for zero cases."""


class UnknownGoldLabel(EvalError):
    """Gold strategy label cannot be mapped to a catalog family."""


class NoSolvedCases(EvalError):
    """A solved-only metric was asked when no case was solved."""


# ============================================================
# Config
# ============================================================


class ConfigError(OqlError):
    stage = "config"

"""Exception types shared across the package.

Every error carries a ``stage`` label naming the pipeline phase that raised
it (lex, parse, validate, assemble, execute, price, load, backtest, eval,
config), so callers and the CLI can report where a query died without
matching on concrete types. The CLI reports a file it cannot open, read or
write under the stage io.

One class per stage: an error is an instance of its stage's class, and the
message says what went wrong. A narrower class exists only where code in
this package catches it to take another path: ``NoSolution``, the one
pricing refusal that ``chain.enrich`` answers by excluding the record.
"""


class OqlError(Exception):
    """Base class for every error raised by this package."""

    stage = "execute"


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


class SchemaError(OqlError):
    """A query does not fit its strategy schema, the field vocabulary or
    the snapshot's underlying."""

    stage = "validate"


class CombinatorialBudgetExceeded(OqlError):
    """Raw candidate product exceeds the configured cap."""

    stage = "assemble"


class EngineError(OqlError):
    """A query's figures cannot be computed."""

    stage = "execute"


class PricingError(OqlError):
    """Inputs outside the domain of a pricing formula."""

    stage = "price"


class NoSolution(PricingError):
    """No implied vol reprices the observed price: it breaks the
    no-arbitrage bounds, or the root finder cannot meet the tolerance."""


class ChainError(OqlError):
    """A chain file is not in the canonical format, or a record breaks a
    chain invariant."""

    stage = "load"

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class BacktestError(OqlError):
    stage = "backtest"


class EvalError(OqlError):
    stage = "eval"


class ConfigError(OqlError):
    stage = "config"

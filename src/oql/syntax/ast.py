"""AST node types for OQL queries.

Nodes are frozen dataclasses in canonical form: uppercase strategy,
underlying, roles, and symbolic values; catalog casing for leg fields;
lowercase aggregate fields. Structural equality between two canonical ASTs
is the round-trip contract of the pretty-printer.
"""

from dataclasses import dataclass

COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=", "~")


@dataclass(frozen=True)
class LegCondition:
    """`[Role.]Field Op Value` — a per-contract predicate.

    role None means the condition is broadcast to every role of the schema.
    value is a float or a symbolic constant (ATM/OTM/ITM).
    """

    role: str | None
    field: str
    op: str
    value: float | str

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class StratCondition:
    """HAVING predicate: `Field Op Value` or `Field BETWEEN lo AND hi`."""

    field: str
    op: str  # a comparison op, or "BETWEEN"
    value: float | str | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.op == "BETWEEN":
            if self.lo is None or self.hi is None:
                raise ValueError("BETWEEN requires lo and hi bounds")
            if self.lo > self.hi:
                raise ValueError(f"BETWEEN bounds out of order: {self.lo} > {self.hi}")
        else:
            if self.op not in COMPARISON_OPS:
                raise ValueError(f"unknown operator {self.op!r}")
            if self.value is None:
                raise ValueError("comparison requires a value")


@dataclass(frozen=True)
class OrderItem:
    field: str
    direction: str = "ASC"

    def __post_init__(self):
        if self.direction not in ("ASC", "DESC"):
            raise ValueError(f"unknown sort direction {self.direction!r}")


@dataclass(frozen=True)
class QueryAst:
    strategy: str
    underlying: str
    where: tuple[LegCondition, ...] = ()
    having: tuple[StratCondition, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "where", tuple(self.where))
        object.__setattr__(self, "having", tuple(self.having))
        object.__setattr__(self, "order_by", tuple(self.order_by))
        if self.limit is not None and self.limit <= 0:
            raise ValueError(f"LIMIT must be positive, got {self.limit}")

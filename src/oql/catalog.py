"""Strategy role schemas and semantic validation of parsed queries.

A schema fixes, per role: option type, direction (+1 long / -1 short), and
quantity; plus structural rules over role tuples (strike ordering, strike or
expiry equality, expiry ordering, optional symmetric wings). Validation maps
a QueryAst onto a schema, broadcasts bare leg conditions to every role, and
type-checks every condition against the field vocabulary.
"""

import operator
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

from .errors import TypeMismatch, UnknownField, UnknownRole, UnknownStrategy
from .fields import (
    CATEGORICAL_LEG_FIELDS,
    MONEYNESS_VALUES,
    is_aggregate_field,
    is_leg_field,
)
from .syntax.ast import LegCondition, QueryAst, StratCondition

# kind -> (column, comparison): holds between adjacent listed roles, or for
# symmetric wings once over the (low wing, body, high wing) strikes
RULES = {
    "strike_order": ("strike", operator.lt),  # strict ascending strikes
    "strike_equal": ("strike", operator.eq),  # equal strikes
    "expiry_equal": ("expiry", operator.eq),  # equal expiries
    "expiry_order": ("expiry", operator.lt),  # strict ascending expiries
    "symmetric_wings": ("strike", lambda lo, body, hi: body - lo == hi - body),
}


@dataclass(frozen=True)
class RoleSpec:
    """One leg slot of a strategy."""

    id: str
    option_type: str  # "call" | "put"
    direction: int    # +1 long, -1 short
    quantity: int = 1

    def __post_init__(self):
        if self.option_type not in ("call", "put"):
            raise ValueError(f"bad option_type {self.option_type!r}")
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")


@dataclass(frozen=True)
class StructuralRule:
    """A constraint over the contracts bound to the listed roles."""

    kind: str
    roles: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in RULES:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if len(self.roles) < 2:
            raise ValueError("a structural rule needs at least two roles")
        if len(set(self.roles)) != len(self.roles):
            raise ValueError(f"a structural rule names a role twice: {self.roles}")


@dataclass(frozen=True)
class StrategySchema:
    name: str
    roles: tuple[RoleSpec, ...]
    rules: tuple[StructuralRule, ...]

    def __post_init__(self):
        ids = [r.id for r in self.roles]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate role ids in {self.name}")
        for rule in self.rules:
            for rid in rule.roles:
                if rid not in ids:
                    raise ValueError(f"rule references unknown role {rid!r}")

    @cached_property
    def role_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.roles)

    def role(self, role_id: str) -> RoleSpec:
        for r in self.roles:
            if r.id == role_id:
                return r
        raise KeyError(role_id)


def _schema(name, roles, rules):
    return StrategySchema(
        name=name,
        roles=tuple(RoleSpec(*r) for r in roles),
        rules=tuple(StructuralRule(kind, tuple(ids)) for kind, ids in rules),
    )


@lru_cache(maxsize=4)
def build_catalog(symmetric_wings: bool = False) -> dict[str, StrategySchema]:
    """All known schemas keyed by name, in canonical order.

    symmetric_wings adds the equidistant-wing rule to BUTTERFLY_CALL; by
    default arbitrary ascending strikes are allowed.
    """
    butterfly_rules = [
        ("strike_order", ["L1", "S", "L2"]),
        ("expiry_equal", ["L1", "S", "L2"]),
    ]
    if symmetric_wings:
        butterfly_rules.append(("symmetric_wings", ["L1", "S", "L2"]))
    schemas = [
        _schema("LONG_CALL", [("L", "call", 1, 1)], []),
        _schema("LONG_PUT", [("L", "put", 1, 1)], []),
        _schema("BULL_CALL_SPREAD",
                [("L", "call", 1, 1), ("S", "call", -1, 1)],
                [("strike_order", ["L", "S"]), ("expiry_equal", ["L", "S"])]),
        _schema("BEAR_CALL_SPREAD",
                [("S", "call", -1, 1), ("L", "call", 1, 1)],
                [("strike_order", ["S", "L"]), ("expiry_equal", ["S", "L"])]),
        _schema("BEAR_PUT_SPREAD",
                [("L", "put", 1, 1), ("S", "put", -1, 1)],
                [("strike_order", ["S", "L"]), ("expiry_equal", ["S", "L"])]),
        _schema("CALENDAR_CALL",
                [("F", "call", -1, 1), ("B", "call", 1, 1)],
                [("strike_equal", ["F", "B"]), ("expiry_order", ["F", "B"])]),
        _schema("STRADDLE",
                [("C", "call", 1, 1), ("P", "put", 1, 1)],
                [("strike_equal", ["C", "P"]), ("expiry_equal", ["C", "P"])]),
        _schema("STRANGLE",
                [("P", "put", 1, 1), ("C", "call", 1, 1)],
                [("strike_order", ["P", "C"]), ("expiry_equal", ["P", "C"])]),
        _schema("IRON_CONDOR",
                [("SC", "call", -1, 1), ("LC", "call", 1, 1),
                 ("SP", "put", -1, 1), ("LP", "put", 1, 1)],
                [("strike_order", ["LP", "SP", "SC", "LC"]),
                 ("expiry_equal", ["SC", "LC", "SP", "LP"])]),
        _schema("BUTTERFLY_CALL",
                [("L1", "call", 1, 1), ("S", "call", -1, 2), ("L2", "call", 1, 1)],
                butterfly_rules),
    ]
    return {s.name: s for s in schemas}


def catalog(symmetric_wings: bool = False) -> list[StrategySchema]:
    """The full schema list in canonical order."""
    return list(build_catalog(symmetric_wings).values())


def lookup(name: str, symmetric_wings: bool = False) -> StrategySchema:
    """Schema by (case-insensitive) name; UnknownStrategy if absent."""
    schemas = build_catalog(symmetric_wings)
    key = name.upper()
    if key not in schemas:
        known = ", ".join(schemas)
        raise UnknownStrategy(f"unknown strategy {name!r}; known: {known}")
    return schemas[key]


# ============================================================
# Documentation views
# ============================================================


def schema_to_json(schema: StrategySchema) -> dict:
    return asdict(schema)


def catalog_to_json(symmetric_wings: bool = False) -> list[dict]:
    return [schema_to_json(s) for s in catalog(symmetric_wings)]


def schema_table(schema: StrategySchema) -> str:
    """Human-readable role/rule listing for one schema."""
    lines = [schema.name]
    for r in schema.roles:
        side = "long" if r.direction == 1 else "short"
        lines.append(f"  {r.id:<3} {side} {r.quantity}x {r.option_type}")
    for rule in schema.rules:
        lines.append(f"  rule: {rule.kind}({', '.join(rule.roles)})")
    return "\n".join(lines)


def catalog_table(symmetric_wings: bool = False) -> str:
    return "\n".join(schema_table(s) for s in catalog(symmetric_wings))


# ============================================================
# Semantic validation
# ============================================================


@dataclass(frozen=True)
class ValidatedQuery:
    """A QueryAst bound to its schema, with bare conditions broadcast."""

    ast: QueryAst
    schema: StrategySchema
    per_role_conditions: dict[str, tuple[LegCondition, ...]]
    strategy_conditions: tuple[StratCondition, ...]


def _check_leg_condition(cond: LegCondition, schema: StrategySchema) -> None:
    if cond.role is not None and cond.role not in schema.role_ids:
        raise UnknownRole(
            f"role {cond.role!r} is not part of {schema.name} "
            f"(roles: {', '.join(schema.role_ids)})")
    if not is_leg_field(cond.field):
        raise UnknownField(f"unknown leg field {cond.field!r}")
    if cond.field in CATEGORICAL_LEG_FIELDS:
        if cond.op not in ("=", "!="):
            raise TypeMismatch(
                f"{cond.field} is categorical; operator {cond.op!r} "
                "needs a numeric field")
        if not isinstance(cond.value, str) or cond.value not in MONEYNESS_VALUES:
            raise TypeMismatch(
                f"{cond.field} takes one of {'/'.join(MONEYNESS_VALUES)}, "
                f"got {cond.value!r}")
    else:
        if isinstance(cond.value, str):
            raise TypeMismatch(
                f"{cond.field} is numeric; got symbolic value {cond.value!r}")


def _check_strat_condition(cond: StratCondition) -> None:
    if not is_aggregate_field(cond.field):
        raise UnknownField(f"unknown aggregate field {cond.field!r}")
    if cond.op != "BETWEEN" and isinstance(cond.value, str):
        raise TypeMismatch(
            f"{cond.field} is numeric; got symbolic value {cond.value!r}")


def validate(ast: QueryAst, symmetric_wings: bool = False) -> ValidatedQuery:
    """Bind a parsed query to its schema and type-check every condition.

    Bare (role-less) WHERE conditions broadcast to every role; a broadcast
    query validates identically to the same query written once per role.
    """
    schema = lookup(ast.strategy, symmetric_wings)
    per_role: dict[str, list[LegCondition]] = {rid: [] for rid in schema.role_ids}
    for cond in ast.where:
        _check_leg_condition(cond, schema)
        for rid in schema.role_ids if cond.role is None else (cond.role,):
            per_role[rid].append(cond)
    for cond in ast.having:
        _check_strat_condition(cond)
    for item in ast.order_by:
        if not is_aggregate_field(item.field):
            raise UnknownField(f"unknown sort field {item.field!r}")
    return ValidatedQuery(
        ast=ast,
        schema=schema,
        per_role_conditions={rid: tuple(conds) for rid, conds in per_role.items()},
        strategy_conditions=ast.having,
    )

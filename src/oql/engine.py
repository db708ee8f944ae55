"""Query execution: filter legs, assemble strategies, aggregate, rank.

The pipeline is tokenize -> parse -> validate -> filter -> assemble ->
aggregate -> having -> order/limit. Between filter and order it runs on
one row space, the rows of snapshot.columns in (expiry, strike, ticker)
order: WHERE is a mask over the columns, a role's candidates are the rows
it keeps, assembly joins them into an (m, n_roles) array of rows, one
batch kernel computes the aggregates HAVING and ORDER BY name over every
row, HAVING is a boolean mask, and ORDER BY + LIMIT ranks the survivor
columns once. The returned rows get all twelve aggregates only when
ResultSet.aggregates is first read, and StrategyInstance objects only when
ResultSet.strategies is; result_to_json renders from those columns.
Execution is fully deterministic: results are canonically ordered with a
final tie-break on concatenated leg tickers, and serialized output is
byte-stable under permutation of input records.
"""

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import chain as chain_mod
from . import pricing
from .catalog import RoleSpec, StrategySchema, ValidatedQuery, validate
from .chain import GREEK_FIELDS, ChainSnapshot, ContractRecord
from .config import RunConfig
from .errors import CombinatorialBudgetExceeded, UnderlyingMismatch
from .fields import AGGREGATE_FIELDS, MONEYNESS_VALUES
from .serialize import format_date
from .syntax import LegCondition, QueryAst, StratCondition, parse_text, pretty_print

# rows (or row x candidate cells) per block in assembly and aggregation;
# bounds the temporaries of one step whatever the result size
_BLOCK = 1 << 16


@dataclass(frozen=True)
class StrategyLeg:
    role: str
    record: ContractRecord
    direction: int
    quantity: int


@dataclass(frozen=True)
class StrategyInstance:
    strategy_type: str
    legs: tuple[StrategyLeg, ...]
    aggregates: dict[str, float | None]

    def ticker_key(self) -> str:
        return "".join(leg.record.ticker for leg in self.legs)


@dataclass
class ExecutionStats:
    candidates: dict[str, int]
    filtered: int
    raw_product: int
    assembled: int
    having_passed: int
    returned: int


@dataclass
class ResultSet:
    """A query's returned rows, kept as snapshot rows in result order.

    Their record positions, aggregates and StrategyInstances are built on
    first read, so a caller that reads only `stats` computes none of them.
    """

    query: ValidatedQuery
    text: str
    underlying: str
    as_of: str
    stats: ExecutionStats
    records: tuple[ContractRecord, ...]  # the snapshot's records
    columns: dict[str, np.ndarray]       # the snapshot's columns
    column_rows: np.ndarray  # (returned, n_roles) int32 rows of `columns`
    config: RunConfig        # the config the query ran under

    @cached_property
    def rows(self) -> np.ndarray:
        """(returned, n_roles) positions in `records`."""
        return self.columns["record"][self.column_rows]

    @cached_property
    def aggregates(self) -> dict:
        """field -> (values, available), (returned,) each, for all twelve
        fields, computed on first access."""
        return compute_aggregates(self.query.schema, self.columns,
                                  self.column_rows, self.config)

    @cached_property
    def strategies(self) -> list[StrategyInstance]:
        """The returned rows as StrategyInstances, built on first access."""
        return _instances(self.query.schema, self.records, self.rows,
                          self.aggregates)


# ============================================================
# Conditions: one comparison table for scalars and arrays
# ============================================================

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def soft_match(value, target: float, epsilon: float, epsilon_abs: float):
    """|value - target| <= epsilon * |target|; absolute band when target is 0.

    value may be a float or a float array.
    """
    if target == 0.0:
        return abs(value) <= epsilon_abs
    return abs(value - target) <= epsilon * abs(target)


def _test(cond: LegCondition | StratCondition, config: RunConfig):
    """cond as a function of an available value: a float, a string or a
    float array.

    WHERE applies it to a column of snapshot.columns, HAVING to a column
    of aggregates, so both clauses read one operator table.
    """
    if cond.op == "BETWEEN":
        lo, hi = cond.lo, cond.hi
        return lambda value: (lo <= value) & (value <= hi)
    target = cond.value if isinstance(cond.value, str) else float(cond.value)
    if cond.op == "~":
        epsilon, epsilon_abs = config.epsilon_for(cond.field), config.epsilon_abs
        return lambda value: soft_match(value, target, epsilon, epsilon_abs)
    op = _COMPARE[cond.op]
    return lambda value: op(value, target)


# ============================================================
# Leg predicates: masks over the snapshot's columns
# ============================================================


class Candidates(NamedTuple):
    """The snapshot's columns and, per role id, the row numbers it keeps."""

    columns: dict[str, np.ndarray]
    rows: dict[str, np.ndarray]


def filter_legs(vq: ValidatedQuery, snapshot: ChainSnapshot,
                config: RunConfig) -> Candidates:
    """Per-role candidates: the rows of snapshot.columns that match.

    A role keeps the rows of its option type that pass every one of its
    conditions, each evaluated once per query as a mask over the columns;
    a contract missing a tested field never matches. The rows are stored
    in (expiry, strike, ticker) order, so each role's row numbers come
    sorted and everything downstream is independent of input record order.
    """
    columns = snapshot.columns

    @functools.cache
    def mask(cond: LegCondition) -> np.ndarray:
        if cond.field == "Moneyness":
            return _COMPARE[cond.op](snapshot.moneyness(config.atm_band),
                                     MONEYNESS_VALUES.index(cond.value))
        name = cond.field.lower()
        known = columns.get(f"{name}_ok", True)
        return known & _test(cond, config)(columns[name])

    rows: dict[str, np.ndarray] = {}
    for role in vq.schema.roles:
        keep = columns["is_call"] == (role.option_type == "call")
        for cond in vq.per_role_conditions[role.id]:
            keep &= mask(cond)
        rows[role.id] = np.flatnonzero(keep)
    return Candidates(columns, rows)


# ============================================================
# Assembly: an index join under structural rules
# ============================================================

_PAIR_CHECKS = {
    "strike_order": ("strike", operator.lt),
    "strike_equal": ("strike", operator.eq),
    "expiry_equal": ("expiry", operator.eq),
    "expiry_order": ("expiry", operator.lt),
}


def _depth_checks(schema: StrategySchema) -> dict[int, list]:
    """Per-depth checks, as (rule kind, role positions), equivalent to full
    rule evaluation.

    Rules decompose into adjacent-pair comparisons (orderings and equalities
    are transitive over the rule's role list); each check fires at the depth
    where its last participating role is bound, which prunes the product
    without changing the surviving set or its order.
    """
    index = {rid: i for i, rid in enumerate(schema.role_ids)}
    checks: dict[int, list] = {i: [] for i in range(len(schema.role_ids))}
    for rule in schema.rules:
        positions = tuple(index[r] for r in rule.roles)
        if rule.kind == "symmetric_wings":
            checks[max(positions)].append((rule.kind, positions))
            continue
        for pair in zip(positions, positions[1:]):
            checks[max(pair)].append((rule.kind, pair))
    return checks


def _join(rows: np.ndarray, new: np.ndarray, columns: dict[str, np.ndarray],
          checks: list) -> np.ndarray:
    """Extend each row by every candidate row in `new` that may follow it.

    Per block of rows the outer product rows x candidates is one boolean
    mask: the new row differs from every bound one and each check firing
    at this depth holds. np.nonzero reads the mask row-major, which keeps
    the lexicographic product order.
    """
    depth = rows.shape[1]
    width = len(new)
    step = max(1, _BLOCK // max(width, 1))
    parts = [np.empty((0, depth + 1), dtype=np.int32)]
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]

        def value(j: int, name: str) -> np.ndarray:
            if j == depth:
                return columns[name][new][None, :]
            return columns[name][block[:, j]][:, None]

        keep = np.ones((len(block), width), dtype=bool)
        for j in range(depth):
            keep &= block[:, j, None] != new[None, :]
        for kind, positions in checks:
            if kind == "symmetric_wings":
                wing_lo, body, wing_hi = (value(j, "strike") for j in positions)
                keep &= (body - wing_lo) == (wing_hi - body)
            else:
                name, op = _PAIR_CHECKS[kind]
                keep &= op(value(positions[0], name), value(positions[1], name))
        at, pick = np.nonzero(keep)
        out = np.empty((len(at), depth + 1), dtype=np.int32)
        out[:, :depth] = block[at]
        out[:, depth] = new[pick]
        parts.append(out)
    return np.concatenate(parts)


def assemble(vq: ValidatedQuery, candidates: Candidates,
             config: RunConfig) -> tuple[np.ndarray, int]:
    """All role assignments satisfying the schema's structural rules.

    candidates is what filter_legs returns. Returns (an (m, n_roles) int32
    array whose j-th column holds the snapshot row of role j's contract,
    the raw product size). Rows come in product order over the candidates.
    A contract never fills two roles at once. Raises
    CombinatorialBudgetExceeded when the raw product tops the config cap,
    before any row is built.
    """
    cols = [candidates.rows[rid] for rid in vq.schema.role_ids]
    raw = math.prod(len(rows) for rows in cols)
    if raw > config.combinatorial_cap:
        raise CombinatorialBudgetExceeded(
            f"raw candidate product {raw} exceeds cap {config.combinatorial_cap}")
    checks = _depth_checks(vq.schema)
    rows = np.zeros((1, 0), dtype=np.int32)  # the empty assignment
    for depth, new in enumerate(cols):
        rows = _join(rows, new, candidates.columns, checks[depth])
    return rows, raw


# ============================================================
# Aggregates: one batch kernel, per field group
# ============================================================


# the kernel group each aggregate comes from: entry cash, one net Greek,
# the payoff extremes, the breakevens or the strike width
_GROUP = {
    "net_debit": "entry", "net_credit": "entry",
    **{f"net_{greek}": greek for greek in GREEK_FIELDS},
    "max_loss": "extremes", "max_profit": "extremes", "rr_ratio": "extremes",
    "breakeven_low": "breakevens", "breakeven_high": "breakevens",
    "width": "width",
}


def compute_aggregates(schema: StrategySchema, columns: dict[str, np.ndarray],
                       rows: np.ndarray, config: RunConfig,
                       fields=AGGREGATE_FIELDS) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The aggregates named in `fields` of every row: field -> (values,
    available), in AGGREGATE_FIELDS order.

    rows[:, j] holds the rows of `columns` that role j's contracts sit in.
    Only the kernel groups the fields need run; the payoff kernels run
    only for max_profit, max_loss, rr_ratio and the breakevens. Cash
    aggregates and net Greeks are scaled by the contract multiplier.
    Sums run role by role in role order, so each value is bit-identical
    whatever the batch size and whichever other fields are asked for. An
    unavailable aggregate (it fails HAVING and sorts last) reads 0.0 with
    available False; +inf marks an unbounded payoff side and stays
    comparable.
    """
    m, n = rows.shape
    mult = config.multiplier
    qd = [role.quantity * role.direction for role in schema.roles]
    index = rows.T.astype(np.intp)
    groups = {_GROUP[field] for field in fields}

    @functools.cache
    def gather(name: str) -> list[np.ndarray]:
        """Column `name` of every role, one (m,) array per role."""
        return [columns[name][index[j]] for j in range(n)]

    every = np.ones(m, dtype=bool)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    if groups & {"entry", "extremes"}:
        entry = np.zeros(m)
        for j, price in enumerate(gather("price")):
            entry = entry + qd[j] * price
        entry_cash = entry * mult
        # zero-cost structures count as debit
        out["net_debit"] = (np.where(entry_cash > 0.0, entry_cash, 0.0),
                            entry_cash >= 0.0)
        out["net_credit"] = (-entry_cash, entry_cash < 0.0)

    for greek in GREEK_FIELDS:
        if greek in groups:
            total, ok = np.zeros(m), every
            for j, (value, known) in enumerate(zip(gather(greek),
                                                   gather(f"{greek}_ok"))):
                total = total + qd[j] * value
                ok = ok & known
            out[f"net_{greek}"] = (total * mult, ok)

    if groups & {"extremes", "breakevens"}:
        # different expiries: no terminal payoff; worst case for a debit
        # structure is losing the debit, nothing is claimed for credits
        expiry = gather("expiry")
        single = np.logical_and.reduce([e == expiry[0] for e in expiry])
        knots, values, slope = pricing.payoff_at_knots(
            qd, [role.option_type == "call" for role in schema.roles],
            np.stack(gather("strike")), np.stack(gather("price")))
        if "extremes" in groups:
            max_profit, max_loss = pricing.payoff_extremes(values, slope)
            profit, profit_ok = max_profit * mult, single
            loss = np.where(single, max_loss * mult, entry_cash)
            loss_ok = single | (entry_cash > 0.0)
            rr_ok = (profit_ok & loss_ok & np.isfinite(profit)
                     & np.isfinite(loss) & (loss > 0.0))
            out["max_profit"] = (profit, profit_ok)
            out["max_loss"] = (loss, loss_ok)
            out["rr_ratio"] = (np.divide(profit, loss, out=np.zeros(m),
                                         where=rr_ok), rr_ok)
        if "breakevens" in groups:
            low, high, crosses = pricing.breakevens(knots, values, slope)
            out["breakeven_low"] = (low, single & crosses)
            out["breakeven_high"] = (high, single & crosses)

    if "width" in groups:
        strike = gather("strike")
        out["width"] = (np.maximum.reduce(strike) - np.minimum.reduce(strike),
                        every)
    return {field: out[field] for field in AGGREGATE_FIELDS if field in fields}


def eval_strat_condition(cond: StratCondition, aggregates: dict,
                         config: RunConfig) -> np.ndarray:
    """One HAVING predicate as a mask over aggregate columns; an
    unavailable aggregate rejects."""
    values, available = aggregates[cond.field]
    return available & _test(cond, config)(values)


# ============================================================
# HAVING survivors, ranking and the pipeline
# ============================================================


@dataclass
class Survivors:
    """The rows that passed HAVING, kept as columns."""

    schema: StrategySchema
    records: tuple[ContractRecord, ...]  # the snapshot's records
    columns: dict[str, np.ndarray]       # the snapshot's columns
    rows: np.ndarray              # (k, n_roles) int32 rows of `columns`
    aggregates: dict  # ORDER BY field -> (values, available), (k,) each
    stats: ExecutionStats


def survivors(vq: ValidatedQuery, snapshot: ChainSnapshot,
              config: RunConfig) -> Survivors:
    """Filter, assemble and apply HAVING, block by block.

    Per block only the aggregates HAVING and ORDER BY name are computed,
    and only the ORDER BY columns of the rows that pass are kept.
    """
    candidates = filter_legs(vq, snapshot, config)
    rows, raw = assemble(vq, candidates, config)
    counts = {rid: len(candidates.rows[rid]) for rid in vq.schema.role_ids}
    order = {item.field for item in vq.ast.order_by}
    read = order | {cond.field for cond in vq.strategy_conditions}
    kept_rows, kept = [], []
    for lo in range(0, max(len(rows), 1), _BLOCK):
        block = rows[lo:lo + _BLOCK]
        aggregates = compute_aggregates(vq.schema, candidates.columns, block,
                                        config, read)
        keep = np.ones(len(block), dtype=bool)
        for cond in vq.strategy_conditions:
            keep &= eval_strat_condition(cond, aggregates, config)
        kept_rows.append(block[keep])
        kept.append({field: (values[keep], available[keep])
                     for field, (values, available) in aggregates.items()
                     if field in order})
    passed = np.concatenate(kept_rows)
    stats = ExecutionStats(
        candidates=counts,
        filtered=sum(counts.values()),
        raw_product=raw,
        assembled=len(rows),
        having_passed=len(passed),
        returned=0,
    )
    aggregates = {
        field: (np.concatenate([part[field][0] for part in kept]),
                np.concatenate([part[field][1] for part in kept]))
        for field in kept[0]
    }
    return Survivors(vq.schema, snapshot.records, candidates.columns, passed,
                     aggregates, stats)


def _ticker_ranks(surv: Survivors) -> list[np.ndarray] | None:
    """Per-role ticker ranks of every survivor row, or None when the
    snapshot's tickers differ in length.

    When all tickers share one length, comparing rows rank by rank orders
    them exactly as comparing their concatenated ticker strings.
    """
    lengths = surv.columns["ticker_len"]
    if len(lengths) and lengths.min() != lengths.max():
        return None
    return [surv.columns["ticker_rank"][row] for row in surv.rows.T]


def order_and_limit(surv: Survivors, order_by, limit: int | None) -> np.ndarray:
    """Survivor positions in result order: a stable multi-key sort
    (default ASC), then LIMIT.

    Each ORDER BY item keys on a missing flag, then the signed value, so
    unavailable values go last regardless of direction. Ties always break
    on concatenated leg tickers, so the order is total and independent of
    assembly order. With per-role ticker ranks as the last keys one
    lexsort is that order. Otherwise only the rows tied with the
    limit-th row on the numeric keys, or ahead of it, are sorted with
    their ticker strings.
    """
    keys: list[np.ndarray] = []
    for item in order_by:
        values, available = surv.aggregates[item.field]
        keys.append(~available)
        signed = values if item.direction == "ASC" else -values
        keys.append(np.where(available, signed, 0.0))
    ranks = _ticker_ranks(surv)
    if ranks is not None:
        return np.lexsort((keys + ranks)[::-1])[:limit]
    k = len(surv.rows)
    picks = np.arange(k)
    if keys and limit is not None and limit < k:
        pivot = np.lexsort(keys[::-1])[limit - 1]
        before = np.zeros(k, dtype=bool)
        tied = np.ones(k, dtype=bool)
        for key in keys:
            before |= tied & (key < key[pivot])
            tied &= key == key[pivot]
        picks = np.nonzero(before | tied)[0]
    positions = surv.columns["record"][surv.rows[picks]]
    tickers = ["".join(surv.records[i].ticker for i in row)
               for row in positions.tolist()]
    columns = [key[picks].tolist() for key in keys]
    ranked = sorted(range(len(picks)),
                    key=lambda i: (*(col[i] for col in columns), tickers[i]))
    return picks[ranked[:limit]]


def _or_none(values: np.ndarray, available: np.ndarray) -> list:
    """values as a list of floats, None where unavailable."""
    return [v if ok else None for v, ok in zip(values.tolist(), available.tolist())]


def _instances(schema: StrategySchema, records, rows: np.ndarray,
               aggregates: dict) -> list[StrategyInstance]:
    """One StrategyInstance per row of record positions, in row order."""
    columns = [_or_none(values, available)
               for values, available in aggregates.values()]
    out = []
    for row, agg in zip(rows.tolist(), zip(*columns)):
        legs = tuple(
            StrategyLeg(role=role.id, record=records[i],
                        direction=role.direction, quantity=role.quantity)
            for role, i in zip(schema.roles, row))
        out.append(StrategyInstance(strategy_type=schema.name, legs=legs,
                                    aggregates=dict(zip(aggregates, agg))))
    return out


def execute(query: str | QueryAst, snapshot: ChainSnapshot,
            config: RunConfig | None = None) -> ResultSet:
    """Run a query against a snapshot end to end.

    The result holds the snapshot rows of the returned rows only; their
    aggregates are computed when ResultSet.aggregates is first read.
    """
    config = config or RunConfig()
    ast = parse_text(query) if isinstance(query, str) else query
    vq = validate(ast, symmetric_wings=config.symmetric_wings)
    if ast.underlying != snapshot.underlying:
        raise UnderlyingMismatch(
            f"query is FROM {ast.underlying} but the snapshot holds "
            f"{snapshot.underlying}")
    snapshot = chain_mod.enrich(snapshot)
    surv = survivors(vq, snapshot, config)
    picks = order_and_limit(surv, ast.order_by, ast.limit)
    stats = surv.stats
    stats.returned = len(picks)
    return ResultSet(query=vq, text=pretty_print(ast),
                     underlying=snapshot.underlying,
                     as_of=format_date(snapshot.as_of), stats=stats,
                     records=surv.records, columns=surv.columns,
                     column_rows=surv.rows[picks], config=config)


# ============================================================
# Serialization
# ============================================================


def _aggregate_columns(aggregates: dict) -> dict[str, list]:
    """The JSON aggregates of every row as columns, in output key order.

    An unavailable value is None. An infinite max_loss or max_profit is
    None too, with its `<field>_unbounded` flag True.
    """
    out: dict[str, list] = {}
    for field in AGGREGATE_FIELDS:
        values, available = aggregates[field]
        if field in ("max_loss", "max_profit"):
            unbounded = available & np.isinf(values)
            out[field] = _or_none(values, available & ~unbounded)
            out[f"{field}_unbounded"] = unbounded.tolist()
        else:
            out[field] = _or_none(values, available)
    return out


def _leg_to_json(role: RoleSpec, rec: ContractRecord) -> dict:
    return {"role": role.id, "ticker": rec.ticker, "direction": role.direction,
            "quantity": role.quantity, "strike": rec.strike,
            "expiry": format_date(rec.expiry), "price": rec.price, "iv": rec.iv}


def _strategies_to_json(result: ResultSet, mode: str) -> list[dict]:
    """The returned rows as JSON strategy objects, rendered from columns."""
    schema = result.query.schema
    records = result.records
    rows = result.rows.tolist()
    if mode == "blueprint":
        names = [(f"contract_ticker_{role.id}", f"price_{role.id}")
                 for role in schema.roles]
        out = []
        for row in rows:
            details: dict = {}
            for (ticker, price), i in zip(names, row):
                details[ticker] = records[i].ticker
                details[price] = records[i].price
            out.append({"strategy_type": schema.name, "strategy_details": details})
        return out
    # a leg's object depends only on its role and record, so each is
    # rendered once and shared by every row that holds it
    legs = [{i: _leg_to_json(role, records[i]) for i in set(column)}
            for role, column in zip(schema.roles, zip(*rows))]
    columns = _aggregate_columns(result.aggregates)
    return [
        {"strategy_type": schema.name,
         "legs": [role_legs[i] for role_legs, i in zip(legs, row)],
         "aggregates": dict(zip(columns, values))}
        for row, values in zip(rows, zip(*columns.values()))
    ]


def result_to_json(result: ResultSet, config: RunConfig) -> dict:
    """JSON document for a result set (mode comes from the config).

    In standard mode the rows that hold one (role, record) share one leg
    dict, which serialize.dumps writes once; copy a leg before changing it.
    """
    return {
        "query": result.text,
        "strategy_type": result.query.schema.name,
        "underlying": result.underlying,
        "as_of": result.as_of,
        "config": config.to_json_dict(),
        "stats": {**vars(result.stats),
                  "candidates": dict(result.stats.candidates)},
        "strategies": _strategies_to_json(result, config.output_mode),
    }


def result_to_table(result: ResultSet) -> str:
    """Fixed-width human-readable listing of a result set."""
    header = (f"{result.query.schema.name} on {result.underlying} "
              f"as of {result.as_of}: {len(result.strategies)} result(s)")
    lines = [header]
    for rank, inst in enumerate(result.strategies, start=1):
        legs = " ".join(
            f"{leg.role}={leg.record.ticker}@{leg.record.price:g}"
            for leg in inst.legs)
        agg = inst.aggregates

        def cell(key: str) -> str:
            value = agg[key]
            if value is None:
                return "-"
            if math.isinf(value):
                return "unbounded"
            return f"{value:.4g}"

        lines.append(f"#{rank} {legs}")
        lines.append(
            f"    net_debit={cell('net_debit')} net_credit={cell('net_credit')} "
            f"max_loss={cell('max_loss')} max_profit={cell('max_profit')} "
            f"rr_ratio={cell('rr_ratio')} net_delta={cell('net_delta')} "
            f"net_theta={cell('net_theta')}")
    return "\n".join(lines)

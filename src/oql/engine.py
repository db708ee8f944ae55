"""Query execution: filter legs, assemble strategies, aggregate, rank.

The pipeline is parse_text -> validate -> filter -> assemble ->
aggregate -> having -> order/limit. Between filter and order it runs on
one row space, the rows of snapshot.columns in (expiry, strike, ticker)
order: WHERE is a mask over the columns, a role's candidates are the rows
it keeps, assembly joins them into an (m, n_roles) array of rows, one
batch kernel computes the aggregate groups HAVING reads over every row,
and HAVING is a boolean mask. execute stops there: ORDER BY + LIMIT
rank the surviving rows once, on the first read of the result's rows or
aggregates, so a caller that reads only `stats` never ranks. A result
exists only as columns: a ResultSet holds the snapshot, its rows and the
aggregate columns computed for them, and ResultSet.complete computes the
groups ranking or the aggregates read still miss, block by block.
result_to_json and result_to_table render rows from those columns.
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
from .catalog import RULES, RoleSpec, StrategySchema, ValidatedQuery, validate
from .chain import GREEK_FIELDS, ChainSnapshot, ContractRecord
from .config import RunConfig
from .errors import CombinatorialBudgetExceeded, UnderlyingMismatch
from .fields import AGGREGATE_FIELDS, MONEYNESS_VALUES
from .serialize import format_date
from .syntax import LegCondition, QueryAst, StratCondition, parse_text, pretty_print

# rows (or row x candidate cells) per block in assembly, HAVING and
# ResultSet.complete: bounds the temporaries of one step whatever the size
_BLOCK = 1 << 16


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
    """A query's rows, kept as snapshot rows in `passed`: every row that
    passed HAVING, in assembly order.

    `ranking` is the (ORDER BY, LIMIT) still to apply to them, or None
    when they are the result's rows as they stand (`survivors`). `execute`
    leaves it set: the first read of `column_rows`, `rows` or `aggregates`
    ranks once (order_and_limit) and narrows `passed` and `computed` to
    the returned rows in result order. `computed` holds the aggregate
    columns HAVING and `complete` computed for `passed`; the rest is
    computed on first read, so reading only `stats` computes none of it.
    """

    query: ValidatedQuery
    snapshot: ChainSnapshot  # the enriched snapshot the query ran on
    stats: ExecutionStats
    passed: np.ndarray       # (k, n_roles) int32 rows of snapshot.columns
    config: RunConfig        # the config the query ran under
    computed: dict  # field -> (values, available), (k,) each
    ranking: tuple | None = None  # (order_by, limit) still to apply

    @property
    def column_rows(self) -> np.ndarray:
        """(k, n_roles) int32 rows of snapshot.columns in result order."""
        if self.ranking is not None:
            picks = order_and_limit(self, *self.ranking)
            self.passed = self.passed[picks]
            self.computed = {field: (values[picks], available[picks])
                             for field, (values, available)
                             in self.computed.items()}
            self.ranking = None
        return self.passed

    @cached_property
    def text(self) -> str:
        """The query's canonical text (pretty_print of its AST)."""
        return pretty_print(self.query.ast)

    @cached_property
    def rows(self) -> np.ndarray:
        """(k, n_roles) positions in snapshot.records."""
        return self.snapshot.columns["record"][self.column_rows]

    def complete(self, fields) -> dict:
        """`computed` once it holds `fields`: each missing kernel group
        they need runs over `passed` in _BLOCK-row blocks and is kept."""
        missing = _group_fields(field for field in fields
                                if field not in self.computed)
        if missing:
            rows = self.passed
            self.computed = {**self.computed, **_concat_columns([
                compute_aggregates(self.query.schema, self.snapshot.columns,
                                   rows[lo:lo + _BLOCK], self.config, missing)
                for lo in range(0, max(len(rows), 1), _BLOCK)], missing)}
        return self.computed

    @cached_property
    def aggregates(self) -> dict:
        """field -> (values, available), (k,) each, for all twelve fields
        in AGGREGATE_FIELDS order: the rows are ranked first, so only the
        returned rows get the groups still missing."""
        self.column_rows  # ranks, narrowing `passed` and `computed`
        computed = self.complete(AGGREGATE_FIELDS)
        return {field: computed[field] for field in AGGREGATE_FIELDS}


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


def _holds(cond: LegCondition | StratCondition, value, config: RunConfig):
    """cond applied to an available value (a float, a string or a float
    array): WHERE applies it to a column of snapshot.columns, HAVING to a
    column of aggregates, so both clauses read one operator table."""
    if cond.op == "BETWEEN":
        return (cond.lo <= value) & (value <= cond.hi)
    target = cond.value if isinstance(cond.value, str) else float(cond.value)
    if cond.op == "~":
        return soft_match(value, target, config.epsilon_for(cond.field),
                          config.epsilon_abs)
    return _COMPARE[cond.op](value, target)


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

    def mask(cond: LegCondition) -> np.ndarray:
        if cond.field == "Moneyness":
            return _COMPARE[cond.op](snapshot.moneyness(config.atm_band),
                                     MONEYNESS_VALUES.index(cond.value))
        name = cond.field.lower()
        holds = _holds(cond, columns[name], config)
        known = columns.get(f"{name}_ok")
        return holds if known is None else known & holds

    # one mask per condition, by identity: a condition hashes every field
    masks = {id(cond): mask(cond) for cond in vq.ast.where}
    is_call = columns["is_call"]
    rows: dict[str, np.ndarray] = {}
    for role in vq.schema.roles:
        keep = is_call if role.option_type == "call" else ~is_call
        for cond in vq.per_role_conditions[role.id]:
            keep = keep & masks[id(cond)]
        rows[role.id] = keep.nonzero()[0]
    return Candidates(columns, rows)


# ============================================================
# Assembly: an index join under structural rules
# ============================================================

@functools.cache
def _depth_checks(schema: StrategySchema) -> dict[int, list]:
    """Per-depth checks, as (column, comparison, role positions) from RULES,
    equivalent to full rule evaluation; computed once per schema.

    Rules decompose into adjacent-pair comparisons (orderings and equalities
    are transitive over the rule's role list; symmetric wings is one check);
    each fires at the depth where its last role is bound, which prunes the
    product without changing the surviving set or its order. No contract
    fills two roles: column None compares row numbers with `!=` where no
    other check rejects equal rows (roles of one option type and no strict
    order between them). _join folds a depth's checks into one mask, so
    every catalog schema has at least one at every depth but depth 0
    (tests/test_catalog.py pins it).
    """
    roles = schema.roles
    index = {rid: i for i, rid in enumerate(schema.role_ids)}
    checks: dict[int, list] = {i: [] for i in range(len(roles))}
    for rule in schema.rules:
        positions = tuple(index[r] for r in rule.roles)
        name, op = RULES[rule.kind]
        for group in ([positions] if rule.kind == "symmetric_wings"
                      else zip(positions, positions[1:])):
            checks[max(group)].append((name, op, group))
    for depth in range(1, len(roles)):
        ordered = {min(group) for _, op, group in checks[depth]
                   if op is operator.lt}
        distinct = [(None, operator.ne, (j, depth)) for j in range(depth)
                    if roles[j].option_type == roles[depth].option_type
                    and j not in ordered]
        checks[depth] = distinct + checks[depth]
    return checks


def _join(rows: np.ndarray, new: np.ndarray, columns: dict[str, np.ndarray],
          checks: list) -> np.ndarray:
    """Extend each row by every candidate row in `new` that may follow it.

    Per block of rows the outer product rows x candidates is one boolean
    mask: the checks at this depth over (rows, 1) bound values and the
    (candidates,) new ones, gathered once. np.nonzero reads it row-major,
    which keeps the lexicographic product order.
    """
    depth = rows.shape[1]
    step = max(1, _BLOCK // max(len(new), 1))
    gathered = {name: new if name is None else columns[name][new]
                for name, _, _ in checks}
    parts = []
    for lo in range(0, max(len(rows), 1), step):
        block = rows[lo:lo + step]

        def value(j: int, name: str | None) -> np.ndarray:
            if j == depth:
                return gathered[name]
            bound = block[:, j, None]
            return bound if name is None else columns[name][bound]

        keep = functools.reduce(operator.and_, [
            op(*[value(j, name) for j in group]) for name, op, group in checks])
        at, pick = np.nonzero(keep)
        out = np.empty((len(at), depth + 1), dtype=np.int32)
        out[:, :depth] = block[at]
        out[:, depth] = new[pick]
        parts.append(out)
    return _concat(parts)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end; a lone part is returned as is, not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    rows = cols[0].astype(np.int32)[:, None]  # no check fires at depth 0
    for depth in range(1, len(cols)):
        rows = _join(rows, cols[depth], candidates.columns, checks[depth])
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

    gathered: dict[str, list[np.ndarray]] = {}

    def gather(name: str) -> list[np.ndarray]:
        """Column `name` of every role, one (m,) array per role."""
        if name not in gathered:
            gathered[name] = [columns[name][index[j]] for j in range(n)]
        return gathered[name]

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
    return available & _holds(cond, values, config)


# ============================================================
# HAVING survivors, ranking and the pipeline
# ============================================================


def _group_fields(read) -> list[str]:
    """Every field of the kernel groups the fields in `read` come from,
    in AGGREGATE_FIELDS order: a group's kernel yields them all at once."""
    groups = {_GROUP[field] for field in read}
    return [field for field in AGGREGATE_FIELDS if _GROUP[field] in groups]


def _concat_columns(parts: list[dict], fields: list[str]) -> dict:
    """The aggregate columns `fields` of consecutive blocks, end to end."""
    return {field: (_concat([part[field][0] for part in parts]),
                    _concat([part[field][1] for part in parts]))
            for field in fields}


def survivors(vq: ValidatedQuery, snapshot: ChainSnapshot,
              config: RunConfig) -> ResultSet:
    """Filter, assemble and apply HAVING, block by block: every row that
    passes, in assembly order.

    Per block only the kernel groups HAVING reads run, and every field of
    those groups is kept for the rows that pass, so ranking and the
    result's aggregates later compute only the groups still missing.
    Without HAVING no aggregate runs and every assembled row passes.
    """
    candidates = filter_legs(vq, snapshot, config)
    rows, raw = assemble(vq, candidates, config)
    counts = {rid: len(candidates.rows[rid]) for rid in vq.schema.role_ids}
    fields = _group_fields(cond.field for cond in vq.strategy_conditions)
    passed, computed = rows, {}
    if fields:
        kept_rows, kept = [], []
        for lo in range(0, max(len(rows), 1), _BLOCK):
            block = rows[lo:lo + _BLOCK]
            aggregates = compute_aggregates(vq.schema, candidates.columns,
                                            block, config, fields)
            keep = functools.reduce(operator.and_, (
                eval_strat_condition(cond, aggregates, config)
                for cond in vq.strategy_conditions))
            kept_rows.append(block[keep])
            kept.append({field: (values[keep], available[keep])
                         for field, (values, available) in aggregates.items()})
        passed, computed = _concat(kept_rows), _concat_columns(kept, fields)
    stats = ExecutionStats(candidates=counts, filtered=sum(counts.values()),
                           raw_product=raw, assembled=len(rows),
                           having_passed=len(passed), returned=len(passed))
    return ResultSet(query=vq, snapshot=snapshot, stats=stats, passed=passed,
                     config=config, computed=computed)


def _ticker_ranks(result: ResultSet) -> list[np.ndarray]:
    """Tie-break keys that order the rows as their concatenated leg tickers.

    When no ticker of the snapshot is a proper prefix of another, two
    rows' concatenations first differ inside the first role whose tickers
    differ, so the per-role ticker ranks are the keys. Otherwise the one
    key is each row's concatenated ticker string, which lexsort compares
    in Python string order.
    """
    columns, roles = result.snapshot.columns, result.passed.T
    if not columns["ticker_prefix"].any():
        return [columns["ticker_rank"][row] for row in roles]
    names = np.array([result.snapshot.records[i].ticker
                      for i in columns["record"].tolist()], dtype=object)
    return [functools.reduce(operator.add, (names[row] for row in roles))]


def order_and_limit(result: ResultSet, order_by,
                    limit: int | None) -> np.ndarray:
    """Positions in `result.passed` in result order: a stable multi-key
    sort (default ASC), then LIMIT.

    The ORDER BY fields are read through `result.complete`, which first
    computes any of their kernel groups `result.computed` misses, over
    every row of `result.passed`. Each ORDER BY item keys on a
    missing flag, then the signed value, so unavailable values go last
    regardless of direction. Ties always break on concatenated leg
    tickers (`_ticker_ranks`), so the order is total and independent of
    assembly order, and one lexsort over all the keys is that order.
    """
    computed = result.complete(item.field for item in order_by)
    keys: list[np.ndarray] = []
    for item in order_by:
        values, available = computed[item.field]
        keys.append(~available)
        signed = values if item.direction == "ASC" else -values
        keys.append(np.where(available, signed, 0.0))
    return np.lexsort((keys + _ticker_ranks(result))[::-1])[:limit]


def _or_none(values: np.ndarray, available: np.ndarray) -> list:
    """values as a list of floats, None where unavailable."""
    return [v if ok else None for v, ok in zip(values.tolist(), available.tolist())]


def execute(query: str | QueryAst, snapshot: ChainSnapshot,
            config: RunConfig | None = None) -> ResultSet:
    """Run a query against a snapshot up to HAVING.

    The result holds the rows HAVING kept, with the aggregate columns
    HAVING computed for them, and the query's ORDER BY and LIMIT, which
    the first read of its rows or aggregates applies; `stats.returned` is
    already the number of rows that ranking returns.
    """
    config = config or RunConfig()
    ast = parse_text(query) if isinstance(query, str) else query
    vq = validate(ast, symmetric_wings=config.symmetric_wings)
    if ast.underlying != snapshot.underlying:
        raise UnderlyingMismatch(
            f"query is FROM {ast.underlying} but the snapshot holds "
            f"{snapshot.underlying}")
    snapshot = chain_mod.enrich(snapshot)
    result = survivors(vq, snapshot, config)
    result.ranking = (ast.order_by, ast.limit)
    if ast.limit is not None:
        result.stats.returned = min(ast.limit, result.stats.having_passed)
    return result


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
    schema, records = result.query.schema, result.snapshot.records
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
        "underlying": result.snapshot.underlying,
        "as_of": format_date(result.snapshot.as_of),
        "config": config.to_json_dict(),
        "stats": {**vars(result.stats),
                  "candidates": dict(result.stats.candidates)},
        "strategies": _strategies_to_json(result, config.output_mode),
    }


# the aggregates a table row shows, in column order
_TABLE_FIELDS = ("net_debit", "net_credit", "max_loss", "max_profit",
                 "rr_ratio", "net_delta", "net_theta")


def _cell(value: float | None) -> str:
    if value is None:
        return "-"
    if math.isinf(value):
        return "unbounded"
    return f"{value:.4g}"


def result_to_table(result: ResultSet) -> str:
    """Fixed-width human-readable listing of a result set, rendered from
    its columns as result_to_json renders it."""
    schema, records = result.query.schema, result.snapshot.records
    rows = result.rows.tolist()
    lines = [f"{schema.name} on {result.snapshot.underlying} as of "
             f"{format_date(result.snapshot.as_of)}: {len(rows)} result(s)"]
    cells = [[f"{field}={_cell(value)}"
              for value in _or_none(*result.aggregates[field])]
             for field in _TABLE_FIELDS]
    for rank, (row, row_cells) in enumerate(zip(rows, zip(*cells)), start=1):
        legs = " ".join(f"{role.id}={records[i].ticker}@{records[i].price:g}"
                        for role, i in zip(schema.roles, row))
        lines.append(f"#{rank} {legs}")
        lines.append("    " + " ".join(row_cells))
    return "\n".join(lines)

"""Query execution: filter legs, assemble strategies, aggregate, rank.

The pipeline is tokenize -> parse -> validate -> filter -> assemble ->
aggregate -> having -> order/limit. Between filter and order it runs on
columns: WHERE is a mask over the snapshot's record table, assembly joins
the per-role candidate rows into an (m, n_roles) index array, one batch
kernel computes every aggregate of every row, HAVING is a boolean mask,
and ORDER BY + LIMIT ranks a top-k before any StrategyInstance is built.
Execution is fully deterministic: candidates are sorted by (expiry,
strike, ticker) before assembly, results are canonically ordered with a
final tie-break on concatenated leg tickers, and serialized output is
byte-stable under permutation of input records.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from . import pricing
from .catalog import StrategySchema, ValidatedQuery, validate
from .chain import GREEK_FIELDS, ChainSnapshot, ContractRecord
from .config import RunConfig
from .errors import CombinatorialBudgetExceeded, UnderlyingMismatch
from .fields import AGGREGATE_FIELDS
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
    query: ValidatedQuery
    text: str
    underlying: str
    as_of: str
    strategies: list[StrategyInstance]
    stats: ExecutionStats


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

    WHERE applies it to one contract's field, HAVING to a column of
    aggregates, so both clauses read one operator table.
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
# Leg predicates: masks over the snapshot's record table
# ============================================================


def filter_legs(vq: ValidatedQuery, snapshot: ChainSnapshot,
                config: RunConfig) -> dict[str, np.ndarray]:
    """Per-role candidates: the rows of snapshot.table that match.

    A role keeps the rows of its option type that pass every one of its
    conditions, each evaluated once per query as a mask over the table; a
    contract missing a tested field never matches. Rows are sorted by
    (expiry, strike, ticker) so everything downstream is independent of
    input record order.
    """
    table = snapshot.table

    @functools.cache
    def mask(cond: LegCondition) -> np.ndarray:
        if cond.field == "Moneyness":
            value = chain_mod.moneyness(np.where(table["is_call"], "call", "put"),
                                        table["strike"], snapshot.spot,
                                        config.atm_band)
            return _test(cond, config)(value)
        name = cond.field.lower()
        ok = f"{name}_ok"
        known = table[ok] if ok in table.dtype.names else True
        return known & _test(cond, config)(table[name])

    out: dict[str, np.ndarray] = {}
    for role in vq.schema.roles:
        keep = np.full(len(table), True)
        if role.option_type != "either":
            keep &= table["is_call"] == (role.option_type == "call")
        for cond in vq.per_role_conditions[role.id]:
            keep &= mask(cond)
        rows = table[keep]
        out[role.id] = rows[np.lexsort((rows["ticker_rank"], rows["strike"],
                                        rows["expiry"]))]
    return out


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


def _join(rows: np.ndarray, depth: int, cols: list[np.ndarray],
          checks: list) -> np.ndarray:
    """Extend each row by every candidate of role `depth` that may follow it.

    Per block of rows the outer product rows x candidates is one boolean
    mask: the new contract differs from every bound one and each check
    firing at this depth holds. np.nonzero reads the mask row-major, which
    keeps the lexicographic product order.
    """
    new = cols[depth]
    width = len(new)
    step = max(1, _BLOCK // max(width, 1))
    parts = [np.empty((0, depth + 1), dtype=np.int32)]
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]

        def value(j: int, name: str) -> np.ndarray:
            if j == depth:
                return new[name][None, :]
            return cols[j][name][block[:, j]][:, None]

        keep = np.ones((len(block), width), dtype=bool)
        for j in range(depth):
            keep &= value(j, "ticker_rank") != value(depth, "ticker_rank")
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
        out[:, depth] = pick
        parts.append(out)
    return np.concatenate(parts)


def assemble(vq: ValidatedQuery, candidates: dict[str, np.ndarray],
             config: RunConfig) -> tuple[np.ndarray, int]:
    """All role assignments satisfying the schema's structural rules.

    candidates are filter_legs' per-role table rows. Returns (an
    (m, n_roles) int32 array whose row j-th entry is the position of role
    j's contract among its candidates, the raw product size). Rows come
    in product order over the candidates. A contract never fills two roles
    at once. Raises CombinatorialBudgetExceeded when the raw product tops
    the config cap, before any row is built.
    """
    cols = [candidates[rid] for rid in vq.schema.role_ids]
    raw = math.prod(len(rows) for rows in cols)
    if raw > config.combinatorial_cap:
        raise CombinatorialBudgetExceeded(
            f"raw candidate product {raw} exceeds cap {config.combinatorial_cap}")
    checks = _depth_checks(vq.schema)
    rows = np.zeros((1, 0), dtype=np.int32)  # the empty assignment
    for depth in range(len(cols)):
        rows = _join(rows, depth, cols, checks[depth])
    return rows, raw


# ============================================================
# Aggregates: one batch kernel
# ============================================================


def aggregate_batch(schema: StrategySchema, cols: list[np.ndarray], rows: np.ndarray,
                    config: RunConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every aggregate of every row: field -> (values, available).

    cols[j] holds role j's candidate table rows and rows[:, j] indexes them.
    Cash aggregates and net Greeks are scaled by the contract multiplier.
    Sums run role by role in role order, so each value is bit-identical
    whatever the batch size. An unavailable aggregate (it fails HAVING and
    sorts last) reads 0.0 with available False; +inf marks an unbounded
    payoff side and stays comparable.
    """
    m, n = rows.shape
    mult = config.multiplier
    qd = [role.quantity * role.direction for role in schema.roles]
    index = rows.T.astype(np.intp)

    def gather(name: str) -> list[np.ndarray]:
        """Column `name` of every role, one (m,) array per role."""
        return [cols[j][name][index[j]] for j in range(n)]

    price, strike = gather("price"), gather("strike")
    every = np.ones(m, dtype=bool)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    entry = np.zeros(m)
    for j in range(n):
        entry = entry + qd[j] * price[j]
    entry_cash = entry * mult
    # zero-cost structures count as debit
    out["net_debit"] = (np.where(entry_cash > 0.0, entry_cash, 0.0),
                        entry_cash >= 0.0)
    out["net_credit"] = (-entry_cash, entry_cash < 0.0)

    for greek in GREEK_FIELDS:
        total, ok = np.zeros(m), every
        for j, (value, known) in enumerate(zip(gather(greek),
                                               gather(f"{greek}_ok"))):
            total = total + qd[j] * value
            ok = ok & known
        out[f"net_{greek}"] = (total * mult, ok)

    # different expiries: no terminal payoff; worst case for a debit
    # structure is losing the debit, nothing is claimed for credits
    expiry = gather("expiry")
    single = np.logical_and.reduce([e == expiry[0] for e in expiry])
    knots, values, slope = pricing.payoff_at_knots(
        qd, np.stack(gather("is_call")), np.stack(strike), np.stack(price))
    max_profit, max_loss = pricing.extremes_from_knots(values, slope)
    low, high, crosses = pricing.breakevens_from_knots(knots, values, slope)
    out["max_profit"] = (max_profit * mult, single)
    out["max_loss"] = (np.where(single, max_loss * mult, entry_cash),
                       single | (entry_cash > 0.0))
    out["breakeven_low"] = (low, single & crosses)
    out["breakeven_high"] = (high, single & crosses)

    profit, profit_ok = out["max_profit"]
    loss, loss_ok = out["max_loss"]
    rr_ok = (profit_ok & loss_ok & np.isfinite(profit) & np.isfinite(loss)
             & (loss > 0.0))
    out["rr_ratio"] = (np.divide(profit, loss, out=np.zeros(m), where=rr_ok),
                       rr_ok)
    out["width"] = (np.maximum.reduce(strike) - np.minimum.reduce(strike), every)
    return {field: out[field] for field in AGGREGATE_FIELDS}


def _aggregate_dicts(aggregates: dict, picks: np.ndarray) -> list[dict]:
    """Per-row aggregate dicts (None where unavailable) for the picked rows."""
    columns = [
        [v if ok else None
         for v, ok in zip(values[picks].tolist(), available[picks].tolist())]
        for values, available in aggregates.values()
    ]
    return [dict(zip(aggregates, row)) for row in zip(*columns)]


def compute_aggregates(schema: StrategySchema,
                       assignment: tuple[ContractRecord, ...],
                       config: RunConfig) -> dict[str, float | None]:
    """Strategy-level aggregates for one assignment: a one-row batch.

    None marks an unavailable aggregate; see aggregate_batch.
    """
    cols = [chain_mod.record_table([rec]) for rec in assignment]
    rows = np.zeros((1, len(assignment)), dtype=np.int32)
    return _aggregate_dicts(aggregate_batch(schema, cols, rows, config),
                            np.arange(1))[0]


def eval_strat_condition(cond: StratCondition, aggregates: dict,
                         config: RunConfig) -> bool:
    """One HAVING predicate on one row; an unavailable aggregate rejects."""
    value = aggregates.get(cond.field)
    return value is not None and bool(_test(cond, config)(value))


# ============================================================
# HAVING survivors, ranking and the pipeline
# ============================================================


@dataclass
class _Survivors:
    """The rows that passed HAVING, kept as columns."""

    records: tuple[ContractRecord, ...]  # the snapshot's records
    candidates: list[np.ndarray]  # sorted candidate table rows, in role order
    rows: np.ndarray              # (k, n_roles) int32 into `candidates`
    aggregates: dict              # field -> (values, available), (k,) each
    stats: ExecutionStats


def _survivor_rows(vq: ValidatedQuery, snapshot: ChainSnapshot,
                   config: RunConfig) -> _Survivors:
    """Filter, assemble, aggregate and apply HAVING, block by block."""
    candidates = filter_legs(vq, snapshot, config)
    rows, raw = assemble(vq, candidates, config)
    cols = [candidates[rid] for rid in vq.schema.role_ids]
    tests = [(c.field, _test(c, config)) for c in vq.strategy_conditions]
    kept_rows, kept = [], []
    for lo in range(0, max(len(rows), 1), _BLOCK):
        block = rows[lo:lo + _BLOCK]
        aggregates = aggregate_batch(vq.schema, cols, block, config)
        keep = np.ones(len(block), dtype=bool)
        for field, test in tests:
            values, available = aggregates[field]
            keep &= available & test(values)
        kept_rows.append(block[keep])
        kept.append({field: (values[keep], available[keep])
                     for field, (values, available) in aggregates.items()})
    passed = np.concatenate(kept_rows)
    stats = ExecutionStats(
        candidates={rid: len(candidates[rid]) for rid in vq.schema.role_ids},
        filtered=sum(len(col) for col in cols),
        raw_product=raw,
        assembled=len(rows),
        having_passed=len(passed),
        returned=0,
    )
    aggregates = {
        field: (np.concatenate([part[field][0] for part in kept]),
                np.concatenate([part[field][1] for part in kept]))
        for field in AGGREGATE_FIELDS
    }
    return _Survivors(snapshot.records, cols, passed, aggregates, stats)


def _instances(schema: StrategySchema, surv: _Survivors,
               picks: np.ndarray) -> list[StrategyInstance]:
    """StrategyInstance objects for the picked survivor rows, in pick order."""
    rows = surv.rows[picks]
    record_rows = np.stack([col["row"][rows[:, j]]
                            for j, col in enumerate(surv.candidates)], axis=1)
    out = []
    for row, agg in zip(record_rows.tolist(),
                        _aggregate_dicts(surv.aggregates, picks)):
        legs = tuple(
            StrategyLeg(role=role.id, record=surv.records[i],
                        direction=role.direction, quantity=role.quantity)
            for role, i in zip(schema.roles, row))
        out.append(StrategyInstance(strategy_type=schema.name, legs=legs,
                                    aggregates=agg))
    return out


def _ticker_ranks(surv: _Survivors) -> list[np.ndarray] | None:
    """Per-role ticker ranks of every survivor row, or None when some
    role's tickers differ in length.

    When each role's tickers share one length, comparing rows rank by rank
    orders them exactly as comparing their concatenated ticker strings.
    """
    if any(len(np.unique(col["ticker_len"])) > 1 for col in surv.candidates):
        return None
    return [col["ticker_rank"][surv.rows[:, j]]
            for j, col in enumerate(surv.candidates)]


def _top_rows(surv: _Survivors, order_by, limit: int | None) -> np.ndarray:
    """Ascending positions of the survivors that can rank within LIMIT.

    Rows are ranked by numeric sort keys, per ORDER BY item a missing flag
    and the signed value, as order_and_limit's key has them. With ticker
    ranks appended the stable lexsort is the full order and its first
    `limit` rows are the answer. Without them every row tied on the
    numeric keys with the limit-th row stays, for order_and_limit to
    break the ties on the ticker strings.
    """
    k = len(surv.rows)
    if limit is None or limit >= k:
        return np.arange(k)
    keys: list[np.ndarray] = []
    for item in order_by:
        values, available = surv.aggregates[item.field]
        keys.append(~available)
        signed = values if item.direction == "ASC" else -values
        keys.append(np.where(available, signed, 0.0))
    ranks = _ticker_ranks(surv)
    if ranks is not None:
        return np.sort(np.lexsort((keys + ranks)[::-1])[:limit])
    if not keys:
        return np.arange(k)
    pivot = np.lexsort(keys[::-1])[limit - 1]
    before = np.zeros(k, dtype=bool)
    tied = np.ones(k, dtype=bool)
    for key in keys:
        before |= tied & (key < key[pivot])
        tied &= key == key[pivot]
    return np.nonzero(before | tied)[0]


def order_and_limit(instances: list[StrategyInstance], order_by,
                    limit: int | None) -> list[StrategyInstance]:
    """Stable multi-key sort (default ASC), then LIMIT.

    Unavailable sort values go last regardless of direction; ties always
    break on concatenated leg tickers, so the order is total and
    independent of assembly order.
    """
    def key(inst: StrategyInstance):
        parts: list = []
        for item in order_by:
            value = inst.aggregates.get(item.field)
            if value is None:
                parts.extend((1, 0.0))
            else:
                parts.extend((0, value if item.direction == "ASC" else -value))
        parts.append(inst.ticker_key())
        return tuple(parts)

    ranked = sorted(instances, key=key)
    return ranked[:limit] if limit is not None else ranked


def survivors(vq: ValidatedQuery, snapshot: ChainSnapshot,
              config: RunConfig) -> tuple[list[StrategyInstance], ExecutionStats]:
    """Pipeline through HAVING (everything before ORDER BY / LIMIT)."""
    surv = _survivor_rows(vq, snapshot, config)
    return _instances(vq.schema, surv, np.arange(len(surv.rows))), surv.stats


def execute(query: str | QueryAst, snapshot: ChainSnapshot,
            config: RunConfig | None = None) -> ResultSet:
    """Run a query against a snapshot end to end.

    Only the rows that can reach the result become StrategyInstances.
    """
    config = config or RunConfig()
    ast = parse_text(query) if isinstance(query, str) else query
    vq = validate(ast, symmetric_wings=config.symmetric_wings)
    if ast.underlying != snapshot.underlying:
        raise UnderlyingMismatch(
            f"query is FROM {ast.underlying} but the snapshot holds "
            f"{snapshot.underlying}")
    snapshot = chain_mod.enrich(snapshot)
    surv = _survivor_rows(vq, snapshot, config)
    picks = _top_rows(surv, ast.order_by, ast.limit)
    ranked = order_and_limit(_instances(vq.schema, surv, picks),
                             ast.order_by, ast.limit)
    stats = surv.stats
    stats.returned = len(ranked)
    return ResultSet(query=vq, text=pretty_print(ast),
                     underlying=snapshot.underlying,
                     as_of=format_date(snapshot.as_of),
                     strategies=ranked, stats=stats)


# ============================================================
# Serialization
# ============================================================


def _aggregates_to_json(agg: dict[str, float | None]) -> dict:
    out: dict = {}
    for key in AGGREGATE_FIELDS:
        value = agg[key]
        if key in ("max_loss", "max_profit"):
            unbounded = value is not None and math.isinf(value)
            out[key] = None if (value is None or unbounded) else value
            out[f"{key}_unbounded"] = unbounded
        else:
            out[key] = value
    return out


def _instance_to_json(inst: StrategyInstance, mode: str) -> dict:
    if mode == "blueprint":
        details: dict = {}
        for leg in inst.legs:
            details[f"contract_ticker_{leg.role}"] = leg.record.ticker
            details[f"price_{leg.role}"] = leg.record.price
        return {"strategy_type": inst.strategy_type, "strategy_details": details}
    return {
        "strategy_type": inst.strategy_type,
        "legs": [
            {
                "role": leg.role,
                "ticker": leg.record.ticker,
                "direction": leg.direction,
                "quantity": leg.quantity,
                "strike": leg.record.strike,
                "expiry": format_date(leg.record.expiry),
                "price": leg.record.price,
                "iv": leg.record.iv,
            }
            for leg in inst.legs
        ],
        "aggregates": _aggregates_to_json(inst.aggregates),
    }


def result_to_json(result: ResultSet, config: RunConfig) -> dict:
    """JSON document for a result set (mode comes from the config)."""
    return {
        "query": result.text,
        "strategy_type": result.query.schema.name,
        "underlying": result.underlying,
        "as_of": result.as_of,
        "config": config.to_json_dict(),
        "stats": {
            "candidates": dict(result.stats.candidates),
            "filtered": result.stats.filtered,
            "raw_product": result.stats.raw_product,
            "assembled": result.stats.assembled,
            "having_passed": result.stats.having_passed,
            "returned": result.stats.returned,
        },
        "strategies": [
            _instance_to_json(inst, config.output_mode)
            for inst in result.strategies
        ],
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

"""Shared test utilities.

Independent oracles live here so the test modules can cross-check the
package against code that shares no logic with it:

* finite-difference Greeks (``fd_greeks``) with calibrated steps and
  per-Greek tolerances,
* a seeded random query/AST generator (``random_ast``,
  ``random_valid_query``) used by round-trip and engine tests,
* a brute-force query executor (``oracle_survivors``, ``oracle_order``)
  built on ``itertools.product`` plus plain-loop re-implementations of the
  filter, rule, aggregate, and ordering semantics,
* the scalar terminal payoff of ``Leg`` baskets (``leg_payoff``,
  ``strategy_payoff``), which ``payoff_at_knots`` must reproduce at every
  knot,
* the pricing pieces that ``src/`` no longer keeps: the normal CDF and
  density (``norm_cdf``, ``norm_pdf``) and the d+/d- pair
  (``d_plus_minus``), each checked against frozen 50-digit references,
  and the option price and Greeks as they compose them
  (``oracle_bsm_price``, ``oracle_greeks``), which the inline
  ``bsm_price`` and ``greeks`` must match to the bit, and the day-by-day,
  leg-by-leg marking loop built on the price (``oracle_mark_path``).

The lexer's oracle, a probe-by-probe scanner, is in ``lexer_oracle.py``,
which needs neither pytest nor numpy.

It also holds one-row and one-basket views of the batch kernels
(``basket_payoff``, ``row_aggregates``) for tests that check a single
structure by hand, and the per-instance view of a result: the engine keeps
a result only as columns, and ``result_instances`` builds one
``StrategyInstance`` per row, which ``instance_to_json`` and
``oracle_table`` render one at a time as the oracle of the column
renderers.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import functools
import io
import itertools
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from oql import engine, pricing
from oql.backtest import IV_POLICIES, PnLPath, Position, entry_cash_of
from oql.catalog import StrategySchema, ValidatedQuery, build_catalog
from oql.chain import (DAYS_PER_YEAR, ChainSnapshot, ContractRecord,
                       generate_synthetic, record_columns)
from oql.cli import main as cli_main
from oql.config import RunConfig
from oql.engine import ResultSet
from oql.errors import BacktestError, DomainError, MissingSpot
from oql.fields import AGGREGATE_FIELDS, LEG_FIELDS, MONEYNESS_VALUES
from oql.pricing import GreeksVector, MarketParams, bsm_price
from oql.syntax import LegCondition, OrderItem, QueryAst, StratCondition

AS_OF = dt.date(2025, 6, 2)

# ============================================================
# In-process command-line runner
# ============================================================


def run_cli(argv, stdin_text=None):
    """(exit_code, stdout, stderr) from an in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# ============================================================
# Finite-difference Greeks
# ============================================================

# Central differences with steps calibrated so the worst normalized error
# |analytic - fd| / (atol + rtol * |fd|) stays below ~0.7 over 10^4-draw
# sweeps (S, K in [1, 1000], r in [0, 0.1], sigma in [0.01, 2],
# tau in [0.01, 3]) on several seeds. The gamma step needs both a
# curvature-length scale (sigma * sqrt(tau)) and a roundoff floor: the
# second difference divides ~4 ulp of the price (magnitude ~S + K) by h^2.
GREEK_ATOL = {
    "delta": 1e-8,
    "gamma": 2e-6,
    "vega": 2e-6,
    "theta": 1e-7,
    "rho": 1e-7,
}
GREEK_RTOL = 1e-5


def draw_params(rng):
    """(spot, strike, rate, vol, tau) over the calibrated sweep ranges."""
    return (rng.uniform(1.0, 1000.0), rng.uniform(1.0, 1000.0),
            rng.uniform(0.0, 0.1), rng.uniform(0.01, 2.0),
            rng.uniform(0.01, 3.0))


def gamma_step(spot: float, strike: float, vol: float, tau: float) -> float:
    base = 1e-3 * spot * min(1.0, max(vol * math.sqrt(tau), 1e-3))
    floor = math.sqrt(8e6 * math.ulp(spot + strike))
    return max(base, floor)


def fd_greeks(m: MarketParams, strike: float, option_type: str) -> dict:
    """Central-difference sensitivities of bsm_price."""
    s, r, v, t = m.spot, m.rate, m.vol, m.tau

    def price(spot=s, rate=r, vol=v, tau=t):
        return bsm_price(MarketParams(spot, rate, vol, tau), strike, option_type)

    hs = 1e-5 * s
    hv = 1e-5 * v
    ht = 1e-5 * max(t, 1.0)
    hr = 1e-5 * max(abs(r), 1.0)
    hg = gamma_step(s, strike, v, t)
    return {
        "delta": (price(spot=s + hs) - price(spot=s - hs)) / (2 * hs),
        "gamma": (price(spot=s + hg) - 2 * price() + price(spot=s - hg)) / (hg * hg),
        "vega": (price(vol=v + hv) - price(vol=v - hv)) / (2 * hv),
        # theta is d/dt with t calendar time, i.e. -d/dtau
        "theta": (price(tau=t - ht) - price(tau=t + ht)) / (2 * ht),
        "rho": (price(rate=r + hr) - price(rate=r - hr)) / (2 * hr),
    }


# ============================================================
# The option price and Greeks, composed from their pieces
# ============================================================

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _refuse_strike(strike: float) -> None:
    if not 0.0 < strike < math.inf:
        rule = "> 0" if strike <= 0.0 else "finite"
        raise DomainError(f"strike must be {rule}, got {strike}")


def d_plus_minus(m: MarketParams, strike: float) -> tuple[float, float]:
    """The standard d+ / d- pair; requires vol > 0 and tau > 0."""
    _refuse_strike(strike)
    if m.tau == 0.0 or m.vol == 0.0:
        raise DomainError("d+/d- undefined at tau=0 or vol=0")
    sig_sqrt_tau = m.vol * math.sqrt(m.tau)
    d_plus = (math.log(m.spot / strike)
              + (m.rate + 0.5 * m.vol * m.vol) * m.tau) / sig_sqrt_tau
    return d_plus, d_plus - sig_sqrt_tau


def _refuse_option_type(option_type: str) -> None:
    if option_type not in ("call", "put"):
        raise DomainError(
            f"option_type must be 'call' or 'put', got {option_type!r}")


def oracle_bsm_price(m: MarketParams, strike: float, option_type: str) -> float:
    """bsm_price as d_plus_minus and norm_cdf compose it.

    bsm_price writes d+, d- and N(.) out inline; this composition of the
    pieces must give the very same double, and the same error.
    """
    _refuse_option_type(option_type)
    _refuse_strike(strike)
    if m.tau == 0.0:
        if option_type == "call":
            return max(m.spot - strike, 0.0)
        return max(strike - m.spot, 0.0)
    if m.vol == 0.0:
        discounted_strike = strike * math.exp(-m.rate * m.tau)
        if option_type == "call":
            return max(m.spot - discounted_strike, 0.0)
        return max(discounted_strike - m.spot, 0.0)
    d_plus, d_minus = d_plus_minus(m, strike)
    discounted_strike = strike * math.exp(-m.rate * m.tau)
    if option_type == "call":
        price = m.spot * norm_cdf(d_plus) - discounted_strike * norm_cdf(d_minus)
    else:
        price = discounted_strike * norm_cdf(-d_minus) - m.spot * norm_cdf(-d_plus)
    return 0.0 if price < 0.0 else price


def oracle_greeks(m: MarketParams, strike: float,
                  option_type: str) -> GreeksVector:
    """greeks as d_plus_minus, norm_cdf and norm_pdf compose them.

    greeks writes the pieces out inline; this composition must give the
    very same five doubles, and the same error.
    """
    _refuse_option_type(option_type)
    d_plus, d_minus = d_plus_minus(m, strike)
    sqrt_tau = math.sqrt(m.tau)
    pdf_d_plus = norm_pdf(d_plus)
    discounted_strike = strike * math.exp(-m.rate * m.tau)
    gamma = pdf_d_plus / (m.spot * m.vol * sqrt_tau)
    vega = m.spot * pdf_d_plus * sqrt_tau
    decay = -m.spot * pdf_d_plus * m.vol / (2.0 * sqrt_tau)
    if option_type == "call":
        delta = norm_cdf(d_plus)
        theta = decay - m.rate * discounted_strike * norm_cdf(d_minus)
        rho = strike * m.tau * math.exp(-m.rate * m.tau) * norm_cdf(d_minus)
    else:
        delta = norm_cdf(d_plus) - 1.0
        theta = decay + m.rate * discounted_strike * norm_cdf(-d_minus)
        rho = -strike * m.tau * math.exp(-m.rate * m.tau) * norm_cdf(-d_minus)
    return GreeksVector(delta=delta, gamma=gamma, vega=vega, theta=theta,
                        rho=rho)


# ============================================================
# Random query generation
# ============================================================

MANDATORY_KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "HAVING", "ORDER", "BY", "LIMIT", "AND",
    "BETWEEN",
})

_NUMERIC_LEG_FIELDS = tuple(f for f in LEG_FIELDS.values() if f != "Moneyness")
_CATALOG_NAMES = tuple(sorted(build_catalog()))


def random_number(rng: random.Random, *, lo: float = -1000.0,
                  hi: float = 1000.0) -> float:
    """A float that survives format_number -> parse_text -> float exactly."""
    if rng.random() < 0.4:
        return float(rng.randint(int(lo), int(hi)))
    # keep |x| >= 1e-4 (or exactly 0) so repr never uses exponent notation
    value = round(rng.uniform(lo, hi), rng.randint(1, 4))
    return value


_LEXER_KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "HAVING", "ORDER", "BY", "LIMIT",
    "ASC", "DESC", "BETWEEN",
})


def _random_word(rng: random.Random, min_len: int = 2, max_len: int = 6) -> str:
    while True:
        n = rng.randint(min_len, max_len)
        word = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
                       for _ in range(n))
        if word not in _LEXER_KEYWORDS:
            return word


def random_leg_condition(rng: random.Random, schema: StrategySchema | None,
                         *, valid_only: bool) -> LegCondition:
    if schema is not None and rng.random() < 0.7:
        role = rng.choice(schema.role_ids) if rng.random() < 0.7 else None
    elif valid_only:
        role = None
    else:
        role = _random_word(rng, 1, 3) if rng.random() < 0.5 else None
    if rng.random() < 0.15:
        return LegCondition(role=role, field="Moneyness",
                            op=rng.choice(("=", "!=")),
                            value=rng.choice(MONEYNESS_VALUES))
    return LegCondition(role=role, field=rng.choice(_NUMERIC_LEG_FIELDS),
                        op=rng.choice(("=", "!=", "<", ">", "<=", ">=", "~")),
                        value=random_number(rng))


def random_strat_condition(rng: random.Random) -> StratCondition:
    field = rng.choice(AGGREGATE_FIELDS)
    if rng.random() < 0.25:
        a, b = random_number(rng), random_number(rng)
        return StratCondition(field=field, op="BETWEEN",
                              lo=min(a, b), hi=max(a, b))
    return StratCondition(field=field,
                          op=rng.choice(("=", "!=", "<", ">", "<=", ">=", "~")),
                          value=random_number(rng))


def random_ast(rng: random.Random) -> QueryAst:
    """A syntactically canonical AST (not necessarily catalog-valid)."""
    if rng.random() < 0.85:
        strategy = rng.choice(_CATALOG_NAMES)
        schema = build_catalog()[strategy]
    else:
        strategy = _random_word(rng, 4, 10)
        schema = None
    where = tuple(random_leg_condition(rng, schema, valid_only=False)
                  for _ in range(rng.randint(0, 5)))
    having = tuple(random_strat_condition(rng)
                   for _ in range(rng.randint(0, 3)))
    order_by = tuple(
        OrderItem(field=rng.choice(AGGREGATE_FIELDS),
                  direction=rng.choice(("ASC", "DESC")))
        for _ in range(rng.randint(0, 3)))
    limit = rng.randint(1, 500) if rng.random() < 0.4 else None
    return QueryAst(strategy=strategy, underlying=_random_word(rng),
                    where=where, having=having, order_by=order_by, limit=limit)


def random_valid_query(rng: random.Random,
                       snapshot: ChainSnapshot) -> QueryAst:
    """A catalog-valid AST whose conditions reference the snapshot's scales."""
    strategy = rng.choice(_CATALOG_NAMES)
    schema = build_catalog()[strategy]
    dtes = sorted({rec.dte() for rec in snapshot.records})
    strikes = sorted({rec.strike for rec in snapshot.records})
    spot = snapshot.spot

    def leg_cond() -> LegCondition:
        role = rng.choice(schema.role_ids) if rng.random() < 0.5 else None
        pick = rng.random()
        if pick < 0.35:
            return LegCondition(role, "Dte", "~", float(rng.choice(dtes)))
        if pick < 0.5:
            op = rng.choice(("<", ">", "<=", ">="))
            return LegCondition(role, "Strike", op,
                                float(rng.choice(strikes)))
        if pick < 0.65:
            op = rng.choice(("<", ">"))
            return LegCondition(role, "Delta", op,
                                round(rng.uniform(-0.7, 0.7), 2))
        if pick < 0.75:
            return LegCondition(role, "Moneyness", rng.choice(("=", "!=")),
                                rng.choice(MONEYNESS_VALUES))
        if pick < 0.85:
            return LegCondition(role, "Volume", ">",
                                float(rng.randint(0, 1500)))
        return LegCondition(role, "Price", rng.choice(("<", ">")),
                            round(rng.uniform(0.05, 0.3) * spot, 2))

    def strat_cond() -> StratCondition:
        pick = rng.random()
        if pick < 0.2:
            return StratCondition("net_debit", "<",
                                  float(rng.randint(100, 5000)))
        if pick < 0.4:
            return StratCondition("net_credit", ">",
                                  float(rng.randint(0, 300)))
        if pick < 0.55:
            return StratCondition("net_theta", rng.choice(("<", ">")), 0.0)
        if pick < 0.7:
            return StratCondition("width", "BETWEEN", lo=0.0,
                                  hi=float(rng.randint(5, 60)))
        if pick < 0.85:
            return StratCondition("max_loss", "<",
                                  float(rng.randint(200, 5000)))
        return StratCondition("rr_ratio", ">", round(rng.uniform(0.0, 0.5), 2))

    where = tuple(leg_cond() for _ in range(rng.randint(0, 3)))
    having = tuple(strat_cond() for _ in range(rng.randint(0, 2)))
    order_by = tuple(
        OrderItem(field=rng.choice(AGGREGATE_FIELDS),
                  direction=rng.choice(("ASC", "DESC")))
        for _ in range(rng.randint(0, 2)))
    limit = rng.randint(1, 20) if rng.random() < 0.3 else None
    return QueryAst(strategy=strategy, underlying=snapshot.underlying,
                    where=where, having=having, order_by=order_by, limit=limit)


def distinct_prefix(ticker: str, length: int, taken: set[str]) -> str:
    """ticker cut to `length` characters, lengthened until no ticker in
    `taken` is the same; the result joins `taken`.

    Cut tickers of several lengths exercise the string tie-break, and a
    ticker names one contract, so two records may not share a cut.
    """
    while ticker[:length] in taken and length < len(ticker):
        length += 1
    taken.add(ticker[:length])
    return ticker[:length]


def random_snapshot(rng: random.Random) -> ChainSnapshot:
    """A small synthetic chain (at most ~28 contracts) for oracle sweeps."""
    spot = rng.choice((40.0, 80.0, 150.0, 300.0))
    n_strikes = rng.randint(4, 7)
    step = spot * rng.choice((0.02, 0.05))
    lo = spot - step * (n_strikes // 2)
    strikes = [round(lo + i * step, 2) for i in range(n_strikes)]
    n_exp = rng.randint(1, 2)
    dtes = sorted(rng.sample(range(10, 90), n_exp))
    return generate_synthetic(
        underlying="SYN", as_of=AS_OF, spot=spot,
        rate=round(rng.uniform(0.0, 0.08), 3),
        expiries=[AS_OF + dt.timedelta(days=d) for d in dtes],
        strikes=strikes,
        base_vol=round(rng.uniform(0.15, 0.8), 3),
        skew=round(rng.uniform(-0.3, 0.0), 3),
        term=round(rng.uniform(0.0, 0.15), 3),
        seed=rng.randrange(10 ** 6))


# ============================================================
# Brute-force execution oracle
# ============================================================


def oracle_moneyness(option_type: str, strike: float, spot: float,
                     atm_band: float) -> str:
    if abs(strike - spot) / spot <= atm_band:
        return "ATM"
    in_the_money = strike < spot if option_type == "call" else strike > spot
    return "ITM" if in_the_money else "OTM"


def _oracle_leg_value(rec: ContractRecord, field: str, spot: float,
                      config: RunConfig):
    if field == "Dte":
        return float((rec.expiry - rec.as_of).days)
    if field == "Moneyness":
        return oracle_moneyness(rec.option_type, rec.strike, spot,
                                config.atm_band)
    return getattr(rec, field.lower())


def _oracle_compare(value, op: str, target, epsilon: float,
                    epsilon_abs: float) -> bool:
    if isinstance(value, str):
        return value == target if op == "=" else value != target
    value = float(value)
    target = float(target)
    if op == "~":
        if target == 0.0:
            return abs(value) <= epsilon_abs
        return abs(value - target) <= epsilon * abs(target)
    return {
        "=": value == target,
        "!=": value != target,
        "<": value < target,
        ">": value > target,
        "<=": value <= target,
        ">=": value >= target,
    }[op]


def oracle_candidates(vq: ValidatedQuery, snapshot: ChainSnapshot,
                      config: RunConfig) -> dict[str, list[ContractRecord]]:
    out: dict[str, list[ContractRecord]] = {}
    for role in vq.schema.roles:
        kept = []
        for rec in snapshot.records:
            if role.option_type != "either" and rec.option_type != role.option_type:
                continue
            ok = True
            for cond in vq.per_role_conditions[role.id]:
                value = _oracle_leg_value(rec, cond.field, snapshot.spot, config)
                if value is None or not _oracle_compare(
                        value, cond.op, cond.value,
                        config.epsilon_for(cond.field), config.epsilon_abs):
                    ok = False
                    break
            if ok:
                kept.append(rec)
        kept.sort(key=lambda r: (r.expiry, r.strike, r.ticker))
        out[role.id] = kept
    return out


def _rules_hold(schema: StrategySchema,
                assignment: tuple[ContractRecord, ...]) -> bool:
    by_role = dict(zip(schema.role_ids, assignment))
    for rule in schema.rules:
        if rule.kind == "strike_order":
            strikes = [by_role[r].strike for r in rule.roles]
            if any(a >= b for a, b in zip(strikes, strikes[1:])):
                return False
        elif rule.kind == "strike_equal":
            strikes = {by_role[r].strike for r in rule.roles}
            if len(strikes) != 1:
                return False
        elif rule.kind == "expiry_equal":
            expiries = {by_role[r].expiry for r in rule.roles}
            if len(expiries) != 1:
                return False
        elif rule.kind == "expiry_order":
            expiries = [by_role[r].expiry for r in rule.roles]
            if any(a >= b for a, b in zip(expiries, expiries[1:])):
                return False
        else:  # symmetric_wings
            lo, body, hi = (by_role[r].strike for r in rule.roles)
            if body - lo != hi - body:
                return False
    return True


def leg_payoff(leg: Leg, terminal_spot: float) -> float:
    """Intrinsic value of one contract at expiry (premium ignored)."""
    if leg.option_type == "call":
        return max(terminal_spot - leg.strike, 0.0)
    return max(leg.strike - terminal_spot, 0.0)


def strategy_payoff(legs, terminal_spot: float) -> float:
    """Net terminal PnL per share: sum of q * d * (payoff - premium)."""
    total = 0.0
    for leg in legs:
        total += leg.quantity * leg.direction * (leg_payoff(leg, terminal_spot)
                                                - leg.premium)
    return total


def _oracle_payoff(leg_specs, s: float) -> float:
    total = 0.0
    for quantity, direction, option_type, strike, premium in leg_specs:
        if option_type == "call":
            intrinsic = max(s - strike, 0.0)
        else:
            intrinsic = max(strike - s, 0.0)
        total += quantity * direction * (intrinsic - premium)
    return total


def oracle_aggregates(schema: StrategySchema,
                      assignment: tuple[ContractRecord, ...],
                      config: RunConfig) -> dict:
    mult = config.multiplier
    leg_specs = [(role.quantity, role.direction, rec.option_type, rec.strike,
                  rec.price) for role, rec in zip(schema.roles, assignment)]

    agg: dict = {key: None for key in (
        "net_debit", "net_credit", "net_delta", "net_gamma", "net_vega",
        "net_theta", "max_loss", "max_profit", "rr_ratio", "width",
        "breakeven_low", "breakeven_high")}

    cash = sum(q * d * p for q, d, _, _, p in leg_specs) * mult
    if cash > 0.0:
        agg["net_debit"] = cash
    elif cash < 0.0:
        agg["net_credit"] = -cash
    else:
        agg["net_debit"] = 0.0

    for greek in ("delta", "gamma", "vega", "theta"):
        total = 0.0
        for role, rec in zip(schema.roles, assignment):
            value = getattr(rec, greek)
            if value is None:
                total = None
                break
            total += role.quantity * role.direction * value
        agg[f"net_{greek}"] = None if total is None else total * mult

    expiries = {rec.expiry for rec in assignment}
    if len(expiries) == 1:
        strikes = sorted({k for _, _, _, k, _ in leg_specs})
        knots = [0.0] + strikes
        values = [_oracle_payoff(leg_specs, s) for s in knots]
        # tail slope from two points beyond the last strike; it is an
        # integer, so rounding drops float noise (-1.8e-15 for a flat tail)
        p1 = _oracle_payoff(leg_specs, strikes[-1] + 1.0)
        p2 = _oracle_payoff(leg_specs, strikes[-1] + 2.0)
        slope = round(p2 - p1)
        agg["max_profit"] = (math.inf if slope > 0.0
                             else max(values) * mult)
        agg["max_loss"] = (math.inf if slope < 0.0
                           else -min(values) * mult)
        roots = []
        for i in range(len(knots) - 1):
            x0, x1 = knots[i], knots[i + 1]
            v0, v1 = values[i], values[i + 1]
            if v0 == 0.0:
                roots.append(x0)
            if (v0 > 0.0 > v1) or (v0 < 0.0 < v1):
                roots.append(x0 + (x1 - x0) * v0 / (v0 - v1))
        if values[-1] == 0.0:
            roots.append(knots[-1])
        if slope != 0.0 and values[-1] != 0.0 and (values[-1] > 0.0) != (slope > 0.0):
            roots.append(knots[-1] - values[-1] / slope)
        if roots:
            agg["breakeven_low"] = min(roots)
            agg["breakeven_high"] = max(roots)
    elif cash > 0.0:
        agg["max_loss"] = cash

    mp, ml = agg["max_profit"], agg["max_loss"]
    if (mp is not None and ml is not None and math.isfinite(mp)
            and math.isfinite(ml) and ml > 0.0):
        agg["rr_ratio"] = mp / ml

    strikes = [rec.strike for rec in assignment]
    agg["width"] = max(strikes) - min(strikes)
    return agg


def _oracle_having(cond: StratCondition, agg: dict, config: RunConfig) -> bool:
    value = agg.get(cond.field)
    if value is None:
        return False
    if cond.op == "BETWEEN":
        return cond.lo <= value <= cond.hi
    return _oracle_compare(value, cond.op, cond.value,
                           config.epsilon_for(cond.field), config.epsilon_abs)


def oracle_survivors(vq: ValidatedQuery, snapshot: ChainSnapshot,
                     config: RunConfig):
    """(survivor list, stats dict) by exhaustive Cartesian product.

    Each survivor is (ticker_tuple, aggregates) with tickers in schema role
    order. Raises ValueError when the raw product exceeds the budget so the
    caller can assert the engine raised too.
    """
    candidates = oracle_candidates(vq, snapshot, config)
    lists = [candidates[rid] for rid in vq.schema.role_ids]
    raw = math.prod(len(lst) for lst in lists)
    if raw > config.combinatorial_cap:
        raise ValueError(f"raw product {raw} over budget")
    survivors = []
    assembled = 0
    for combo in itertools.product(*lists):
        tickers = tuple(rec.ticker for rec in combo)
        if len(set(tickers)) != len(tickers):
            continue
        if not _rules_hold(vq.schema, combo):
            continue
        assembled += 1
        agg = oracle_aggregates(vq.schema, combo, config)
        if all(_oracle_having(c, agg, config) for c in vq.strategy_conditions):
            survivors.append((tickers, agg))
    stats = {
        "candidates": {rid: len(candidates[rid]) for rid in vq.schema.role_ids},
        "raw_product": raw,
        "assembled": assembled,
        "having_passed": len(survivors),
    }
    return survivors, stats


def oracle_order(rows, order_by, limit):
    """Sort (ticker_tuple, aggregates) rows the way ORDER BY must.

    Implemented as a pairwise comparator: per item missing values sort
    last, DESC flips the comparison, and full ties fall back to the
    concatenated tickers ascending.
    """
    def compare(a, b):
        for item in order_by:
            va, vb = a[1].get(item.field), b[1].get(item.field)
            if va is None and vb is None:
                continue
            if va is None:
                return 1
            if vb is None:
                return -1
            if va != vb:
                less = -1 if va < vb else 1
                return less if item.direction == "ASC" else -less
        ka, kb = "".join(a[0]), "".join(b[0])
        if ka == kb:
            return 0
        return -1 if ka < kb else 1

    ranked = sorted(rows, key=functools.cmp_to_key(compare))
    return ranked[:limit] if limit is not None else ranked


# ============================================================
# One basket, one row: the batch kernels on a single structure
# ============================================================


@dataclass(frozen=True)
class Leg:
    """One option leg of a payoff basket."""

    direction: int       # +1 long, -1 short
    option_type: str     # "call" | "put"
    strike: float
    quantity: int
    premium: float       # per-share price paid/received at entry


@dataclass(frozen=True)
class BasketPayoff:
    """Terminal payoff extremes and breakevens of one basket.

    Unbounded sides are +inf with the bounded flag False; breakevens is
    (None, None) when the payoff never touches zero.
    """

    max_profit: float
    max_loss: float
    profit_bounded: bool
    loss_bounded: bool
    breakevens: tuple[float | None, float | None]


def basket_payoff(legs) -> BasketPayoff:
    """pricing.payoff_extremes and pricing.breakevens of one basket."""
    qd = [leg.quantity * leg.direction for leg in legs]
    is_call = [leg.option_type == "call" for leg in legs]
    strike = np.array([[leg.strike] for leg in legs], dtype=float)
    premium = np.array([[leg.premium] for leg in legs], dtype=float)
    knots, values, slope = pricing.payoff_at_knots(qd, is_call, strike, premium)
    max_profit, max_loss = pricing.payoff_extremes(values, slope)
    low, high, found = pricing.breakevens(knots, values, slope)
    return BasketPayoff(
        max_profit=float(max_profit[0]), max_loss=float(max_loss[0]),
        profit_bounded=bool(slope[0] <= 0.0), loss_bounded=bool(slope[0] >= 0.0),
        breakevens=(float(low[0]), float(high[0])) if found[0] else (None, None))


def row_aggregates(schema: StrategySchema,
                   assignment: tuple[ContractRecord, ...],
                   config: RunConfig) -> dict[str, float | None]:
    """engine.compute_aggregates on one assignment; None where unavailable."""
    columns = record_columns(assignment)
    # role j's contract is assignment[j], which sits in row argsort(record)[j]
    rows = np.argsort(columns["record"]).astype(np.int32)[None, :]
    return {field: float(values[0]) if available[0] else None
            for field, (values, available)
            in engine.compute_aggregates(schema, columns, rows, config).items()}


# ============================================================
# Per-instance oracle: one object per strategy, rendered one at a time
# ============================================================


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


def result_instances(result: ResultSet) -> list[StrategyInstance]:
    """Every row of a result as a StrategyInstance with all twelve
    aggregates (None where unavailable), in row order."""
    schema = result.query.schema
    columns = [[v if ok else None
                for v, ok in zip(values.tolist(), available.tolist())]
               for values, available in result.aggregates.values()]
    out = []
    for row, agg in zip(result.rows.tolist(), zip(*columns)):
        legs = tuple(
            StrategyLeg(role=role.id, record=result.snapshot.records[i],
                        direction=role.direction, quantity=role.quantity)
            for role, i in zip(schema.roles, row))
        out.append(StrategyInstance(strategy_type=schema.name, legs=legs,
                                    aggregates=dict(zip(AGGREGATE_FIELDS, agg))))
    return out


def aggregates_to_json(agg: dict[str, float | None]) -> dict:
    """One instance's aggregates as the results document writes them."""
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


def instance_to_json(inst: StrategyInstance, mode: str) -> dict:
    """One StrategyInstance as a results document's strategy object, which
    engine.result_to_json renders from columns instead."""
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
                "expiry": leg.record.expiry.isoformat(),
                "price": leg.record.price,
                "iv": leg.record.iv,
            }
            for leg in inst.legs
        ],
        "aggregates": aggregates_to_json(inst.aggregates),
    }


def oracle_table(result: ResultSet) -> str:
    """engine.result_to_table, one StrategyInstance at a time."""
    strategies = result_instances(result)
    header = (f"{result.query.schema.name} on {result.snapshot.underlying} "
              f"as of {result.snapshot.as_of}: {len(strategies)} result(s)")
    lines = [header]
    for rank, inst in enumerate(strategies, start=1):
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


# ============================================================
# Backtest cohort hand fixture
# ============================================================

def pnl_path(label: str, entry_cash: float, *pnl: float) -> PnLPath:
    dates = tuple(AS_OF + dt.timedelta(days=i) for i in range(len(pnl)))
    return PnLPath(label=label, dates=dates, pnl=tuple(pnl),
                   entry_cash=entry_cash)


def backtest_hand_fixture() -> list[PnLPath]:
    """20 paths with hand-computed cohort metrics.

    12 buyer paths (one zero-cost) and 8 seller paths; the sign of
    entry_cash picks the side. Worked out by hand: WR 12/20 (buyer 8/12,
    seller 4/8), RE50 9/20, RE90 4/20 with the drawdown boundary counted
    as a breach, mean profit -247/20, and mean ROC 1.125/19 over the 19
    costed paths.
    """
    return [
        pnl_path("s01", 100.0, 0.0, -20.0, 50.0),
        pnl_path("s02", 100.0, 0.0, -50.0, 30.0),     # re50 at the boundary
        pnl_path("s03", 100.0, 0.0, -90.0, 10.0),     # re90 at the boundary
        pnl_path("s04", 100.0, 0.0, -100.0, -100.0),
        pnl_path("s05", 200.0, 0.0, -30.0, 100.0),
        pnl_path("s06", 200.0, 0.0, -120.0, 60.0),
        pnl_path("s07", 200.0, 0.0, -49.99, 20.0),
        pnl_path("s08", 100.0, 0.0, -49.99, -10.0),   # just inside: no breach
        pnl_path("s09", 100.0, 0.0, -10.0, -5.0),
        pnl_path("s10", 400.0, 0.0, -200.0, -150.0),
        pnl_path("s11", 100.0, 0.0, 10.0, 40.0),
        pnl_path("s12", 0.0, 5.0, 8.0, 8.0),          # zero-cost
        pnl_path("s13", -100.0, 0.0, 20.0, 80.0),
        pnl_path("s14", -100.0, 0.0, -50.0, 60.0),
        pnl_path("s15", -100.0, 0.0, -95.0, 30.0),
        pnl_path("s16", -100.0, 0.0, -60.0, -40.0),
        pnl_path("s17", -400.0, 0.0, -150.0, -100.0),
        pnl_path("s18", -400.0, 0.0, -360.0, -360.0),
        pnl_path("s19", -100.0, 0.0, -10.0, 50.0),
        pnl_path("s20", -100.0, 0.0, 0.0, -20.0),
    ]


def oracle_mark_path(position: Position, spots: dict, entry: dt.date,
                     exit: dt.date, config: RunConfig | None = None,
                     iv_policy: str = "sticky_entry",
                     snapshots: dict | None = None) -> PnLPath:
    """mark_path day by day and leg by leg, each leg's tau, q * d and iv
    read afresh every day and priced with oracle_bsm_price; a snapshot's
    iv is the first record of the contract that carries one."""
    config = config or RunConfig()
    if iv_policy not in IV_POLICIES:
        raise BacktestError(f"iv_policy must be one of {IV_POLICIES}, got {iv_policy!r}")
    if iv_policy == "snapshot" and snapshots is None:
        raise BacktestError("snapshot iv policy needs a per-date snapshot map")
    if not position.legs:
        raise BacktestError(f"{position.label}: empty position")
    effective_exit = min([exit] + [leg.expiry for leg in position.legs])
    if entry > effective_exit:
        raise BacktestError(
            f"{position.label}: entry {entry} is after effective exit "
            f"{effective_exit}")
    dates, pnl = [], []
    day = entry
    while day <= effective_exit:
        if day not in spots:
            raise MissingSpot(f"no spot for {day}")
        total = 0.0
        for leg in position.legs:
            if iv_policy == "sticky_entry":
                iv = leg.entry_iv
            else:
                if day not in snapshots:
                    raise MissingSpot(f"no snapshot for {day}")
                snapshot = snapshots[day]
                iv = next((rec.iv for rec in snapshot.records
                           if rec.iv is not None and rec.expiry == leg.expiry
                           and rec.option_type == leg.option_type
                           and rec.strike == leg.strike), None)
                if iv is None:
                    raise BacktestError(
                        f"no iv for {leg.option_type} K={leg.strike:g} "
                        f"{leg.expiry} in the {snapshot.as_of} snapshot")
            tau = (leg.expiry - day).days / DAYS_PER_YEAR
            value = oracle_bsm_price(MarketParams(spots[day], config.rate, iv, tau),
                                     leg.strike, leg.option_type)
            total += leg.quantity * leg.direction * (value - leg.entry_price)
        dates.append(day)
        pnl.append(total * config.multiplier)
        day += dt.timedelta(days=1)
    return PnLPath(label=position.label, dates=tuple(dates), pnl=tuple(pnl),
                   entry_cash=entry_cash_of(position, config.multiplier))


# ============================================================
# Misc
# ============================================================


def approx_equal(a, b, tol: float = 1e-9) -> bool:
    """Equality for aggregate values: None/None, inf/inf, or close floats."""
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def aggregates_equal(a: dict, b: dict, tol: float = 1e-9) -> bool:
    keys = set(a) | set(b)
    return all(approx_equal(a.get(k), b.get(k), tol) for k in keys)


def business_dates(start: dt.date, count: int) -> list[dt.date]:
    """`count` consecutive calendar dates from start (weekends included)."""
    return [start + dt.timedelta(days=i) for i in range(count)]

"""European option pricing under Black-Scholes-Merton, plus payoff algebra.

Conventions used throughout the package:
  - tau is time to expiry in years (calendar days / 365)
  - vol is annualized; theta is per year and negative for long options
  - vega is per unit of vol (a 1.00 move, not 1%)
  - at vol=0 with tau>0, prices collapse to discounted-forward intrinsic
    max(s*S - s*K*exp(-r*tau), 0), which preserves put-call parity
  - at tau=0, prices are raw intrinsic and Greeks are undefined (DomainError)

The normal CDF is evaluated through the C library's erfc:
N(x) = erfc(-x/sqrt(2))/2, accurate to ~1e-16 absolute over the real line.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, MultiExpiryUnsupported, NoSolution, NonConvergence

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

IV_BRACKET = (1e-6, 10.0)
IV_RESIDUAL_TOL = 1e-10


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _check_option_type(option_type: str) -> None:
    if option_type not in ("call", "put"):
        raise DomainError(f"option_type must be 'call' or 'put', got {option_type!r}")


@dataclass(frozen=True)
class MarketParams:
    """Scalar market state for one pricing call."""

    spot: float
    rate: float
    vol: float
    tau: float

    def __post_init__(self):
        if not (self.spot > 0.0):
            raise DomainError(f"spot must be > 0, got {self.spot}")
        if self.vol < 0.0:
            raise DomainError(f"vol must be >= 0, got {self.vol}")
        if self.tau < 0.0:
            raise DomainError(f"tau must be >= 0, got {self.tau}")
        if not math.isfinite(self.rate):
            raise DomainError(f"rate must be finite, got {self.rate}")


def d_plus_minus(m: MarketParams, strike: float) -> tuple[float, float]:
    """The standard d+ / d- pair; requires vol > 0 and tau > 0."""
    if strike <= 0.0:
        raise DomainError(f"strike must be > 0, got {strike}")
    if m.tau == 0.0 or m.vol == 0.0:
        raise DomainError("d+/d- undefined at tau=0 or vol=0")
    sig_sqrt_tau = m.vol * math.sqrt(m.tau)
    d_plus = (math.log(m.spot / strike)
              + (m.rate + 0.5 * m.vol * m.vol) * m.tau) / sig_sqrt_tau
    return d_plus, d_plus - sig_sqrt_tau


def bsm_price(m: MarketParams, strike: float, option_type: str) -> float:
    """European option value; total (degenerate branches included)."""
    _check_option_type(option_type)
    if strike <= 0.0:
        raise DomainError(f"strike must be > 0, got {strike}")
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
        return m.spot * norm_cdf(d_plus) - discounted_strike * norm_cdf(d_minus)
    return discounted_strike * norm_cdf(-d_minus) - m.spot * norm_cdf(-d_plus)


@dataclass(frozen=True)
class GreeksVector:
    delta: float
    gamma: float
    vega: float
    theta: float
    rho: float


def greeks(m: MarketParams, strike: float, option_type: str) -> GreeksVector:
    """Closed-form sensitivities; requires vol > 0 and tau > 0."""
    _check_option_type(option_type)
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
    return GreeksVector(delta=delta, gamma=gamma, vega=vega, theta=theta, rho=rho)


def implied_vol(spot: float, rate: float, tau: float, strike: float,
                option_type: str, observed_price: float, *,
                bracket: tuple[float, float] = IV_BRACKET,
                residual_tol: float = IV_RESIDUAL_TOL,
                on_low_bound: str = "raise") -> float:
    """Invert bsm_price for vol inside `bracket`.

    The observed price is first checked against the no-arbitrage envelope
    attainable inside the bracket; prices below the vol->0 limit raise
    NoSolution (or return the bracket floor when on_low_bound="clip"),
    prices above the vol->bracket-top value raise NoSolution. The root is
    then bracketed with Brent's method and verified to reprice within
    `residual_tol`, else NonConvergence.
    """
    _check_option_type(option_type)
    if tau <= 0.0:
        raise DomainError("implied vol undefined at tau <= 0")
    if observed_price < 0.0:
        raise NoSolution(f"negative option price {observed_price}")
    if on_low_bound not in ("raise", "clip"):
        raise ValueError(f"on_low_bound must be 'raise' or 'clip', got {on_low_bound!r}")
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError(f"bad vol bracket {bracket}")

    def price_at(vol: float) -> float:
        return bsm_price(MarketParams(spot, rate, vol, tau), strike, option_type)

    price_lo = price_at(lo)
    price_hi = price_at(hi)
    if observed_price < price_lo:
        if on_low_bound == "clip":
            return lo
        raise NoSolution(
            f"price {observed_price} below the vol->0 bound {price_lo:.10g}")
    if observed_price > price_hi:
        raise NoSolution(
            f"price {observed_price} above the bound {price_hi:.10g} at vol={hi}")
    if observed_price == price_lo:
        return lo
    if observed_price == price_hi:
        return hi

    root = brentq(lambda v: price_at(v) - observed_price, lo, hi,
                  xtol=1e-14, rtol=8.882e-16, maxiter=200)
    residual = abs(price_at(root) - observed_price)
    if residual > residual_tol:
        raise NonConvergence(
            f"residual {residual:.3e} exceeds {residual_tol:.1e} at vol={root:.10g}")
    return float(root)


# ============================================================
# Terminal payoff algebra
# ============================================================


@dataclass(frozen=True)
class Leg:
    """One executed option leg for payoff purposes."""

    direction: int       # +1 long, -1 short
    option_type: str     # "call" | "put"
    strike: float
    expiry_tau: float    # years to expiry at entry
    quantity: int
    premium: float       # per-share price paid/received at entry

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")
        _check_option_type(self.option_type)
        if self.strike <= 0.0:
            raise ValueError(f"strike must be > 0, got {self.strike}")
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")


def leg_payoff(leg: Leg, terminal_spot: float) -> float:
    """Intrinsic value of one contract at expiry (premium ignored)."""
    if leg.option_type == "call":
        return max(terminal_spot - leg.strike, 0.0)
    return max(leg.strike - terminal_spot, 0.0)


def strategy_payoff(legs: list[Leg] | tuple[Leg, ...], terminal_spot: float) -> float:
    """Net terminal PnL per share: sum of q * d * (payoff - premium)."""
    total = 0.0
    for leg in legs:
        total += leg.quantity * leg.direction * (leg_payoff(leg, terminal_spot)
                                                - leg.premium)
    return total


def _require_single_expiry(legs) -> None:
    if not legs:
        raise ValueError("payoff analysis needs at least one leg")
    taus = {leg.expiry_tau for leg in legs}
    if len(taus) > 1:
        raise MultiExpiryUnsupported(
            f"legs span {len(taus)} expiries; terminal payoff is undefined")


# ============================================================
# Payoff analysis over many baskets at once
# ============================================================
#
# One basket per column: qd[j] is quantity * direction of leg j, and the
# leg-major (n_legs, m) arrays give each basket's leg types, strikes and
# premiums. The payoff is linear between the knots {0} + strikes and
# linear with the tail slope beyond the last strike, so one
# payoff-at-knots matrix answers both the extremes and the breakevens. A
# knot repeated in a basket (two legs at one strike) changes neither: it
# only repeats a value.


def _sorted_rows(rows: list) -> list:
    """Each column of the stacked rows in ascending order (odd-even
    transposition network; min and max move values without rounding)."""
    rows = list(rows)
    for sweep in range(len(rows)):
        for i in range(sweep % 2, len(rows) - 1, 2):
            rows[i], rows[i + 1] = (np.minimum(rows[i], rows[i + 1]),
                                    np.maximum(rows[i], rows[i + 1]))
    return rows


def payoff_at_knots(qd, is_call, strike, premium):
    """(knots, values, slope) for every basket.

    knots is (n_legs + 1, m): 0 then the basket's strikes ascending.
    values holds the net terminal PnL per share at each knot, summed leg
    by leg in leg order exactly as strategy_payoff sums it. slope is the
    payoff slope as spot -> +inf: the sum of qd over call legs.
    """
    n, m = strike.shape
    knots = np.stack([np.zeros(m)] + _sorted_rows(strike))
    values = np.zeros_like(knots)
    slope = np.zeros(m)
    for j in range(n):
        k, call = strike[j], is_call[j]
        if call.all():
            intrinsic = np.maximum(knots - k, 0.0)
        elif not call.any():
            intrinsic = np.maximum(k - knots, 0.0)
        else:
            intrinsic = np.where(call, np.maximum(knots - k, 0.0),
                                 np.maximum(k - knots, 0.0))
        values = values + qd[j] * (intrinsic - premium[j])
        slope = slope + np.where(call, float(qd[j]), 0.0)
    return knots, values, slope


def extremes_from_knots(values, slope):
    """(max_profit, max_loss) per share; an unbounded side is +inf."""
    max_profit = np.where(slope <= 0.0, values.max(axis=0), math.inf)
    max_loss = np.where(slope >= 0.0, -values.min(axis=0), math.inf)
    return max_profit, max_loss


def breakevens_from_knots(knots, values, slope):
    """(low, high, found): lowest and highest zero crossings per basket.

    found is False where the payoff never touches zero; low and high hold
    0.0 there. A crossing is a knot where the payoff is 0, a sign change
    between neighbouring knots, or the tail reaching zero past the last
    strike.
    """
    a, b = knots[:-1], knots[1:]
    va, vb = values[:-1], values[1:]
    change = ((va > 0.0) & (vb < 0.0)) | ((va < 0.0) & (vb > 0.0))
    interp = a + np.divide((b - a) * va, va - vb, out=np.zeros_like(va),
                           where=change)
    last_k, last_v = knots[-1], values[-1]
    tail = (slope != 0.0) & ((last_v > 0.0) != (slope > 0.0)) & (last_v != 0.0)
    tail_x = last_k - np.divide(last_v, slope, out=np.zeros_like(last_v),
                                where=tail)
    points = np.concatenate((a, interp, [last_k, tail_x]))
    present = np.concatenate((va == 0.0, change, [last_v == 0.0, tail]))
    found = present.any(axis=0)
    low = np.where(present, points, math.inf).min(axis=0)
    high = np.where(present, points, -math.inf).max(axis=0)
    return np.where(found, low, 0.0), np.where(found, high, 0.0), found


def _leg_knots(legs):
    """payoff_at_knots for one basket of Leg objects."""
    _require_single_expiry(legs)
    qd = [leg.quantity * leg.direction for leg in legs]
    is_call = np.array([[leg.option_type == "call"] for leg in legs])
    strike = np.array([[leg.strike] for leg in legs], dtype=float)
    premium = np.array([[leg.premium] for leg in legs], dtype=float)
    return payoff_at_knots(qd, is_call, strike, premium)


@dataclass(frozen=True)
class PayoffExtremes:
    """Extremes of the terminal payoff over spot in [0, inf).

    max_loss is -min(payoff): a positive magnitude whenever the structure
    can lose money. Unbounded sides are +inf with the bounded flag False.
    """

    max_profit: float
    max_loss: float
    profit_bounded: bool
    loss_bounded: bool


def payoff_extremes(legs: list[Leg] | tuple[Leg, ...]) -> PayoffExtremes:
    """Exact extremes of the piecewise-linear terminal payoff.

    Extremes occur at a knot unless the tail slope makes a side unbounded.
    Multi-expiry structures raise MultiExpiryUnsupported.
    """
    _, values, slope = _leg_knots(legs)
    max_profit, max_loss = extremes_from_knots(values, slope)
    return PayoffExtremes(max_profit=float(max_profit[0]),
                          max_loss=float(max_loss[0]),
                          profit_bounded=bool(slope[0] <= 0.0),
                          loss_bounded=bool(slope[0] >= 0.0))


def breakevens(legs: list[Leg] | tuple[Leg, ...]) -> tuple[float | None, float | None]:
    """Lowest and highest zero crossings of the terminal payoff.

    Returns (None, None) when the payoff never touches zero; with a single
    crossing both entries are that point. Multi-expiry raises.
    """
    low, high, found = breakevens_from_knots(*_leg_knots(legs))
    if not found[0]:
        return None, None
    return float(low[0]), float(high[0])

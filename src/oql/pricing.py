"""European option pricing under Black-Scholes-Merton, plus payoff algebra.

Conventions used throughout the package:
  - tau is time to expiry in years (calendar days / 365)
  - vol is annualized; theta is per year and negative for long options
  - vega is per unit of vol (a 1.00 move, not 1%)
  - at vol=0 with tau>0, prices collapse to discounted-forward intrinsic
    max(s*S - s*K*exp(-r*tau), 0), which preserves put-call parity
  - at tau=0, prices are raw intrinsic and Greeks are undefined (DomainError)

bsm_price and greeks write d+, d-, N(.) and the normal density out inline,
each product grouped as the composed oracle in tests/helpers.py groups it,
so every value is the very double that composition gives. N(x) is
erfc(-x/sqrt(2))/2 through the C library's erfc, accurate to ~1e-16
absolute over the real line, and N(-x) is erfc(x/sqrt(2))/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoSolution, NonConvergence

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INF = math.inf

IV_BRACKET = (1e-6, 10.0)
IV_RESIDUAL_TOL = 1e-10


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
        # one chained test per construction; _refusal names the broken rule
        if not (0.0 < self.spot < _INF and 0.0 <= self.vol < _INF
                and 0.0 <= self.tau < _INF and -_INF < self.rate < _INF):
            raise self._refusal()

    def _refusal(self) -> DomainError:
        """The first rule broken: spot > 0, vol >= 0, tau >= 0 and rate
        finite in that order, then spot, vol and tau finite."""
        if not self.spot > 0.0:
            return DomainError(f"spot must be > 0, got {self.spot}")
        if self.vol < 0.0:
            return DomainError(f"vol must be >= 0, got {self.vol}")
        if self.tau < 0.0:
            return DomainError(f"tau must be >= 0, got {self.tau}")
        if not -_INF < self.rate < _INF:
            return DomainError(f"rate must be finite, got {self.rate}")
        name, value = next((name, value) for name, value in (
            ("spot", self.spot), ("vol", self.vol), ("tau", self.tau))
            if not value < _INF)
        return DomainError(f"{name} must be finite, got {value}")


def _strike_refusal(strike: float) -> DomainError:
    rule = "> 0" if strike <= 0.0 else "finite"
    return DomainError(f"strike must be {rule}, got {strike}")


def _range_refusal(what: str, m: MarketParams, strike: float) -> DomainError:
    return DomainError(f"{what} leaves the float range at spot={m.spot}, "
                       f"strike={strike}, rate={m.rate}, vol={m.vol}, "
                       f"tau={m.tau}")


def bsm_price(m: MarketParams, strike: float, option_type: str) -> float:
    """European option value; total (degenerate branches included)."""
    is_call = option_type == "call"
    if not (is_call or option_type == "put"):
        _check_option_type(option_type)  # raises
    if not 0.0 < strike < _INF:
        raise _strike_refusal(strike)
    spot, rate, vol, tau = m.spot, m.rate, m.vol, m.tau
    if tau == 0.0:
        if is_call:
            return max(spot - strike, 0.0)
        return max(strike - spot, 0.0)
    try:
        discounted_strike = strike * math.exp(-rate * tau)
    except OverflowError:
        discounted_strike = _INF
    if discounted_strike == _INF:
        raise _range_refusal("strike * exp(-rate * tau)", m, strike)
    if vol == 0.0:
        if is_call:
            return max(spot - discounted_strike, 0.0)
        return max(discounted_strike - spot, 0.0)
    sig_sqrt_tau = vol * math.sqrt(tau)
    if sig_sqrt_tau == _INF:
        raise _range_refusal("vol * sqrt(tau)", m, strike)
    try:
        d_plus = (math.log(spot / strike)
                  + (rate + 0.5 * vol * vol) * tau) / sig_sqrt_tau
    except (ValueError, ZeroDivisionError):  # an operand underflowed to 0
        raise _range_refusal("vol * sqrt(tau)" if sig_sqrt_tau == 0.0
                             else "spot / strike", m, strike) from None
    d_minus = d_plus - sig_sqrt_tau
    if is_call:
        price = (spot * (0.5 * math.erfc(-d_plus / _SQRT2))
                 - discounted_strike * (0.5 * math.erfc(-d_minus / _SQRT2)))
    else:
        price = (discounted_strike * (0.5 * math.erfc(d_minus / _SQRT2))
                 - spot * (0.5 * math.erfc(d_plus / _SQRT2)))
    # far from the money the difference can cancel to a tiny negative
    return 0.0 if price < 0.0 else price


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
    if not 0.0 < strike < _INF:
        raise _strike_refusal(strike)
    spot, rate, vol, tau = m.spot, m.rate, m.vol, m.tau
    if tau == 0.0 or vol == 0.0:
        raise DomainError("d+/d- undefined at tau=0 or vol=0")
    try:
        discount = math.exp(-rate * tau)
    except OverflowError:
        discount = _INF
    discounted_strike = strike * discount
    if discounted_strike == _INF:
        raise _range_refusal("strike * exp(-rate * tau)", m, strike)
    sqrt_tau = math.sqrt(tau)
    sig_sqrt_tau = vol * sqrt_tau
    if sig_sqrt_tau == _INF:
        raise _range_refusal("vol * sqrt(tau)", m, strike)
    try:
        d_plus = (math.log(spot / strike)
                  + (rate + 0.5 * vol * vol) * tau) / sig_sqrt_tau
    except (ValueError, ZeroDivisionError):  # an operand underflowed to 0
        raise _range_refusal("vol * sqrt(tau)" if sig_sqrt_tau == 0.0
                             else "spot / strike", m, strike) from None
    d_minus = d_plus - sig_sqrt_tau
    pdf_d_plus = _INV_SQRT_2PI * math.exp(-0.5 * d_plus * d_plus)
    try:
        gamma = pdf_d_plus / (spot * vol * sqrt_tau)
    except ZeroDivisionError:  # spot * vol * sqrt(tau) underflows to 0
        gamma = _INF
    vega = spot * pdf_d_plus * sqrt_tau
    decay = -spot * pdf_d_plus * vol / (2.0 * sqrt_tau)
    delta = 0.5 * math.erfc(-d_plus / _SQRT2)
    if option_type == "call":
        n_minus = 0.5 * math.erfc(-d_minus / _SQRT2)
        theta = decay - rate * discounted_strike * n_minus
        rho = strike * tau * discount * n_minus
    else:
        n_minus = 0.5 * math.erfc(d_minus / _SQRT2)
        delta -= 1.0
        theta = decay + rate * discounted_strike * n_minus
        rho = -strike * tau * discount * n_minus
    for name, value in (("gamma", gamma), ("vega", vega), ("theta", theta),
                        ("rho", rho)):
        if not -_INF < value < _INF:
            raise _range_refusal(name, m, strike)
    return GreeksVector(delta=delta, gamma=gamma, vega=vega, theta=theta, rho=rho)


def implied_vol(spot: float, rate: float, tau: float, strike: float,
                option_type: str, observed_price: float) -> float:
    """Invert bsm_price for vol inside IV_BRACKET.

    The observed price is first checked against the no-arbitrage envelope
    attainable inside the bracket: prices below the vol->0 limit or above
    the vol->bracket-top value raise NoSolution. The root is then found
    with Brent's method and verified to reprice within IV_RESIDUAL_TOL,
    else NonConvergence.
    """
    _check_option_type(option_type)
    if tau <= 0.0:
        raise DomainError("implied vol undefined at tau <= 0")
    if not observed_price >= 0.0:
        raise NoSolution(f"option price must be >= 0, got {observed_price}")
    lo, hi = IV_BRACKET

    def price_at(vol: float) -> float:
        return bsm_price(MarketParams(spot, rate, vol, tau), strike, option_type)

    price_lo = price_at(lo)
    price_hi = price_at(hi)
    if observed_price < price_lo:
        raise NoSolution(
            f"price {observed_price} below the vol->0 bound {price_lo:.10g}")
    if observed_price > price_hi:
        raise NoSolution(
            f"price {observed_price} above the bound {price_hi:.10g} at vol={hi}")

    root = _brent(lambda v: price_at(v) - observed_price, lo, hi,
                  price_lo - observed_price, price_hi - observed_price)
    residual = abs(price_at(root) - observed_price)
    if residual > IV_RESIDUAL_TOL:
        raise NonConvergence(
            f"residual {residual:.3e} exceeds {IV_RESIDUAL_TOL:.1e} at vol={root:.10g}")
    return float(root)


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in [a, b], where fa = f(a) and fb = f(b) differ in sign
    or one of them is 0.

    Brent's method (Brent 1973, ch. 4) as the widely used C routine brentq
    has it, step for step and in the same operation order, with xtol 1e-14,
    rtol 8.882e-16 and at most 200 steps, so each root is the very double
    that routine returns (tests/test_pricing.py compares the two).
    """
    xtol, rtol = 1e-14, 8.882e-16
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(200):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:  # a zero divisor gives C an inf or nan, which bisects too
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NonConvergence(f"no root after 200 Brent steps; last estimate {xcur:.10g}")


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

    Leg j has quantity * direction qd[j] and is a call where is_call[j];
    strike and premium are (n_legs, m). knots is (n_legs + 1, m): 0 then
    the basket's strikes ascending. values holds the net terminal PnL per
    share at each knot: the sum of qd * (intrinsic - premium), added leg
    by leg in leg order. slope is the payoff slope as spot -> +inf: the
    sum of qd over call legs.
    """
    m = strike.shape[1]
    knots = np.stack([np.zeros(m)] + _sorted_rows(strike))
    values = np.zeros_like(knots)
    for q, call, k, p in zip(qd, is_call, strike, premium):
        intrinsic = np.maximum(knots - k if call else k - knots, 0.0)
        values = values + q * (intrinsic - p)
    slope = np.full(m, float(sum(q for q, call in zip(qd, is_call) if call)))
    return knots, values, slope


def payoff_extremes(values, slope):
    """(max_profit, max_loss) per share; an unbounded side is +inf."""
    max_profit = np.where(slope <= 0.0, values.max(axis=0), math.inf)
    max_loss = np.where(slope >= 0.0, -values.min(axis=0), math.inf)
    return max_profit, max_loss


def breakevens(knots, values, slope):
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

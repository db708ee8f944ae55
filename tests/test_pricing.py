"""Pricing kernel against frozen high-precision references and
finite-difference / round-trip oracles.

The normal CDF and density and the d+/d- pair are the oracle's pieces in
tests/helpers.py; their frozen references keep the composed oracle, and
through it bsm_price and greeks, pointed at 50-digit values."""

import contextlib
import functools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (GREEK_ATOL, GREEK_RTOL, d_plus_minus, draw_params,
                     fd_greeks, norm_cdf, norm_pdf, oracle_bsm_price,
                     oracle_greeks)
from oql import pricing
from oql.errors import NoSolution, PricingError
from oql.pricing import (IV_BRACKET, GreeksVector, MarketParams, bsm_price,
                         greeks, implied_vol)

# what NoSolution says when the quote breaks the no-arbitrage bounds, and
# when the root finder cannot meet the residual tolerance
_NO_ARBITRAGE = r"^(option price must be >= 0|price \S+ (below|above) the)"
_NON_CONVERGENCE = r"^(residual \S+ exceeds|no root after 200 Brent steps)"


@contextlib.contextmanager
def _refused(match=None):
    """pytest.raises for a refusal of the pricing domain: a PricingError,
    and not its subclass NoSolution."""
    with pytest.raises(PricingError, match=match) as caught:
        yield caught
    assert type(caught.value) is PricingError, caught.value

# Reference values computed once at 50-digit precision and frozen.
_CDF_CASES = [
    (-8.0, 6.220960574271784123516e-16),
    (-6.0, 9.865876450376981407009e-10),
    (-5.0, 2.866515718791939116738e-7),
    (-4.0, 0.00003167124183311992125377),
    (-3.0, 0.001349898031630094526652),
    (-2.5, 0.006209665325776135166978),
    (-2.0, 0.02275013194817920720028),
    (-1.5, 0.06680720126885806600449),
    (-1.0, 0.1586552539314570514148),
    (-0.5, 0.3085375387259868963623),
    (0.0, 0.5),
    (0.25, 0.5987063256829237242409),
    (0.5, 0.6914624612740131036377),
    (1.0, 0.8413447460685429485852),
    (1.5, 0.9331927987311419339955),
    (2.0, 0.9772498680518207927997),
    (2.5, 0.993790334674223864833),
    (3.0, 0.9986501019683699054733),
    (5.0, 0.9999997133484281208061),
    (8.0, 0.9999999999999993779039),
]

# (spot, rate, vol, tau, strike, d_plus, d_minus)
_D_CASES = [
    (100.0, 0.05, 0.2, 1.0, 100.0,
     0.35000000000000000555, 0.14999999999999999445),
    (300.0, 0.04, 0.5, 0.0821917808219178, 285.0,
     0.45243776726451467737, 0.30909222249426571058),
    (52.37, 0.0, 0.35, 0.75, 61.11,
     -0.35764081397188145469, -0.66074970529643496183),
    (1000.0, 0.1, 1.5, 2.5, 3.0,
     3.7406131249679261962, 1.3689048798416416972),
    (5.0, 0.01, 0.08, 0.25, 9.5,
     -15.963847154309869065, -16.003847154309869066),
]

# (spot, rate, vol, tau, strike, type, discounted lognormal-integral price)
_PRICE_CASES = [
    (100.0, 0.05, 0.2, 1.0, 100.0, "call", 10.450583572185567346),
    (100.0, 0.05, 0.2, 1.0, 100.0, "put", 5.5735260222569679911),
    (300.0, 0.04, 0.5, 0.0821917808219178, 285.0, "call", 25.846537503903596595),
    (300.0, 0.04, 0.5, 0.0821917808219178, 285.0, "put", 9.9110897674276827989),
    (52.37, 0.0, 0.35, 0.75, 61.11, "call", 3.3236744605174721882),
    (52.37, 0.0, 0.35, 0.75, 61.11, "put", 12.063674460517474178),
    (1000.0, 0.1, 1.5, 2.5, 3.0, "call", 997.77160799162718086),
    (1000.0, 0.1, 1.5, 2.5, 3.0, "put", 0.10801034084139543061),
    (5.0, 0.01, 0.08, 0.25, 9.5, "call", 0.0),
    (5.0, 0.01, 0.08, 0.25, 9.5, "put", 4.4762796627758711779),
]

# (spot, rate, vol, tau, strike, type, delta, gamma, vega, theta) from
# the closed forms at 50 digits, over the exact doubles of _PRICE_CASES
_GREEK_CASES = [
    (100.0, 0.05, 0.2, 1.0, 100.0, "call",
     0.63683065117561907331, 0.018762017345846892841, 37.524034691693787765,
     -6.4140275464381961317),
    (100.0, 0.05, 0.2, 1.0, 100.0, "put",
     -0.36316934882438092669, 0.018762017345846892841, 37.524034691693787765,
     -1.6578804239346258355),
    (300.0, 0.04, 0.5, 0.0821917808219178, 285.0, "call",
     0.67452317778154267376, 0.0083744170642311004592, 30.97387133345749313,
     -101.27260860582224853),
    (300.0, 0.04, 0.5, 0.0821917808219178, 285.0, "put",
     -0.32547682221845732624, 0.0083744170642311004592, 30.97387133345749313,
     -89.91002651528128485),
    (52.37, 0.0, 0.35, 0.75, 61.11, "call",
     0.36030606534255727997, 0.02357513423128996508, 16.97260991015739361,
     -3.9602756457033915911),
    (52.37, 0.0, 0.35, 0.75, 61.11, "put",
     -0.63969393465744272003, 0.02357513423128996508, 16.97260991015739361,
     -3.9602756457033915911),
    (1000.0, 0.1, 1.5, 2.5, 3.0, "call",
     0.99990821405024733562, 1.5398701418330970763e-7, 0.57745130318741140361,
     -0.38689599681823890954),
    (1000.0, 0.1, 1.5, 2.5, 3.0, "put",
     -0.000091785949752664375763, 1.5398701418330970763e-7,
     0.57745130318741140361, -0.15325576189681743934),
    (5.0, 0.01, 0.08, 0.25, 9.5, "call",
     1.141098023773780824e-57, 9.14362215321934645e-56,
     4.5718110766096733202e-56, -7.3718111145443936021e-57),
    (5.0, 0.01, 0.08, 0.25, 9.5, "put",
     -1.0, 9.14362215321934645e-56, 4.5718110766096733202e-56,
     0.094762796627758713751),
]


# ============================================================
# Normal distribution (the oracle's pieces)
# ============================================================


@pytest.mark.parametrize("x,expected", _CDF_CASES)
def test_norm_cdf_matches_frozen_reference(x, expected):
    assert norm_cdf(x) == pytest.approx(expected, abs=1e-15, rel=1e-13)


def test_norm_cdf_symmetry():
    for x in (0.3, 1.7, 4.2):
        assert norm_cdf(-x) + norm_cdf(x) == pytest.approx(1.0, abs=1e-15)


def test_norm_pdf_peak_and_symmetry():
    assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                          rel=1e-15)
    assert norm_pdf(1.3) == norm_pdf(-1.3)


# ============================================================
# d+/d- and price
# ============================================================


@pytest.mark.parametrize("s,r,v,t,k,dp,dm", _D_CASES)
def test_d_plus_minus_matches_frozen_reference(s, r, v, t, k, dp, dm):
    got_p, got_m = d_plus_minus(MarketParams(s, r, v, t), k)
    assert got_p == pytest.approx(dp, abs=5e-13, rel=1e-13)
    assert got_m == pytest.approx(dm, abs=5e-13, rel=1e-13)


@pytest.mark.parametrize("s,r,v,t,k,typ,expected", _PRICE_CASES)
def test_price_matches_lognormal_integral(s, r, v, t, k, typ, expected):
    got = bsm_price(MarketParams(s, r, v, t), k, typ)
    assert got == pytest.approx(expected, abs=1e-12, rel=1e-12)


def test_put_call_parity_over_random_draws():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        s, k, r, v, t = draw_params(rng)
        m = MarketParams(s, r, v, t)
        call = bsm_price(m, k, "call")
        put = bsm_price(m, k, "put")
        residual = abs(call - put - (s - k * math.exp(-r * t)))
        worst = max(worst, residual / max(1.0, s + k))
    assert worst <= 1e-10


def test_parity_holds_in_degenerate_branches():
    # vol = 0: both sides collapse to the discounted-forward intrinsic
    m = MarketParams(100.0, 0.05, 0.0, 2.0)
    call = bsm_price(m, 90.0, "call")
    put = bsm_price(m, 90.0, "put")
    dk = 90.0 * math.exp(-0.05 * 2.0)
    assert call == pytest.approx(100.0 - dk, abs=1e-12)
    assert put == 0.0
    assert call - put == pytest.approx(100.0 - dk, abs=1e-12)


def test_zero_tau_prices_are_raw_intrinsic():
    m = MarketParams(100.0, 0.05, 0.3, 0.0)
    assert bsm_price(m, 90.0, "call") == 10.0
    assert bsm_price(m, 90.0, "put") == 0.0
    assert bsm_price(m, 110.0, "call") == 0.0
    assert bsm_price(m, 110.0, "put") == 10.0


def test_zero_vol_puts_use_discounted_strike():
    m = MarketParams(100.0, 0.05, 0.0, 1.0)
    dk = 110.0 * math.exp(-0.05)
    assert bsm_price(m, 110.0, "put") == pytest.approx(dk - 100.0, abs=1e-12)


def test_price_monotone_in_vol():
    last = 0.0
    for vol in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
        price = bsm_price(MarketParams(100.0, 0.02, vol, 0.5), 105.0, "call")
        assert price > last
        last = price


def test_domain_errors():
    with _refused():
        MarketParams(0.0, 0.0, 0.2, 1.0)
    with _refused():
        MarketParams(100.0, 0.0, -0.1, 1.0)
    with _refused():
        MarketParams(100.0, 0.0, 0.2, -1.0)
    with _refused():
        bsm_price(MarketParams(100.0, 0.0, 0.2, 1.0), -5.0, "call")
    with _refused():
        bsm_price(MarketParams(100.0, 0.0, 0.2, 1.0), 100.0, "swap")
    for vol, tau in ((0.2, 0.0), (0.0, 1.0)):
        with _refused() as caught:
            greeks(MarketParams(100.0, 0.0, vol, tau), 100.0, "call")
        assert str(caught.value) == "d+/d- undefined at tau=0 or vol=0"
    # today's rules keep their wording and order; a value that passes its
    # sign rule must still be finite
    for args, message in _MARKET_REFUSALS:
        with _refused() as caught:
            MarketParams(*args)
        assert str(caught.value) == message, args
    m = MarketParams(100.0, 0.0, 0.2, 1.0)
    for strike, message in _STRIKE_REFUSALS:
        for option_type in ("call", "put"):
            for price in (lambda: bsm_price(m, strike, option_type),
                          lambda: greeks(m, strike, option_type),
                          lambda: implied_vol(100.0, 0.04, 1.0, strike,
                                              option_type, 5.0)):
                with _refused() as caught:
                    price()
                assert str(caught.value) == message, strike
    # NaN once passed IV_BRACKET's checks here and returned 8.88e-15
    for tau in (math.nan, math.inf):
        with _refused(match=f"tau must be finite, got {tau}"):
            implied_vol(100.0, 0.04, tau, 100.0, "call", 5.0)


# (spot, rate, vol, tau) -> the refusal's text
_MARKET_REFUSALS = [
    ((0.0, 0.0, 0.2, 1.0), "spot must be > 0, got 0.0"),
    ((math.nan, 0.0, 0.2, 1.0), "spot must be > 0, got nan"),
    ((-math.inf, 0.0, 0.2, 1.0), "spot must be > 0, got -inf"),
    ((100.0, 0.0, -math.inf, 1.0), "vol must be >= 0, got -inf"),
    ((100.0, 0.0, -0.1, math.nan), "vol must be >= 0, got -0.1"),
    ((100.0, math.nan, 0.2, -1.0), "tau must be >= 0, got -1.0"),
    ((math.inf, math.inf, 0.2, 1.0), "rate must be finite, got inf"),
    ((math.inf, 0.0, 0.2, 1.0), "spot must be finite, got inf"),
    ((100.0, 0.0, math.nan, 1.0), "vol must be finite, got nan"),
    ((100.0, 0.0, math.inf, 1.0), "vol must be finite, got inf"),
    ((100.0, 0.0, 0.2, math.nan), "tau must be finite, got nan"),
    ((100.0, 0.0, 0.2, math.inf), "tau must be finite, got inf"),
]

_STRIKE_REFUSALS = [
    (-5.0, "strike must be > 0, got -5.0"),
    (0.0, "strike must be > 0, got 0.0"),
    (-math.inf, "strike must be > 0, got -inf"),
    (math.inf, "strike must be finite, got inf"),
    (math.nan, "strike must be finite, got nan"),
]


# (spot, rate, vol, tau, strike, type) whose unclamped difference rounds
# below zero, deep out of the money at a low vol
_CLAMP_CASES = [
    (501.73675446229015, 0.0043775391860898585, 0.02122861490175644,
     0.2460978587556445, 335.61656423541774, "put"),
    (886.9902308209236, 0.09103980460974799, 0.013995681332228838,
     0.05206062874257953, 788.5261954392158, "put"),
    (681.0752111570091, 0.09823858773994866, 0.026911212282819372,
     0.1786587123642381, 1072.3327530126355, "call"),
]


def _kernel_draws(rng, n):
    """(spot, rate, vol, tau, strike): a wide sweep, then a low-vol,
    short-dated one near the money where the clamp can fire, then tau = 0
    and vol = 0 draws."""
    for i in range(n):
        spot = rng.uniform(1.0, 1000.0)
        if i % 4 == 0:
            yield (spot, rng.uniform(-0.02, 0.1), rng.uniform(0.01, 3.0),
                   rng.uniform(1 / 365, 3.0), spot * math.exp(rng.uniform(-4, 4)))
        elif i % 4 == 1:
            yield (spot, rng.uniform(-0.02, 0.1), rng.uniform(0.005, 0.3),
                   rng.uniform(1 / 365, 0.25), spot * math.exp(rng.uniform(-0.5, 0.5)))
        elif i % 4 == 2:
            yield (spot, rng.uniform(-0.02, 0.1), rng.uniform(0.0, 2.0), 0.0,
                   spot * math.exp(rng.uniform(-1, 1)))
        else:
            yield (spot, rng.uniform(-0.02, 0.1), 0.0, rng.uniform(1 / 365, 3.0),
                   spot * math.exp(rng.uniform(-1, 1)))


def test_bsm_price_is_bit_identical_to_the_composed_oracle():
    rng = np.random.default_rng(27)
    draws = list(_kernel_draws(rng, 20_000))
    draws += [(s, r, v, t, k) for s, r, v, t, k, _ in _CLAMP_CASES]
    zeros = 0
    for s, r, v, t, k in draws:
        m = MarketParams(s, r, v, t)
        for option_type in ("call", "put"):
            got = bsm_price(m, k, option_type)
            assert got == oracle_bsm_price(m, k, option_type), (s, r, v, t, k)
            zeros += got == 0.0
    assert zeros > 1000  # intrinsic and zero-vol branches out of the money
    for s, r, v, t, k, option_type in _CLAMP_CASES:
        m = MarketParams(s, r, v, t)
        d_plus, d_minus = d_plus_minus(m, k)
        discounted = k * math.exp(-r * t)
        sign = 1.0 if option_type == "call" else -1.0
        raw = sign * (s * norm_cdf(sign * d_plus)
                      - discounted * norm_cdf(sign * d_minus))
        assert raw < 0.0
        assert bsm_price(m, k, option_type) == 0.0


@pytest.mark.parametrize("strike, option_type", [
    (100.0, "swap"), (100.0, "CALL"), (100.0, None), (-5.0, "swap"),
    (-5.0, "call"), (0.0, "put"), (-math.inf, "call"), (math.inf, "put"),
    (math.nan, "call"),
])
@pytest.mark.parametrize("tau, vol", [(1.0, 0.2), (0.0, 0.2), (1.0, 0.0)])
def test_bsm_price_refuses_what_the_oracle_refuses(strike, option_type, tau, vol):
    m = MarketParams(100.0, 0.04, vol, tau)
    with _refused() as want:
        oracle_bsm_price(m, strike, option_type)
    with _refused() as got:
        bsm_price(m, strike, option_type)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# (spot, rate, vol, tau, strike, the step named); every one also passes
# MarketParams and the strike rule
_RANGE_REFUSALS = [
    ((100.0, -1000.0, 0.2, 1.0, 100.0), "strike * exp(-rate * tau)"),  # exp
    ((100.0, -1.0, 0.0, 1.0, 1e308), "strike * exp(-rate * tau)"),  # product
    ((100.0, 0.04, 1e308, 4.0, 100.0), "vol * sqrt(tau)"),  # overflows
    ((100.0, 0.04, 5e-324, 0.25, 100.0), "vol * sqrt(tau)"),  # underflows
    ((5e-324, 0.04, 0.2, 1.0, 100.0), "spot / strike"),
]

# (spot, rate, vol, tau, strike, the Greek named) where only greeks leaves
# the range: the divisor of gamma underflows to 0, and vega and theta's
# decay overflow
_GREEK_RANGE_REFUSALS = [
    ((5e-324, 0.0, 0.5, 1.0, 5e-324), "gamma"),
    ((1e307, 0.0, 1e-3, 1e4, 1e307), "vega"),
    ((1e300, 0.0, 1.0, 1e-300, 1e300), "theta"),
]


def _range_message(what, spot, rate, vol, tau, strike):
    return (f"{what} leaves the float range at spot={spot}, strike={strike}, "
            f"rate={rate}, vol={vol}, tau={tau}")


@pytest.mark.parametrize("option_type", ["call", "put"])
@pytest.mark.parametrize("args, what", _RANGE_REFUSALS)
def test_a_step_past_the_float_range_is_refused(args, what, option_type):
    spot, rate, vol, tau, strike = args
    m = MarketParams(spot, rate, vol, tau)
    message = _range_message(what, *args)
    prices = [bsm_price]
    if vol > 0.0:
        prices.append(greeks)
    for price in prices:
        with _refused() as caught:
            price(m, strike, option_type)
        assert str(caught.value) == message, price


@pytest.mark.parametrize("option_type", ["call", "put"])
@pytest.mark.parametrize("args, name", _GREEK_RANGE_REFUSALS)
def test_a_greek_past_the_float_range_is_refused(args, name, option_type):
    spot, rate, vol, tau, strike = args
    m = MarketParams(spot, rate, vol, tau)
    assert math.isfinite(bsm_price(m, strike, option_type))
    with _refused() as caught:
        greeks(m, strike, option_type)
    assert str(caught.value) == _range_message(name, *args)


_FINITE = {"allow_nan": False, "allow_infinity": False}


@settings(max_examples=1_000, deadline=None)
@given(spot=st.floats(min_value=0.0, exclude_min=True, **_FINITE),
       strike=st.floats(min_value=0.0, exclude_min=True, **_FINITE),
       rate=st.floats(**_FINITE), vol=st.floats(min_value=0.0, **_FINITE),
       tau=st.floats(min_value=0.0, **_FINITE), price=st.floats(**_FINITE),
       option_type=st.sampled_from(["call", "put"]))
def test_every_finite_input_prices_finite_or_is_refused(
        spot, strike, rate, vol, tau, price, option_type):
    """Across the whole float range no pricing call raises OverflowError,
    ValueError or ZeroDivisionError, or returns a NaN or an infinity."""
    m = MarketParams(spot, rate, vol, tau)
    try:
        value = bsm_price(m, strike, option_type)
    except PricingError as exc:
        assert type(exc) is PricingError, exc
        value = None
    else:
        assert math.isfinite(value)
    try:
        vector = greeks(m, strike, option_type)
    except PricingError as exc:
        assert type(exc) is PricingError, exc
    else:
        assert all(math.isfinite(x) for x in astuple(vector)), vector
    # a drawn quote, and the model's own price, which the inversion reaches
    for quote in (price, value):
        if quote is None:
            continue
        try:
            iv = implied_vol(spot, rate, tau, strike, option_type, quote)
        except PricingError:
            continue
        assert math.isfinite(iv)


# ============================================================
# Greeks
# ============================================================


@pytest.mark.parametrize("s,r,v,t,k,typ,delta,gamma,vega,theta",
                         _GREEK_CASES)
def test_greeks_match_frozen_reference(s, r, v, t, k, typ, delta, gamma,
                                       vega, theta):
    got = greeks(MarketParams(s, r, v, t), k, typ)
    want = dict(delta=delta, gamma=gamma, vega=vega, theta=theta)
    for name, expected in want.items():
        assert getattr(got, name) == pytest.approx(expected, abs=1e-12,
                                                   rel=1e-12), name


def test_greeks_are_bit_identical_to_the_composed_oracle():
    rng = np.random.default_rng(27)
    draws = list(_kernel_draws(rng, 20_000))
    draws += [(s, r, v, t, k) for s, r, v, t, k, _ in _CLAMP_CASES]
    refused = 0
    for s, r, v, t, k in draws:
        m = MarketParams(s, r, v, t)
        for option_type in ("call", "put"):
            try:
                want = oracle_greeks(m, k, option_type)
            except PricingError as exc:  # tau = 0 or vol = 0
                with _refused(match=re.escape(str(exc))):
                    greeks(m, k, option_type)
                refused += 1
                continue
            got = greeks(m, k, option_type)
            assert ([x.hex() for x in astuple(got)]
                    == [x.hex() for x in astuple(want)]), (s, r, v, t, k)
    assert refused == 20_000  # the tau = 0 and vol = 0 halves, both types


def test_greeks_match_finite_differences_over_random_draws():
    rng = np.random.default_rng(0)
    worst = {name: 0.0 for name in GREEK_ATOL}
    for _ in range(10_000):
        s, k, r, v, t = draw_params(rng)
        m = MarketParams(s, r, v, t)
        option_type = "call" if rng.integers(2) else "put"
        analytic = greeks(m, k, option_type)
        fd = fd_greeks(m, k, option_type)
        for name in GREEK_ATOL:
            err = abs(getattr(analytic, name) - fd[name])
            bound = GREEK_ATOL[name] + GREEK_RTOL * abs(fd[name])
            worst[name] = max(worst[name], err / bound)
    for name, ratio in worst.items():
        assert ratio < 1.0, f"{name}: worst normalized error {ratio:.3f}"


def test_greek_parity_identities_over_random_draws():
    rng = np.random.default_rng(1)
    for _ in range(2_000):
        s, k, r, v, t = draw_params(rng)
        m = MarketParams(s, r, v, t)
        call = greeks(m, k, "call")
        put = greeks(m, k, "put")
        dk = k * math.exp(-r * t)
        scale = max(1.0, s + k)
        assert call.delta - put.delta == pytest.approx(1.0, abs=1e-12)
        assert call.gamma == put.gamma
        assert call.vega == put.vega
        assert call.theta - put.theta == pytest.approx(-r * dk,
                                                       abs=1e-10 * scale)


def test_greek_signs_and_ranges():
    m = MarketParams(100.0, 0.03, 0.25, 0.5)
    call = greeks(m, 100.0, "call")
    put = greeks(m, 100.0, "put")
    assert 0.0 < call.delta < 1.0
    assert -1.0 < put.delta < 0.0
    assert call.gamma > 0.0 and call.vega > 0.0
    assert call.theta < 0.0  # long ATM positions decay
    assert isinstance(call, GreeksVector)


# ============================================================
# Implied volatility
# ============================================================


def test_iv_round_trip_over_random_draws():
    """Recover vol from price wherever double precision can resolve it.

    vega > 1e-12 skips flat spots; the second guard skips draws where one
    price ulp (the price is assembled from terms of size ~spot+strike)
    moves the implied vol by more than ~2.5e-10, i.e. where no root finder
    could do better in double precision.
    """
    rng = np.random.default_rng(0)
    checked = 0
    worst = 0.0
    for _ in range(10_000):
        s, k, r, v, t = draw_params(rng)
        v = max(v, 1e-4)
        m = MarketParams(s, r, v, t)
        option_type = "call" if rng.integers(2) else "put"
        price = bsm_price(m, k, option_type)
        vega = greeks(m, k, option_type).vega
        if vega <= 1e-12 or math.ulp(s + k) / vega > 2.5e-10:
            continue
        recovered = implied_vol(s, r, t, k, option_type, price)
        worst = max(worst, abs(recovered - v))
        checked += 1
    assert checked > 8_000  # the guards must not hollow out the sweep
    assert worst <= 1e-8


def test_iv_exact_on_reference_prices():
    for s, r, v, t, k, typ, _ in _PRICE_CASES[:8]:
        price = bsm_price(MarketParams(s, r, v, t), k, typ)
        assert implied_vol(s, r, t, k, typ, price) == pytest.approx(v, abs=1e-9)


def test_iv_price_below_low_vol_bound():
    # ITM call at vol->0 is worth the discounted forward intrinsic; quote less
    s, k, r, t = 100.0, 80.0, 0.05, 1.0
    floor = s - k * math.exp(-r * t)
    with pytest.raises(NoSolution, match="below"):
        implied_vol(s, r, t, k, "call", floor - 0.5)


def test_iv_price_above_high_vol_bound():
    # a call is worth strictly less than spot at any bracketed vol
    with pytest.raises(NoSolution, match="above"):
        implied_vol(100.0, 0.0, 1.0, 100.0, "call", 100.0)


def test_iv_negative_price_rejected():
    with pytest.raises(NoSolution, match="must be >= 0"):
        implied_vol(100.0, 0.0, 1.0, 100.0, "call", -1.0)


def test_iv_nan_price_rejected():
    with pytest.raises(NoSolution, match="must be >= 0"):
        implied_vol(100.0, 0.0, 1.0, 100.0, "call", math.nan)


@pytest.mark.parametrize("end", [0, 1])
def test_iv_price_on_a_bracket_bound_returns_that_bound(end):
    s, r, t, k = 100.0, 0.01, 0.5, 100.0
    price = bsm_price(MarketParams(s, r, IV_BRACKET[end], t), k, "call")
    assert implied_vol(s, r, t, k, "call", price) == IV_BRACKET[end]


def test_iv_zero_tau_rejected():
    with _refused():
        implied_vol(100.0, 0.0, 0.0, 100.0, "call", 5.0)


def test_iv_nonconvergence_when_residual_tolerance_is_impossible(monkeypatch):
    # Consecutive vol doubles step this price by ~4 price ulps, so the
    # vol->price map cannot cover every float in a 200-ulp price window;
    # with a zero residual tolerance an uncoverable target must raise.
    monkeypatch.setattr(pricing, "IV_RESIDUAL_TOL", 0.0)
    s, r, t, k = 100.0, 0.0, 1.0, 150.0
    base = bsm_price(MarketParams(s, r, 0.5, t), k, "call")
    raised = False
    for i in range(1, 200):
        target = base + i * math.ulp(base)
        try:
            implied_vol(s, r, t, k, "call", target)
        except NoSolution as exc:
            assert re.match(_NON_CONVERGENCE, str(exc)), exc
            raised = True
            break
    assert raised


def test_iv_reports_no_solution_on_a_double_precision_plateau():
    # Deep ITM long-dated call with tiny vol: every bracketed vol reprices
    # to the same double (the discounted forward intrinsic), and the true
    # price rounds one ulp below that plateau. The inversion must refuse
    # rather than return an arbitrary vol.
    s, k, r, v, t = (834.614642225199, 356.13192635167803,
                     0.04381799553029647, 0.0807151546384405,
                     2.2105340227583112)
    price = bsm_price(MarketParams(s, r, v, t), k, "call")
    with pytest.raises(NoSolution, match=_NO_ARBITRAGE):
        implied_vol(s, r, t, k, "call", price)


def test_iv_matches_scipy_brentq_bit_for_bit():
    """The in-package Brent step returns the very double scipy's brentq
    does, so every inverted vol (and every Greek, pin and golden built on
    it) is unchanged by dropping scipy.

    Prices are rounded to 2-12 decimals, as quotes are, so most targets
    sit between representable model prices; rates may be negative and tau
    runs from one day to three years.
    """
    optimize = pytest.importorskip("scipy.optimize")
    lo, hi = IV_BRACKET
    rng = np.random.default_rng(20)
    roots = 0
    for _ in range(2_500):
        s = float(rng.uniform(5.0, 1000.0))
        k = float(s * math.exp(rng.normal(0.0, 0.4)))
        r = float(rng.uniform(-0.03, 0.1))
        t = float(rng.uniform(1 / 365, 0.1) if rng.integers(2)
                  else rng.uniform(0.1, 3.0))
        v = float(rng.uniform(0.02, 3.0))
        option_type = "call" if rng.integers(2) else "put"
        price = round(bsm_price(MarketParams(s, r, v, t), k, option_type),
                      int(rng.choice([2, 4, 8, 12])))

        def excess(vol):
            return bsm_price(MarketParams(s, r, vol, t), k, option_type) - price

        if not excess(lo) <= 0.0 <= excess(hi):
            with pytest.raises(NoSolution, match=_NO_ARBITRAGE):
                implied_vol(s, r, t, k, option_type, price)
            continue
        root = optimize.brentq(excess, lo, hi, xtol=1e-14, rtol=8.882e-16,
                               maxiter=200)
        if abs(excess(root)) > pricing.IV_RESIDUAL_TOL:
            with pytest.raises(NoSolution, match=_NON_CONVERGENCE):
                implied_vol(s, r, t, k, option_type, price)
            continue
        assert implied_vol(s, r, t, k, option_type, price) == root
        roots += 1
    assert roots > 2_000


def test_brent_matches_scipy_where_a_divisor_underflows():
    """Tiny function values underflow the extrapolation step's divisor to
    0: C divides to inf or nan and bisects, and so must the port."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(3)
    for _ in range(300):
        r = float(rng.uniform(0.05, 0.95))
        scale = float(10.0 ** -rng.uniform(150.0, 320.0))
        power = int(rng.choice([1, 3, 5]))

        def f(x):
            return scale * (x - r) ** power + scale * 0.1 * (x - r)

        expected = optimize.brentq(f, 0.0, 1.0, xtol=1e-14, rtol=8.882e-16,
                                   maxiter=200)
        assert pricing._brent(f, 0.0, 1.0, f(0.0), f(1.0)) == expected


def test_brent_out_of_steps_is_nonconvergence():
    # +-1 on either side of 0.3 never lets the step interpolate, and
    # bisecting from 1e300 down to 0.3 takes ~1,000 halvings
    def step(x):
        return -1.0 if x < 0.3 else 1.0

    with pytest.raises(NoSolution, match="^no root after 200 Brent steps"):
        pricing._brent(step, -1e300, 1e300, -1.0, 1.0)


# ============================================================
# leg_sum: the one summation rule over legs
# ============================================================


def _left_fold(qd, terms):
    """sum(q * term) as a left fold from 0.0, one Python float at a time."""
    return functools.reduce(lambda total, qt: total + qt[0] * qt[1],
                            zip(qd, terms), 0.0)


_TERM = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.1, -0.1)),
                  st.floats(-1e300, 1e300))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(0, 6))
def test_leg_sum_is_a_left_fold_from_zero_on_floats_and_arrays(data, n, m):
    """Each basket of a block (one column of an (n_legs, m) array or of a
    list of rows) sums to the double its floats fold to alone."""
    qd = data.draw(st.lists(st.sampled_from((1, -1, 2, -2)), min_size=n,
                            max_size=n))
    columns = [data.draw(st.lists(_TERM, min_size=n, max_size=n))
               for _ in range(m)]
    expected = [_left_fold(qd, column).hex() for column in columns]
    assert [pricing.leg_sum(qd, column).hex() for column in columns] == expected
    block = np.array(columns, dtype=float).reshape(m, n).T
    for values in (block, list(block)):
        assert [x.hex() for x in pricing.leg_sum(qd, values).tolist()] == expected


@pytest.mark.parametrize("qd,terms,expected", [
    ([1], [-0.0], "0x0.0p+0"),              # 0.0 + -0.0 is +0.0
    ([1, -1], [-0.0, 0.0], "0x0.0p+0"),
    ([2, -1], [0.1, 0.2], "0x0.0p+0"),      # 2 * 0.1 - 0.2 cancels exactly
    ([1, 1, -1], [0.1, 0.2, 0.3], (0.1 + 0.2 - 0.3).hex()),
    ([-1, 1, 1], [0.3, 0.1, 0.2], (-0.3 + 0.1 + 0.2).hex()),
])
def test_leg_sum_keeps_leg_order_and_the_zero_start(qd, terms, expected):
    """Leg order is part of the value: the same terms in another order give
    another double, and an all -0.0 basket sums to +0.0."""
    assert pricing.leg_sum(qd, terms).hex() == expected
    column = np.array(terms, dtype=float)[:, None]
    assert pricing.leg_sum(qd, column)[0].hex() == expected

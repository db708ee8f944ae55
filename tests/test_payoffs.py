"""Terminal payoff algebra: leg sums, family identities, extremes,
breakevens."""

import math
import random

import numpy as np
import pytest

from helpers import Leg, basket_payoff, leg_payoff, strategy_payoff


def leg(direction, option_type, strike, premium, quantity=1):
    return Leg(direction=direction, option_type=option_type, strike=strike,
               quantity=quantity, premium=premium)


def breakevens(legs):
    return basket_payoff(legs).breakevens


def random_legs(rng, n_legs, *, dyadic=False):
    legs = []
    for _ in range(n_legs):
        if dyadic:
            strike = rng.randrange(1, 400) / 4.0
            premium = rng.randrange(-256, 256) / 64.0
        else:
            strike = rng.uniform(1.0, 500.0)
            premium = rng.uniform(-20.0, 20.0)
        legs.append(leg(rng.choice((1, -1)),
                        rng.choice(("call", "put")),
                        strike, premium, quantity=rng.randint(1, 3)))
    return legs


# ============================================================
# Leg sum
# ============================================================


def test_strategy_payoff_equals_leg_sum_on_random_instances():
    rng = random.Random(42)
    for _ in range(10_000):
        legs = random_legs(rng, rng.randint(1, 6))
        spot = rng.uniform(0.0, 600.0)
        expected = 0.0
        for item in legs:
            expected += item.quantity * item.direction * (
                leg_payoff(item, spot) - item.premium)
        assert strategy_payoff(legs, spot) == expected


def test_leg_payoff_intrinsics():
    assert leg_payoff(leg(1, "call", 100.0, 0.0), 112.5) == 12.5
    assert leg_payoff(leg(1, "call", 100.0, 0.0), 90.0) == 0.0
    assert leg_payoff(leg(1, "put", 100.0, 0.0), 90.0) == 10.0
    assert leg_payoff(leg(1, "put", 100.0, 0.0), 112.5) == 0.0


def test_quantity_and_direction_scale_linearly():
    single = leg(1, "call", 100.0, 2.0)
    double = leg(1, "call", 100.0, 2.0, quantity=2)
    short = leg(-1, "call", 100.0, 2.0)
    for spot in (0.0, 80.0, 100.0, 123.0):
        assert strategy_payoff([double], spot) == 2.0 * strategy_payoff([single], spot)
        assert strategy_payoff([short], spot) == -strategy_payoff([single], spot)


# ============================================================
# Family identities
# ============================================================


def test_zero_premium_straddle_is_absolute_distance():
    strike = 100.0
    legs = [leg(1, "call", strike, 0.0), leg(1, "put", strike, 0.0)]
    rng = random.Random(7)
    for _ in range(500):
        spot = rng.uniform(0.0, 300.0)
        assert strategy_payoff(legs, spot) == abs(spot - strike)


def test_condor_decomposes_into_put_and_call_spreads():
    # dyadic strikes/premiums/spots keep every sum exact, so the whole /
    # sum-of-parts comparison is literal float equality
    rng = random.Random(13)
    for _ in range(2_000):
        strikes = sorted(rng.sample(range(4, 800), 4))
        lp, sp, sc, lc = [s / 4.0 for s in strikes]
        prem = [rng.randrange(0, 512) / 64.0 for _ in range(4)]
        condor = [
            leg(-1, "call", sc, prem[0]), leg(1, "call", lc, prem[1]),
            leg(-1, "put", sp, prem[2]), leg(1, "put", lp, prem[3]),
        ]
        call_spread = condor[:2]
        put_spread = condor[2:]
        for _ in range(5):
            spot = rng.randrange(0, 1000) / 4.0
            assert strategy_payoff(condor, spot) == (
                strategy_payoff(call_spread, spot)
                + strategy_payoff(put_spread, spot))


def test_symmetric_zero_premium_butterfly_never_negative():
    lo, body, hi = 90.0, 100.0, 110.0
    legs = [leg(1, "call", lo, 0.0), leg(-1, "call", body, 0.0, quantity=2),
            leg(1, "call", hi, 0.0)]
    for spot in np.linspace(0.0, 300.0, 3001):
        assert strategy_payoff(legs, float(spot)) >= 0.0
    assert strategy_payoff(legs, body) == body - lo  # the peak


def test_asymmetric_butterfly_can_go_negative():
    # uneven wings break the non-negativity: beyond the far wing the
    # payoff settles at (body - lo) - (hi - body) < 0
    legs = [leg(1, "call", 90.0, 0.0), leg(-1, "call", 100.0, 0.0, quantity=2),
            leg(1, "call", 120.0, 0.0)]
    assert strategy_payoff(legs, 120.0) == -10.0
    assert strategy_payoff(legs, 500.0) == -10.0


# ============================================================
# Extremes
# ============================================================


def grid_extremes(legs):
    strikes = [item.strike for item in legs]
    grid = np.concatenate([np.linspace(0.0, 3.0 * max(strikes), 100_000),
                           np.asarray(strikes)])
    total = np.zeros_like(grid)
    for item in legs:
        if item.option_type == "call":
            intrinsic = np.maximum(grid - item.strike, 0.0)
        else:
            intrinsic = np.maximum(item.strike - grid, 0.0)
        total += item.quantity * item.direction * (intrinsic - item.premium)
    return float(total.max()), float(-total.min())


@pytest.mark.parametrize("name,legs", [
    ("iron_condor", [
        leg(-1, "call", 110.0, 3.1), leg(1, "call", 115.0, 1.4),
        leg(-1, "put", 90.0, 2.9), leg(1, "put", 85.0, 1.2),
    ]),
    ("bull_call_spread", [leg(1, "call", 100.0, 5.2), leg(-1, "call", 110.0, 1.9)]),
    ("bear_put_spread", [leg(1, "put", 110.0, 6.1), leg(-1, "put", 100.0, 2.3)]),
    ("butterfly", [
        leg(1, "call", 90.0, 12.1), leg(-1, "call", 100.0, 5.5, quantity=2),
        leg(1, "call", 110.0, 1.8),
    ]),
    ("long_straddle", [leg(1, "call", 100.0, 4.0), leg(1, "put", 100.0, 3.5)]),
])
def test_extremes_match_grid_search_on_risk_defined_structures(name, legs):
    ext = basket_payoff(legs)
    grid_max, grid_min_loss = grid_extremes(legs)
    if math.isfinite(ext.max_profit):
        assert ext.max_profit == pytest.approx(grid_max, abs=1e-9)
    if math.isfinite(ext.max_loss):
        assert ext.max_loss == pytest.approx(grid_min_loss, abs=1e-9)
    # the grid can never exceed the claimed extremes
    assert grid_max <= ext.max_profit + 1e-9
    assert grid_min_loss <= ext.max_loss + 1e-9


def test_random_bounded_structures_match_grid_search():
    rng = random.Random(99)
    tested = 0
    while tested < 200:
        legs = random_legs(rng, rng.randint(2, 5))
        ext = basket_payoff(legs)
        if not (ext.profit_bounded and ext.loss_bounded):
            continue
        tested += 1
        grid_max, grid_min_loss = grid_extremes(legs)
        assert ext.max_profit == pytest.approx(grid_max, abs=1e-9)
        assert ext.max_loss == pytest.approx(grid_min_loss, abs=1e-9)


def test_long_call_profit_unbounded():
    ext = basket_payoff([leg(1, "call", 100.0, 4.0)])
    assert ext.max_profit == math.inf and not ext.profit_bounded
    assert ext.max_loss == 4.0 and ext.loss_bounded


def test_short_call_loss_unbounded():
    ext = basket_payoff([leg(-1, "call", 100.0, 4.0)])
    assert ext.max_loss == math.inf and not ext.loss_bounded
    assert ext.max_profit == 4.0 and ext.profit_bounded


def test_long_put_extremes_are_bounded_by_zero_spot():
    ext = basket_payoff([leg(1, "put", 100.0, 6.0)])
    assert ext.max_profit == 94.0  # strike minus premium, at spot 0
    assert ext.max_loss == 6.0


def test_cannot_lose_structure_reports_nonpositive_max_loss():
    # entered for a credit (negative premium): the payoff never dips below 1
    ext = basket_payoff([leg(1, "call", 100.0, -1.0)])
    assert ext.max_loss == -1.0
    assert ext.max_profit == math.inf


# ============================================================
# Breakevens
# ============================================================


def test_long_call_breakeven():
    assert breakevens([leg(1, "call", 100.0, 4.0)]) == (104.0, 104.0)


def test_long_put_breakeven():
    assert breakevens([leg(1, "put", 100.0, 6.0)]) == (94.0, 94.0)


def test_straddle_breakevens():
    legs = [leg(1, "call", 100.0, 4.0), leg(1, "put", 100.0, 3.5)]
    assert breakevens(legs) == (92.5, 107.5)


def test_iron_condor_breakevens_bracket_the_short_strikes():
    legs = [
        leg(-1, "call", 110.0, 3.1), leg(1, "call", 115.0, 1.4),
        leg(-1, "put", 90.0, 2.9), leg(1, "put", 85.0, 1.2),
    ]
    credit = 3.1 - 1.4 + 2.9 - 1.2
    lo, hi = breakevens(legs)
    assert lo == pytest.approx(90.0 - credit, abs=1e-12)
    assert hi == pytest.approx(110.0 + credit, abs=1e-12)


def test_breakevens_none_when_payoff_never_touches_zero():
    assert breakevens([leg(1, "call", 100.0, -1.0)]) == (None, None)


def test_breakeven_on_tail_segment():
    # short put entered rich: payoff positive until deep upside? no --
    # use a short call: positive credit until strike+credit on the tail
    lo, hi = breakevens([leg(-1, "call", 100.0, 7.0)])
    assert lo == hi == 107.0


def test_breakevens_at_zero_flat_segment():
    # zero-premium long call: payoff is identically zero up to the strike
    lo, hi = breakevens([leg(1, "call", 100.0, 0.0)])
    assert lo == 0.0
    assert hi == 100.0

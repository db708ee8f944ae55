import pytest

from stats import MIN_TAIL_SAMPLES, min_samples, percentile, spread


def test_p90_needs_one_hundred_samples():
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    with pytest.raises(ValueError):
        percentile(range(99), 90)


def test_nearest_rank_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    p90 = percentile(values, 90)
    assert p90 == 90
    assert sum(1 for v in values if v > p90) == MIN_TAIL_SAMPLES
    assert percentile(values, 50) == 50


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0


def test_spread_is_iqr_over_median():
    # statistics.quantiles(n=4) of 1..9 gives 2.5, 5, 7.5
    assert spread(range(1, 10)) == pytest.approx(5.0 / 5.0)
    assert spread([10.0] * 5) == 0.0

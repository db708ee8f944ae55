"""Order statistics for op latencies and the run-to-run spread rule."""

import statistics

# a reported percentile needs at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def _rank(q: int, n: int) -> int:
    """1-based nearest rank of the q-th percentile among n sorted samples."""
    return max(1, (q * n + 99) // 100)


def min_samples(q: int) -> int:
    """Smallest sample count that leaves MIN_TAIL_SAMPLES beyond the q-th percentile."""
    n = 1
    while n - _rank(q, n) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile (q an integer percent).

    Raises ValueError when fewer than MIN_TAIL_SAMPLES samples lie beyond
    it, so a tail figure is never read off a handful of ops.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < min_samples(q):
        raise ValueError(f"p{q} needs at least {min_samples(q)} samples, got {n}")
    return ordered[_rank(q, n) - 1]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median

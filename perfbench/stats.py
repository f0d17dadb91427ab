"""The tail rule of the benchmark report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values):
    """Highest per-job percentile that still has TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With n sorted samples the
    value is the (n - 10)-th smallest, the 100 * (n - 10) / n percentile.
    With too few samples for any such percentile, the median is returned
    with the samples above it, so the caller can say so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND

"""Order statistics and the growth-exponent fit used by the benchmark."""

from __future__ import annotations

import math
import statistics
from itertools import accumulate


def fastest_tenth(samples, key=None) -> list:
    """The fastest tenth of repeated timings of one piece of work (at least
    one), fastest first: the timings least slowed by other load sharing the
    machine.  ``key`` gives the time of a sample that is not a number."""
    return sorted(samples, key=key)[:max(1, len(samples) // 10)]


def p90(values) -> float:
    """90th percentile; callers pass at least 100 samples, so ten or more
    lie beyond it."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def slope(xs, ys) -> float:
    """Least-squares slope of ys on xs."""
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def by_position(timed) -> list[float]:
    """From (latency, place in its dialogue) pairs, the mean latency of the
    k-th event of a dialogue for each k: one dialogue's latency curve, or
    the mean curve of many."""
    sums: list[float] = []
    counts: list[int] = []
    for latency, k in timed:
        while len(sums) <= k:
            sums.append(0.0)
            counts.append(0)
        sums[k] += latency
        counts[k] += 1
    return [total / n for total, n in zip(sums, counts)]


def growth_exp(latencies) -> float:
    """Exponent b in T(k) ~ k**b, where T(k) is the cumulative replay time of
    the first k events, fitted over the second half of the sequence.

    The fit runs on cumulative time, not on each event's latency: summing
    first averages out a slow event, so the slope of the sum moves far less
    from run to run.  Per-event cost that stays flat gives b = 1."""
    cum = list(accumulate(latencies))
    n = len(cum)
    ks = range(max(1, n // 2), n + 1)
    return slope([math.log(k) for k in ks], [math.log(cum[k - 1]) for k in ks])

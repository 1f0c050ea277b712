"""The benchmark's statistics: every timing metric is built from these.

The rule (README, "Statistic"): a workload's ops are executed in repeated
*rounds*; for each op take the median of its latencies over the rounds,
and compute every timing metric from those per-op medians - never from
totals or raw samples, which on a shared two-core machine vary several
times more.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percent`` % of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def per_op_median(rounds: Sequence[Sequence[float]]) -> list[float]:
    """``rounds[r][i]`` is op *i*'s latency in round *r*; returns ``med_i``."""
    if not rounds:
        raise ValueError("no rounds")
    width = len(rounds[0])
    if any(len(r) != width for r in rounds):
        raise ValueError("rounds differ in op count")
    return [statistics.median(r[i] for r in rounds) for i in range(width)]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(sum(logs) / len(logs))


def qerror(estimate: float, actual: float, floor: float) -> float:
    """max/min ratio with both operands floored (>= 1, 1 is perfect)."""
    estimate = max(estimate, floor)
    actual = max(actual, floor)
    return max(estimate, actual) / min(estimate, actual)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median - the run-to-run spread the benchmark contract is judged on."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

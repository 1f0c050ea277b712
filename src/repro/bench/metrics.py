"""Shape metrics for comparing reproduced series with the paper's figures."""

from __future__ import annotations

import math
from typing import Optional, Sequence

Series = Sequence[tuple[float, Optional[float]]]


def _defined(series: Series) -> list[tuple[float, float]]:
    return [(t, v) for t, v in series if v is not None]


def mean_abs_error(series: Series, reference: Series) -> Optional[float]:
    """Mean |series - reference| over instants where both are defined.

    The two series must share their time points (ours always do: one
    report per update interval).
    """
    ref = {t: v for t, v in reference if v is not None}
    errors = [abs(v - ref[t]) for t, v in series if v is not None and t in ref]
    if not errors:
        return None
    return math.fsum(errors) / len(errors)


def convergence_time(
    series: Series, target: float, tolerance: float
) -> Optional[float]:
    """First instant after which the series stays within ±tolerance·target.

    Used for statements like "the query cost estimated by the progress
    indicator reaches the exact query cost at 300 seconds and stays there".
    """
    band = abs(target) * tolerance
    points = _defined(series)
    converged_at: Optional[float] = None
    for t, v in points:
        if abs(v - target) <= band:
            if converged_at is None:
                converged_at = t
        else:
            converged_at = None
    return converged_at


def series_min(series: Series) -> float:
    """Smallest defined value in the series."""
    values = [v for _, v in _defined(series)]
    if not values:
        raise ValueError("series has no defined values")
    return min(values)


def series_max(series: Series) -> float:
    """Largest defined value in the series."""
    values = [v for _, v in _defined(series)]
    if not values:
        raise ValueError("series has no defined values")
    return max(values)


def value_near(series: Series, t: float) -> Optional[float]:
    """The defined value at the largest time <= t."""
    best = None
    for ts, v in series:
        if ts <= t and v is not None:
            best = v
        if ts > t:
            break
    return best


def is_nondecreasing(series: Series, slack: float = 1e-9) -> bool:
    """Whether the defined values never decrease (within slack)."""
    values = [v for _, v in _defined(series)]
    return all(b >= a - slack for a, b in zip(values, values[1:]))


def max_jump(series: Series) -> float:
    """Largest single-step increase (used for interference-onset checks)."""
    values = [v for _, v in _defined(series)]
    if len(values) < 2:
        return 0.0
    return max(b - a for a, b in zip(values, values[1:]))

"""Summary statistics shared by the workloads and the steadiness report."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; below that the tail is a handful of outliers.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when the sample
    cannot support it (fewer than :data:`MIN_BEYOND` samples beyond)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for sample in ordered if sample > value)
    return value if beyond >= MIN_BEYOND else None


def min_samples_for(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile can be reported
    when all samples are distinct."""
    return math.ceil(MIN_BEYOND * 100 / (100 - q))


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartile spread and max/min of one metric over runs.

    ``iqr_share`` is the distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``) as a share of the median —
    the figure a metric's bound is compared against.
    """
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median,
            "iqr_share": (q3 - q1) / median if median else math.inf,
            "max_over_min": (max(values) / min(values)
                             if min(values) > 0 else math.inf)}


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0

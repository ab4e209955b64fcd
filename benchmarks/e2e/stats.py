"""Statistics shared by ``run.py``, ``compare.py`` and the tests.

Every latency the benchmark reports goes through these functions, so
"median", "tail", "spread" and "failed share" mean one thing
everywhere.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

#: Samples a reported tail percentile must leave beyond it: a fifth of
#: a serve run's 20 requests, so the tail is p80.
TAIL_BEYOND = 4


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile level {q!r} outside (0, 1]")
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered) - 1e-9) - 1)
    return ordered[min(index, len(ordered) - 1)]


def tail_level(n: int) -> Optional[int]:
    """The highest whole percentile above the median with at least
    :data:`TAIL_BEYOND` of ``n`` samples beyond it, or None when ``n``
    is too small for any."""
    for level in range(99, 50, -1):
        rank = math.ceil(level * n / 100 - 1e-9)
        if n - rank >= TAIL_BEYOND:
            return level
    return None


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The tail latency the sample supports and its label.

    With more than 8 samples this is :func:`tail_level`'s percentile;
    with fewer no percentile above the median leaves
    :data:`TAIL_BEYOND` samples beyond it, so the tail is the slowest
    sample (``"max"``).
    """
    level = tail_level(len(values))
    if level is None:
        return max(values), "max"
    return percentile(values, level / 100), f"p{level}"


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no samples")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; one sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def failed_frac(results: Iterable[Dict[str, Any]]) -> float:
    """Errors, refusals and wrong outputs over everything attempted, for
    a set of run results."""
    results = list(results)
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0

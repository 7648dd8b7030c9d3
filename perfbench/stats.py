"""Percentiles, medians and spreads used by the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``q`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} is outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def due_latencies(due: Sequence[float], answered: Sequence[float]) -> List[float]:
    """Open-loop latency: each answer timed from when its request was
    *due*, not from when the generator got round to sending it, so a
    stall in the generator or the server is charged to every request
    queued behind it."""
    if len(due) != len(answered):
        raise ValueError("every due time needs its answer time")
    out = []
    for d, a in zip(due, answered):
        if a < d:
            raise ValueError(f"answer at {a} precedes its due time {d}")
        out.append(a - d)
    return out

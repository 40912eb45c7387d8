"""Percentiles with the sample-count rule the benchmark reports by.

A timing is reported as its median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, with the
sample count stated.  A fixed tail metric (``ingest_ms_p95``) is only
valid when its sample count supports it; :func:`supports` says so.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10

#: tail percentiles considered, lowest first
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least MIN_BEYOND beyond ``p``."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def highest_tail(n: int) -> Optional[float]:
    """The highest ladder percentile ``n`` samples support, or None."""
    best = None
    for p in TAIL_LADDER:
        if supports(n, p):
            best = p
    return best

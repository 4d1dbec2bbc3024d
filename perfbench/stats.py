"""Order statistics for benchmark samples.

A timing is reported as its median plus the highest of a few fixed
percentiles that still has at least ten samples beyond it, together with the
sample count, so a tail figure is never read off two or three samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100) of the samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of n samples above it."""
    for q in TAIL_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 9) >= MIN_TAIL_SAMPLES:
            return q
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Sample count, median and the deepest tail percentile the count allows."""
    out: dict = {"n": len(samples)}
    if not samples:
        return out
    out["p50"] = statistics.median(samples)
    q = tail_percentile(len(samples))
    if q is not None:
        out[f"p{q:g}"] = percentile(samples, q)
    return out


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

"""Percentiles that refuse what their sample cannot support."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile needs at least this many samples above it.
MIN_TAIL_SAMPLES = 10


def supported(n: int, pct: float) -> bool:
    """True when ``n`` samples leave at least ten beyond percentile ``pct``."""
    return n * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile ``pct`` (0 < pct < 100) of ``values``.

    Raises ``ValueError`` when fewer than ten samples lie beyond the
    requested percentile (p50 needs 20 samples, p90 needs 100).
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    n = len(values)
    if not supported(n, pct):
        raise ValueError(
            f"p{pct:g} needs {math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - pct))} "
            f"samples, got {n}"
        )
    ordered = sorted(values)
    rank = (n - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    """Plain median, for repeated measurements of one quantity."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0

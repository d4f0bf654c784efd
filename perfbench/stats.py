"""Order statistics for the benchmark's reports.

Timings are reported as a median and a tail percentile.  A tail is only as
good as the samples behind it, so :func:`tail` never reports a percentile
with fewer than :data:`MIN_BEYOND` samples beyond it: with too few samples
for the requested percentile it falls back to the highest one that has
them, and says which one it used.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``.

    Failed operations enter as ``math.inf`` and sort last, so they count as
    past every latency limit.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def supported_quantile(count: int, target: float) -> float:
    """The highest quantile ``<= target`` that keeps ``MIN_BEYOND`` samples
    strictly beyond its nearest-rank position; ``0.0`` when none does."""
    if count <= MIN_BEYOND:
        return 0.0
    rank = min(math.ceil(target * count), count - MIN_BEYOND)
    return min(target, rank / count)


def tail(values: Sequence[float], target: float) -> Dict[str, float]:
    """The tail report: value at the supported quantile, the quantile used
    and the sample count.  With too few samples for any tail the value is
    the maximum and the quantile reads ``1.0``."""
    count = len(values)
    used = supported_quantile(count, target)
    if used == 0.0:
        return {"value": max(values) if values else 0.0, "quantile": 1.0,
                "samples": count}
    return {"value": percentile(values, used), "quantile": used,
            "samples": count}


def finite_ms(seconds: float) -> float:
    """Seconds as milliseconds; a failed op's ``inf`` becomes a large finite
    sentinel so the JSON report stays valid."""
    return seconds * 1e3 if math.isfinite(seconds) else 1e9

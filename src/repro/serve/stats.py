"""Small shared statistics helpers for the serving stack.

One home for latency-percentile math so the engine, the load
generator, and the replica pool all report the same definition.
"""

from __future__ import annotations

import math
from typing import Iterable

#: the quantiles every latency window reports, and their JSON keys.
QUANTILES = ((0.50, "p50_ms"), (0.95, "p95_ms"), (0.99, "p99_ms"))


def nearest_rank(values: Iterable[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of ``values``, in the input unit.

    Raw-value sibling of :func:`nearest_rank_percentiles` for callers
    that *act* on a quantile rather than report it — the hedge delay
    (p95 of a replica's recent latency window) and the deadline
    admission gate (p50 of the same window).  Returns 0.0 for an empty
    window so callers can treat "no history yet" as "no estimate".
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    n = len(ordered)
    index = max(0, min(n - 1, math.ceil(q * n) - 1))
    return ordered[index]


def nearest_rank_percentiles(values: Iterable[float]) -> dict[str, float]:
    """Nearest-rank percentiles of ``values`` (seconds), reported in ms.

    Nearest-rank: the q-th percentile of n ordered samples is the
    sample at rank ``ceil(q * n)`` (1-based), i.e. index
    ``ceil(q * n) - 1``.  The previous ``int(q * n)`` indexed one rank
    too high — p50 of a 2-sample window reported the max.
    """
    ordered = sorted(values)
    if not ordered:
        return {key: 0.0 for _, key in QUANTILES} | {"count": 0}
    n = len(ordered)
    out: dict[str, float] = {}
    for q, key in QUANTILES:
        index = max(0, min(n - 1, math.ceil(q * n) - 1))
        out[key] = round(ordered[index] * 1e3, 3)
    out["count"] = n
    return out

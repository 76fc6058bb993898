"""Hedged-request policy for the serving pool.

Hedging is the tail-latency defense of "The Tail at Scale": if the
routed replica has not replied within a *hedge delay*, send the same
request to the next healthy replica and take whichever reply lands
first.  Because inference here is pure (same model, same input, same
answer), the duplicate is semantically free — the only costs are the
extra compute and the accounting, both of which the pool tracks
exactly (``hedges_fired`` / ``hedges_won``).

The delay is adaptive: the :data:`QUANTILE` (p95) of the routed
replica's recent latency window, clamped to ``[floor_s, ceiling_s]``.
The floor keeps a cold or lightly-loaded pool from hedging everything
(p95 of a tiny window is noisy); the ceiling bounds how long a hung
replica can hold a request hostage before the hedge fires.
Cache-affinity routing stays primary — hedges only fire on the slow
path, so the happy path never cools sibling caches.

Hedge-added load is **budgeted**: at most ``BURST + RATE × accepted``
timer hedges may have fired over the pool's lifetime.  Under sustained
overload every request crosses the p95 delay — unbounded hedging would
duplicate a saturated pool's entire workload and *reduce* goodput,
the classic hedging failure mode.  The burst covers the moment a
replica hangs (several in-flight requests need rescuing at once,
before the circuit breaker has enough strikes to trip); the rate bounds
steady-state duplicate work to a rounding error.  Failover after a
*terminal* leg failure is exempt: the first leg is dead, so the retry
adds no duplicate load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.serve.stats import nearest_rank

#: the latency quantile the hedge delay tracks.
QUANTILE = 0.95

#: timer hedges allowed regardless of traffic — sized for the burst of
#: concurrent in-flight requests a freshly-hung replica strands before
#: its breaker trips.
BURST = 8

#: additional timer hedges per accepted request (steady-state hedge-load
#: bound: 2%).
RATE = 0.02


@dataclass(frozen=True)
class HedgePolicy:
    """When to fire a hedge, derived from observed latency."""

    #: never hedge before this many seconds, however fast the replica
    #: usually is.
    floor_s: float = 0.05
    #: always hedge by this many seconds, however slow it usually is.
    ceiling_s: float = 2.0

    def __post_init__(self) -> None:
        if self.floor_s < 0:
            raise ValueError(f"floor_s must be >= 0, got {self.floor_s}")
        if self.ceiling_s < self.floor_s:
            raise ValueError(
                f"ceiling_s {self.ceiling_s} < floor_s {self.floor_s}"
            )

    def budget(self, accepted: int) -> float:
        """Max timer hedges that may have fired after ``accepted`` requests."""
        return BURST + RATE * accepted

    def delay_s(self, window: Iterable[float]) -> float:
        """The hedge delay for a replica with this latency history.

        ``window`` holds recent request latencies in seconds; an empty
        window (cold replica) yields the ceiling — when we know
        nothing, hedge late rather than stampede.
        """
        observed = nearest_rank(window, QUANTILE)
        if observed <= 0.0:
            return self.ceiling_s
        return min(self.ceiling_s, max(self.floor_s, observed))

"""Per-replica circuit breakers for the serving pool.

A tiny three-state machine, one instance per replica slot:

``closed``
    healthy: requests route normally.  Each failure increments a
    consecutive-failure counter; any success resets it.  Reaching
    ``threshold`` consecutive failures trips the breaker open.
``open``
    the replica leaves the routing set; its traffic spills to siblings
    deterministically (the pool walks slots in a fixed order).  After
    ``cooldown_s`` the next routing decision is allowed through as a
    half-open probe.
``half_open``
    probe requests are admitted at most one per ``cooldown_s``.  A
    probe success closes the breaker (full re-admission); a probe
    failure re-opens it and restarts the cooldown clock.  Probe
    admission is time-throttled rather than in-flight-counted on
    purpose: a probe whose outcome is never reported (e.g. a hedge
    loser whose reply was discarded) ages out one cooldown later
    instead of leaking a probe slot forever.

What counts as a failure is the *caller's* decision — the pool reports
replica-attributable outcomes (timeout, death, corrupt reply, lost
hedge race) and deliberately does not report :class:`OverloadedError`,
which is healthy load shedding, not replica sickness.

Thread-safe; every transition is recorded so ``/metrics`` can expose
trip/probe counts alongside the live state.
"""

from __future__ import annotations

import threading
import time


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probe re-admission."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._last_probe_at: float | None = None
        # cumulative transition counters for /metrics
        self._trips = 0
        self._probes_fired = 0
        self._reclosures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            # cooldown elapsed: the next allow() becomes a probe.
            self._state = self.HALF_OPEN
            self._last_probe_at = None
        return self._state

    def allow(self) -> bool:
        """May a request route to this replica right now?

        In ``half_open`` a ``True`` admits a probe; follow up with
        :meth:`record_success` or :meth:`record_failure` when its
        outcome is known (an unreported probe simply ages out).
        """
        with self._lock:
            state = self._state_locked()
            if state == self.CLOSED:
                return True
            if state == self.OPEN:
                return False
            now = self._clock()
            if (
                self._last_probe_at is not None
                and now - self._last_probe_at < self.cooldown_s
            ):
                return False
            self._last_probe_at = now
            self._probes_fired += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state != self.CLOSED:
                # a success is proof of life whatever state we thought
                # the replica was in — re-close immediately.
                self._reclosures += 1
            self._state = self.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                # a failed probe re-opens immediately; cooldown restarts.
                self._trip_locked()
                return
            if self._state == self.OPEN:
                # stragglers from before the trip; nothing to update.
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.threshold:
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = self.threshold
        self._trips += 1

    def reset(self) -> None:
        """Force-close, e.g. after the replica is respawned or reloaded."""
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._last_probe_at = None

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "probes_fired": self._probes_fired,
                "reclosures": self._reclosures,
            }

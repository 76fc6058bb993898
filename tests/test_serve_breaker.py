"""Unit tests for the circuit breaker and the hedging policy.

Pure state-machine tests: the breaker takes an injectable clock, so
every transition is exercised without sleeping.
"""

import pytest

from repro.serve.breaker import CircuitBreaker
from repro.serve.hedge import HedgePolicy

pytestmark = pytest.mark.timeout(30)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(threshold=3, cooldown_s=1.0, clock=clock)


class TestClosed:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_success_resets_failure_streak(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        # 2 + 2 failures but never 3 consecutive: still closed
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_threshold_consecutive_failures_trip(self, breaker):
        for _ in range(3):
            assert breaker.state == CircuitBreaker.CLOSED
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.stats()["trips"] == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestOpen:
    def _trip(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_open_refuses_until_cooldown(self, breaker, clock):
        self._trip(breaker)
        clock.advance(0.99)
        assert not breaker.allow()
        clock.advance(0.02)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_straggler_failures_do_not_extend_cooldown(
        self, breaker, clock
    ):
        self._trip(breaker)
        clock.advance(0.5)
        breaker.record_failure()  # in-flight from before the trip
        clock.advance(0.6)  # 1.1s after the *trip*
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_success_while_open_recloses(self, breaker, clock):
        # an in-flight request from before the trip completing fine is
        # proof of life — re-admit immediately.
        self._trip(breaker)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert breaker.stats()["reclosures"] == 1


class TestHalfOpen:
    def _half_open(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_one_probe_per_interval(self, breaker, clock):
        self._half_open(breaker, clock)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # throttled
        clock.advance(1.01)  # one probe per cooldown
        assert breaker.allow()
        assert breaker.stats()["probes_fired"] == 2

    def test_probe_success_closes(self, breaker, clock):
        self._half_open(breaker, clock)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() and breaker.allow()  # no throttle anymore

    def test_probe_failure_reopens(self, breaker, clock):
        self._half_open(breaker, clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.stats()["trips"] == 2
        # and the cooldown restarted from the re-trip
        clock.advance(1.01)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_unreported_probe_ages_out(self, clock):
        # a probe whose outcome is never reported (hedge loser whose
        # reply was forgotten) must not wedge the breaker: admission is
        # time-throttled, not in-flight-counted.
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()  # probe fired, outcome never reported
        assert not breaker.allow()
        clock.advance(1.0)  # one cooldown later
        assert breaker.allow()

    def test_reset_force_closes(self, breaker, clock):
        self._half_open(breaker, clock)
        breaker.reset()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.stats()["consecutive_failures"] == 0


class TestHedgePolicy:
    def test_cold_window_uses_ceiling(self):
        policy = HedgePolicy()
        assert policy.delay_s([]) == policy.ceiling_s

    def test_p95_of_window(self):
        policy = HedgePolicy(floor_s=0.0, ceiling_s=10.0)
        # nearest-rank p95 of 100 values is sorted index 94
        assert policy.delay_s([0.1] * 90 + [1.0] * 10) == pytest.approx(1.0)
        assert policy.delay_s([0.1] * 95 + [1.0] * 5) == pytest.approx(0.1)

    def test_clamped_to_floor_and_ceiling(self):
        policy = HedgePolicy(floor_s=0.05, ceiling_s=2.0)
        assert policy.delay_s([0.001] * 100) == 0.05
        assert policy.delay_s([30.0] * 100) == 2.0

"""Open- and closed-loop schedule arithmetic against a fake clock."""

import pytest

from bench.load import MAX_THREADS, Request, closed_loop, due_times, open_loop


class FakeClock:
    """Time advances only when the driver sleeps or a request is served."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _requests(n):
    return [Request(f"r{i}", "/v1/qa", b"{}") for i in range(n)]


def _server(clock, service_s):
    def issue(thread_no, request):
        clock.now += service_s
        return 200, b"{}"
    return issue


def test_due_times_space_requests_by_the_rate():
    due = due_times(20.0, 0.5, start=3.0)
    assert len(due) == 10
    assert due[0] == 3.0
    assert due[1:] == pytest.approx([3.0 + i / 20.0 for i in range(1, 10)])


def test_on_time_requests_have_no_lateness():
    clock = FakeClock()
    replies = open_loop(
        _requests(4), due_times(10.0, 0.4, 0.0), _server(clock, 0.03),
        threads=1, clock=clock, sleep=clock.sleep,
    )
    assert [r.sent - r.due for r in replies] == pytest.approx([0.0] * 4)
    assert [r.latency for r in replies] == pytest.approx([0.03] * 4)


def test_a_slow_server_is_charged_from_the_due_time():
    # service 0.15 s against one request every 0.1 s: each send slips
    # 0.05 s further behind, and the slip counts as latency.
    clock = FakeClock()
    replies = open_loop(
        _requests(5), due_times(10.0, 0.5, 0.0), _server(clock, 0.15),
        threads=1, clock=clock, sleep=clock.sleep,
    )
    assert [r.sent - r.due for r in replies] == pytest.approx(
        [0.0, 0.05, 0.10, 0.15, 0.20]
    )
    assert [r.service for r in replies] == pytest.approx([0.15] * 5)
    assert [r.latency for r in replies] == pytest.approx(
        [0.15, 0.20, 0.25, 0.30, 0.35]
    )


def test_closed_loop_sends_until_the_duration_ends():
    clock = FakeClock()
    replies, elapsed = closed_loop(
        _requests(10), 0.35, _server(clock, 0.1), threads=1, clock=clock
    )
    assert [r.index for r in replies] == [0, 1, 2, 3]
    assert elapsed == pytest.approx(0.4)
    assert all(r.due is None for r in replies)


def test_closed_loop_stops_when_the_pool_runs_out():
    clock = FakeClock()
    replies, _ = closed_loop(
        _requests(3), 10.0, _server(clock, 0.1), threads=1, clock=clock
    )
    assert len(replies) == 3


def test_the_driver_never_uses_more_than_two_threads():
    clock = FakeClock()
    with pytest.raises(ValueError):
        closed_loop(_requests(1), 1.0, _server(clock, 0.1),
                    threads=MAX_THREADS + 1, clock=clock)


def test_schedule_longer_than_the_pool_is_refused():
    clock = FakeClock()
    with pytest.raises(ValueError):
        open_loop(_requests(2), [0.0, 0.1, 0.2], _server(clock, 0.0),
                  clock=clock, sleep=clock.sleep)

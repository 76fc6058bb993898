"""HTTP load from one driver process, open or closed loop.

The driver uses at most :data:`MAX_THREADS` threads, each owning one
keep-alive :class:`http.client.HTTPConnection`, and sends bodies encoded
before timing starts.  In the open loop, request ``i`` is due at
``start + i / rate`` whatever happened to earlier requests; its latency
runs from that due time to the last response byte, so a stall that
delays later sends is charged to them, and the driver's own lateness
(sent − due) is reported separately.  In the closed loop each thread
sends its next request as soon as the previous reply is read.

The loops take the clock, the sleep and the request call as arguments,
so the schedule arithmetic can be checked against a fake clock.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: load threads, and so keep-alive connections, per driver process.
MAX_THREADS = 2

_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Request:
    """One pre-encoded POST."""

    id: str
    path: str
    body: bytes


@dataclass
class Reply:
    """What the driver saw for one request (times from the driver clock)."""

    index: int
    due: float | None
    sent: float
    done: float
    status: int
    raw: bytes

    def payload(self) -> dict[str, Any] | None:
        try:
            return json.loads(self.raw)
        except ValueError:
            return None

    @property
    def latency(self) -> float:
        """Due (open loop) or sent (closed loop) to last byte, seconds."""
        return self.done - (self.due if self.due is not None else self.sent)

    @property
    def service(self) -> float:
        return self.done - self.sent


#: ``issue(thread_no, request) -> (status, body)``; status 0 = no reply.
Issue = Callable[[int, Request], "tuple[int, bytes]"]


def due_times(rate: float, duration: float, start: float) -> list[float]:
    """The open-loop schedule: one request every ``1 / rate`` seconds."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    return [start + i / rate for i in range(int(rate * duration))]


def _run(threads: int, body: Callable[[int], None]) -> None:
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"the driver uses 1 to {MAX_THREADS} threads")
    workers = [
        threading.Thread(target=body, args=(n,), name=f"bench-load-{n}")
        for n in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def open_loop(
    requests: Sequence[Request],
    due: Sequence[float],
    issue: Issue,
    *,
    threads: int = MAX_THREADS,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Reply]:
    """Send ``requests[i]`` at ``due[i]`` from the first free thread."""
    if len(due) > len(requests):
        raise ValueError("schedule is longer than the request pool")
    lock = threading.Lock()
    cursor = [0]
    replies: list[Reply] = []

    def body(thread_no: int) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(due):
                    return
                cursor[0] += 1
            wait = due[index] - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            status, raw = issue(thread_no, requests[index])
            done = clock()
            with lock:
                replies.append(Reply(index, due[index], sent, done, status, raw))

    _run(threads, body)
    return sorted(replies, key=lambda reply: reply.index)


def closed_loop(
    requests: Sequence[Request],
    duration: float,
    issue: Issue,
    *,
    threads: int = MAX_THREADS,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[Reply], float]:
    """Keep ``threads`` requests in flight for ``duration`` seconds (or
    until the pool runs out); returns the replies and the elapsed time
    from start to the last completion."""
    lock = threading.Lock()
    cursor = [0]
    replies: list[Reply] = []
    start = clock()
    end = start + duration

    def body(thread_no: int) -> None:
        while clock() < end:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] += 1
            sent = clock()
            status, raw = issue(thread_no, requests[index])
            done = clock()
            with lock:
                replies.append(Reply(index, None, sent, done, status, raw))

    _run(threads, body)
    last = max((reply.done for reply in replies), default=start)
    return sorted(replies, key=lambda reply: reply.index), last - start


class HttpIssuer:
    """One keep-alive connection per load thread to a local server."""

    def __init__(self, port: int, threads: int = MAX_THREADS):
        self.port = port
        self._connections: list[http.client.HTTPConnection | None] = (
            [None] * threads
        )

    def __call__(self, thread_no: int, request: Request) -> tuple[int, bytes]:
        connection = self._connections[thread_no]
        if connection is None:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30
            )
            self._connections[thread_no] = connection
        try:
            connection.request("POST", request.path, request.body, _HEADERS)
            reply = connection.getresponse()
            return reply.status, reply.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            self._connections[thread_no] = None
            return 0, b""

    def close(self) -> None:
        for connection in self._connections:
            if connection is not None:
                connection.close()
        self._connections = [None] * len(self._connections)


def get_json(port: int, path: str) -> tuple[int, dict[str, Any] | None]:
    """One GET on a fresh connection; ``(0, None)`` if nothing answers."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read())
    except (OSError, http.client.HTTPException, ValueError):
        return 0, None
    finally:
        connection.close()

"""Spans recorded from outside the program, and their self-time arithmetic.

A :class:`Tracer` wraps public functions where their callers look them up
(``patch(repro.serve.http, "sanitize_context", ...)`` rather than the
defining module) and records one span per call: name, start, end, parent
span and request id.  Spans stay in memory and are written as JSONL when
the traced process ends.

A span's *self time* is its duration minus the part of its interval that
its children cover; children on other threads or overlapping each other
are counted once (interval union), so self times of one tree add up to
the root's duration.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator


def patch(owner: Any, attr: str, make_wrapper: Callable) -> Any:
    """Replace ``owner.attr`` with ``make_wrapper(original_function)``.

    Keeps a ``staticmethod``/``classmethod`` descriptor intact, so the
    wrapped attribute binds exactly like the original.  Returns the raw
    attribute that was replaced.
    """
    raw = vars(owner)[attr]
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(make_wrapper(raw.__func__))
    else:
        wrapped = make_wrapper(raw)
    setattr(owner, attr, wrapped)
    return raw


def wrap_with(owner: Any, attr: str, context: Callable[[], ContextManager]) -> None:
    """Run every call of ``owner.attr`` inside a fresh ``context()``."""

    def make_wrapper(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with context():
                return function(*args, **kwargs)

        return wrapper

    patch(owner, attr, make_wrapper)


class Tracer:
    """Thread-aware span recorder.

    Each thread keeps its own stack of open spans; the current request id
    is thread-local too (one HTTP handler thread serves one request at a
    time).  A span takes the request id current when it *ends*, so the
    spans that open before the id is known (the request's root) still
    carry it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent, request_id]`` per span, by index.
        self.spans: list[list[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> str | None:
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: str | None) -> None:
        self._local.request_id = value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, parent, None])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record = self.spans[index]
            record[2] = self.clock()
            record[4] = self.request_id

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        wrap_with(owner, attr, lambda: self.span(name))

    def records(self) -> list[dict[str, Any]]:
        """Every span as a dict; ``parent`` indexes this list and ``end``
        is ``None`` for a span still open."""
        return [
            {"name": name, "start": start, "end": end,
             "parent": parent, "request_id": rid}
            for name, start, end, parent, rid in list(self.spans)
        ]

    def dump(self, path: str | Path) -> None:
        """Write :meth:`records` as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def load_spans(path: str | Path) -> list[dict[str, Any]]:
    """Read a :meth:`Tracer.dump` file back into :meth:`Tracer.records`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Self time of every span (same order as ``spans``).

    ``parent`` is the index of the parent span in ``spans``.  A span that
    never ended has self time 0 and covers nothing of its parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and span["end"] is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["end"])
            )
    return [
        0.0 if span["end"] is None else
        (span["end"] - span["start"])
        - covered(children.get(index, []), span["start"], span["end"])
        for index, span in enumerate(spans)
    ]

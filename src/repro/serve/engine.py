"""The serving core: admission control, micro-batching, worker threads.

Request lifecycle::

    submit ──► admission queue ──► micro-batch ──► worker compute ──► response
        │            │
        │            └─ full ─► OverloadedError (typed 429, retry-after hint)
        └─ cache hit ─────────────────────────────► response (no queue, no work)

A bounded per-task queue feeds a pool of worker threads.  Each worker
coalesces queued requests of one task into a micro-batch — up to
``max_batch_size`` requests, lingering at most ``max_wait_s`` after the
oldest request arrived — and runs the whole batch through the model in
one call (``predict_batch`` for QA, list-based ``predict`` for the
verifier).  Every worker owns an independent unpickled *replica* of each
model, so inference never takes a lock.  Models keep no per-request
state: the evidence view a request's context needs is memoized on the
context itself and is freed with it once the response is out.

Accounting invariant, checked by ``/metrics`` consumers and the tests::

    accepted == completed + rejected + in_flight

``accepted`` counts every submission the engine ever saw (including the
ones it immediately rejected); a request ends in exactly one of
``completed`` (a response was produced — possibly an error response,
e.g. a blown per-request deadline) or ``rejected`` (overload or
shutdown; no compute was done), and is ``in_flight`` in between.  All
counters also mirror into a :class:`repro.telemetry.Telemetry` sink
under the ``serve`` section so run reports can fold serving stats in.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    DeadlineExceededError,
    EngineStoppedError,
    OverloadedError,
    RegistryError,
    ServeError,
)
from repro.models.features import tokenize
from repro.pipelines.samples import ReasoningSample, TaskType
from repro.sampling.labeler import ClaimLabel
from repro.serve import chaos
from repro.serve.registry import (
    TASK_QA,
    TASK_VERIFY,
    TASKS,
    LoadedModel,
    model_task,
)
from repro.serve.stats import nearest_rank, nearest_rank_percentiles
from repro.tables.context import TableContext
from repro.telemetry import Telemetry

#: latency samples kept per task for percentile estimation.
_LATENCY_WINDOW = 8192

#: per-model-version latency windows kept for canary comparison; the
#: oldest window is dropped when a reload pushes past this many
#: distinct model ids.
_MODEL_WINDOWS = 8

#: recent per-request compute samples backing the retry-after hint.
#: Bounded so the estimate tracks the *currently served* model: a
#: lifetime average would stay stale for the rest of the process
#: lifetime after a reload to a slower/faster model.
_RETRY_WINDOW = 512

#: fallback retry-after hint when the engine has no throughput estimate.
_DEFAULT_RETRY_AFTER = 0.05


@dataclass(frozen=True)
class EngineConfig:
    """Batching, admission, and cache policy for the engine."""

    workers: int = 2
    max_batch_size: int = 16
    #: micro-batch linger: how long a batch may wait for company after
    #: its oldest request arrived.  Microseconds matter here — the
    #: default trades 2ms of worst-case added latency for batch
    #: amortization.
    max_wait_s: float = 0.002
    #: admission bound across both task queues; submissions beyond it
    #: are rejected with :class:`OverloadedError`.
    queue_limit: int = 256
    #: LRU response cache entries (0 disables caching).
    cache_size: int = 1024
    #: deadline applied to requests that do not carry their own.
    default_deadline_s: float | None = None
    #: unpickle an independent model replica per worker (lock-free
    #: inference).  Disable only for tests that need object identity.
    replicate_models: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass(frozen=True)
class InferenceRequest:
    """One question or claim to run against a served model."""

    id: str
    task: str
    sentence: str
    context: TableContext
    #: wall-clock budget in seconds from submission; ``None`` defers to
    #: the engine's ``default_deadline_s``.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ServeError(
                f"unknown task {self.task!r} (expected one of {TASKS})"
            )


@dataclass(frozen=True)
class Timing:
    """Per-request latency breakdown, in seconds."""

    queue_s: float
    compute_s: float
    total_s: float
    batch_size: int

    def to_json(self) -> dict[str, Any]:
        return {
            "queue_ms": round(self.queue_s * 1e3, 3),
            "compute_ms": round(self.compute_s * 1e3, 3),
            "total_ms": round(self.total_s * 1e3, 3),
            "batch_size": self.batch_size,
        }


@dataclass(frozen=True)
class InferenceResponse:
    """The typed result of one request."""

    id: str
    task: str
    ok: bool
    answer: tuple[str, ...] = ()
    label: str | None = None
    error: str | None = None
    cached: bool = False
    model: str = ""
    timing: Timing | None = None
    #: ``SanitizeReport.to_json()`` of the serve-side sanitizer pass,
    #: present only when the request asked for ``sanitize=true``.
    sanitize: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.id,
            "task": self.task,
            "ok": self.ok,
            "cached": self.cached,
            "model": self.model,
        }
        if self.task == TASK_QA:
            payload["answer"] = list(self.answer)
        else:
            payload["label"] = self.label
        if self.error is not None:
            payload["error"] = self.error
        if self.timing is not None:
            payload["latency"] = self.timing.to_json()
        if self.sanitize is not None:
            payload["sanitize"] = self.sanitize
        return payload


class PendingResponse:
    """A slot the caller can wait on for one request's response."""

    __slots__ = ("request", "_event", "_response", "enqueued_at")

    def __init__(self, request: InferenceRequest, enqueued_at: float):
        self.request = request
        self.enqueued_at = enqueued_at
        self._event = threading.Event()
        self._response: InferenceResponse | None = None

    def _complete(self, response: InferenceResponse) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> InferenceResponse:
        if not self._event.wait(timeout):
            raise ServeError(
                f"timed out waiting for response to request "
                f"{self.request.id!r}"
            )
        assert self._response is not None
        return self._response


def response_from_json(payload: dict[str, Any]) -> InferenceResponse:
    """Rebuild an :class:`InferenceResponse` from its ``to_json`` payload.

    Shared by the HTTP client and the replica pool (replica processes
    ship responses over a pipe as JSON-compatible dicts).
    """
    latency = payload.get("latency") or {}
    timing = None
    if latency:
        timing = Timing(
            queue_s=latency.get("queue_ms", 0.0) / 1e3,
            compute_s=latency.get("compute_ms", 0.0) / 1e3,
            total_s=latency.get("total_ms", 0.0) / 1e3,
            batch_size=int(latency.get("batch_size", 1)),
        )
    return InferenceResponse(
        id=payload.get("id", ""),
        task=payload.get("task", TASK_QA),
        ok=bool(payload.get("ok")),
        answer=tuple(payload.get("answer") or ()),
        label=payload.get("label"),
        error=(
            payload["error"]
            if isinstance(payload.get("error"), str)
            else None
        ),
        cached=bool(payload.get("cached")),
        model=payload.get("model", ""),
        timing=timing,
        sanitize=payload.get("sanitize"),
    )


def normalize_sentence(sentence: str) -> str:
    """Cache normalization of a question/claim: token stream only."""
    return " ".join(tokenize(sentence))


def context_digest(context: TableContext) -> str:
    """Stable digest of a context's canonical JSON serialization."""
    payload = json.dumps(
        context.to_json(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _ResponseCache:
    """A locked LRU of completed responses (size 0 = disabled)."""

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict[tuple, InferenceResponse] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def key(self, slot: "_ModelSlot", request: InferenceRequest) -> tuple:
        # Keyed on the slot's *content fingerprint*, not its model_id:
        # every unregistered model shares the id "unregistered-{task}@v0",
        # so an id-keyed cache would serve one model's answers for a
        # different model swapped in under the same id.
        return (
            slot.fingerprint,
            request.task,
            normalize_sentence(request.sentence),
            context_digest(request.context),
        )

    def flush_task(self, task: str) -> int:
        """Drop every cached response for ``task`` (model reload)."""
        with self._lock:
            stale = [key for key in self._entries if key[1] == task]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def get(self, key: tuple) -> InferenceResponse | None:
        with self._lock:
            response = self._entries.get(key)
            if response is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return response

    def put(self, key: tuple, response: InferenceResponse) -> None:
        with self._lock:
            self._entries[key] = response
            self._entries.move_to_end(key)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class _ModelSlot:
    """One served model: identity + payload for per-worker replication.

    ``fingerprint`` is a digest of the artifact *content* (the registry
    manifest's SHA-256 for registered models, a payload hash
    otherwise); the response cache keys on it so two different models
    that happen to share a display id can never share cache entries.
    """

    def __init__(self, task: str, loaded: Any):
        import pickle

        self.task = task
        if isinstance(loaded, LoadedModel):
            self.model = loaded.model
            self.payload = loaded.payload
            self.model_id = loaded.record.model_id
            self.fingerprint = loaded.record.artifact_sha256
        else:
            self.model = loaded
            self.payload = pickle.dumps(loaded, protocol=4)
            self.model_id = f"unregistered-{task}@v0"
            self.fingerprint = hashlib.sha256(self.payload).hexdigest()

    def replica(self) -> Any:
        import pickle

        return pickle.loads(self.payload)


class InferenceEngine:
    """Thread-based micro-batching inference engine over loaded models.

    ``models`` maps task (``"qa"`` | ``"verify"``) to either a
    :class:`~repro.serve.registry.LoadedModel` or a bare model object.
    Call :meth:`start` before submitting and :meth:`stop` (drain) when
    done; the engine is also a context manager doing both.
    """

    def __init__(
        self,
        models: dict[str, Any],
        config: EngineConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        if not models:
            raise ServeError("engine needs at least one model")
        for task in models:
            if task not in TASKS:
                raise ServeError(f"unknown task {task!r} in models mapping")
        self.config = config or EngineConfig()
        self.telemetry = telemetry or Telemetry()
        self._slots = {
            task: _ModelSlot(task, loaded) for task, loaded in models.items()
        }
        self._cond = threading.Condition()
        self._queues: dict[str, deque[PendingResponse]] = {
            task: deque() for task in self._slots
        }
        self._cache = _ResponseCache(self.config.cache_size)
        self._ids = itertools.count(1)
        # lifecycle
        self._started = False
        self._stopping = False
        self._threads: list[threading.Thread] = []
        self._started_at = time.monotonic()
        # accounting (all mutated under self._cond)
        self.accepted = 0
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self.deadline_expired = 0
        self.deadline_rejected = 0
        self._queued = 0       # waiting in a queue
        self._computing = 0    # taken by a worker, not yet completed
        self._batches = 0
        self._batched_requests = 0
        self._max_batch_seen = 0
        self._compute_seconds = 0.0  # summed per-request compute time
        self._recent_compute: deque[float] = deque(maxlen=_RETRY_WINDOW)
        self._reloads = 0
        self._latencies: dict[str, deque[float]] = {
            task: deque(maxlen=_LATENCY_WINDOW) for task in self._slots
        }
        # per-model-version windows: after a reload, old and new
        # versions report side by side for canary comparison.
        self._latencies_by_model: dict[str, deque[float]] = {}
        # serving fault injection (None unless a plan was installed in
        # this process's environment before the engine was built — the
        # zero-overhead-when-disabled guarantee is this single None).
        self._chaos = chaos.engine_injector()
        self._sanitize = {
            "requests": 0,
            "tables_changed": 0,
            "cells_repaired": 0,
            "cells_nulled": 0,
            "cells_kept_text": 0,
            "structure_repairs": 0,
            "stage_errors": 0,
        }

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "InferenceEngine":
        """Spin up the worker pool (idempotent)."""
        with self._cond:
            if self._started:
                return self
            self._started = True
            self._stopping = False
            self._started_at = time.monotonic()
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the engine; with ``drain`` every queued request completes.

        New submissions are rejected immediately either way.  Without
        ``drain``, queued requests are failed fast with a ``stopped``
        error response (counted as *rejected* — no compute happened)
        so no caller is ever left hanging.
        """
        abandoned: list[PendingResponse] = []
        with self._cond:
            self._stopping = True
            if not drain:
                for task_queue in self._queues.values():
                    while task_queue:
                        pending = task_queue.popleft()
                        self._queued -= 1
                        self.rejected += 1
                        self.telemetry.increment("serve", "rejected")
                        abandoned.append(pending)
            self._cond.notify_all()
        for pending in abandoned:
            pending._complete(
                InferenceResponse(
                    id=pending.request.id,
                    task=pending.request.task,
                    ok=False,
                    error="stopped: engine shut down before compute",
                    model=self._slots[pending.request.task].model_id,
                )
            )
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        with self._cond:
            self._started = False

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop(drain=True)

    @property
    def draining(self) -> bool:
        return self._stopping

    # -- submission ---------------------------------------------------------
    def submit(self, request: InferenceRequest) -> PendingResponse:
        """Admit a request; returns a waitable :class:`PendingResponse`.

        Raises :class:`OverloadedError` when the admission queue is
        full and :class:`EngineStoppedError` after :meth:`stop` — both
        count as *rejected*, and the engine did no model work.
        """
        slot = self._slots.get(request.task)
        if slot is None:
            raise ServeError(
                f"no model loaded for task {request.task!r} "
                f"(serving: {', '.join(sorted(self._slots))})"
            )
        cache_key = None
        if self._cache.size > 0:
            # digest outside the lock: hashing a big table must not
            # serialize admissions.
            cache_key = self._cache.key(slot, request)
        now = time.monotonic()
        with self._cond:
            self.accepted += 1
            self.telemetry.increment("serve", "accepted")
            if self._stopping:
                self.rejected += 1
                self.telemetry.increment("serve", "rejected")
                raise EngineStoppedError(
                    "engine is stopped/draining; not accepting requests"
                )
            if cache_key is not None:
                hit = self._cache.get(cache_key)
                if hit is not None:
                    self.completed += 1
                    self.telemetry.increment("serve", "completed")
                    self.telemetry.increment("serve", "cache_hit")
                    pending = PendingResponse(request, now)
                    pending._complete(
                        InferenceResponse(
                            id=request.id,
                            task=hit.task,
                            ok=hit.ok,
                            answer=hit.answer,
                            label=hit.label,
                            error=hit.error,
                            cached=True,
                            model=hit.model,
                            timing=Timing(0.0, 0.0, 0.0, 1),
                        )
                    )
                    return pending
            deadline = (
                request.deadline_s
                if request.deadline_s is not None
                else self.config.default_deadline_s
            )
            if deadline is not None:
                # admission gate: if the remaining budget is already
                # below this engine's recent p50 compute, reject now —
                # computing an answer nobody will wait for is the worst
                # way to spend a saturated pool's time.
                estimate = (
                    nearest_rank(self._recent_compute, 0.50)
                    if self._recent_compute
                    else 0.0
                )
                if deadline <= 0 or (estimate > 0 and deadline < estimate):
                    self.rejected += 1
                    self.deadline_rejected += 1
                    self.telemetry.increment("serve", "rejected")
                    self.telemetry.increment("serve", "deadline_rejected")
                    raise DeadlineExceededError(
                        f"deadline budget {max(0.0, deadline):.3f}s below "
                        f"recent p50 compute {estimate:.3f}s; rejecting "
                        "before work",
                        remaining_s=max(0.0, deadline),
                        estimate_s=estimate if deadline > 0 else None,
                    )
            if self._queued >= self.config.queue_limit:
                self.rejected += 1
                self.telemetry.increment("serve", "rejected")
                self.telemetry.increment("serve", "overloaded")
                raise OverloadedError(
                    f"admission queue full ({self._queued}/"
                    f"{self.config.queue_limit})",
                    retry_after=self._retry_after_locked(),
                )
            pending = PendingResponse(request, now)
            self._queues[request.task].append(pending)
            self._queued += 1
            self.telemetry.increment("serve", f"queued/{request.task}")
            # notify_all: a single notify could wake only a worker that
            # is lingering on the *other* task's micro-batch, leaving
            # this request to an idle worker's poll interval instead.
            self._cond.notify_all()
        return pending

    def infer(
        self,
        task: str,
        sentence: str,
        context: TableContext,
        *,
        deadline_s: float | None = None,
        request_id: str | None = None,
        timeout: float | None = 30.0,
    ) -> InferenceResponse:
        """Blocking convenience: submit and wait for the response."""
        request = InferenceRequest(
            id=request_id or f"r{next(self._ids)}",
            task=task,
            sentence=sentence,
            context=context,
            deadline_s=deadline_s,
        )
        return self.submit(request).result(timeout)

    def note_sanitize(self, report: dict[str, Any]) -> None:
        """Fold one ``SanitizeReport.to_json()`` into engine accounting.

        The serve frontend calls this for every request that asked for
        ``sanitize=true``; the aggregate surfaces as the ``sanitize``
        section of :meth:`stats` (and thus ``/metrics``) and mirrors
        into telemetry like the other serve counters.
        """
        cells = report.get("cells", {}) or {}
        structure = report.get("structure", {}) or {}
        errors = report.get("errors", []) or []
        changed = bool(
            structure
            or cells.get("repaired", 0)
            or cells.get("nulled", 0)
        )
        with self._cond:
            self._sanitize["requests"] += 1
            self._sanitize["tables_changed"] += 1 if changed else 0
            self._sanitize["cells_repaired"] += cells.get("repaired", 0)
            self._sanitize["cells_nulled"] += cells.get("nulled", 0)
            self._sanitize["cells_kept_text"] += cells.get("kept_text", 0)
            self._sanitize["structure_repairs"] += sum(structure.values())
            self._sanitize["stage_errors"] += len(errors)
            self.telemetry.increment("serve", "sanitize_requests")
            if changed:
                self.telemetry.increment("serve", "sanitize_changed")

    def _retry_after_locked(self) -> float:
        """Seconds until capacity likely frees (caller holds the lock).

        Estimated from a bounded window of *recent* per-request compute
        times, not the lifetime average: after a reload to a model with
        a different speed, a lifetime ``compute_seconds / completed``
        average would keep hinting the old model's pace for the rest of
        the process lifetime.
        """
        if not self._recent_compute:
            return _DEFAULT_RETRY_AFTER
        per_request = sum(self._recent_compute) / len(self._recent_compute)
        backlog = self._queued + self._computing
        estimate = per_request * backlog / max(1, self.config.workers)
        return min(5.0, max(0.005, estimate))

    # -- model reload -------------------------------------------------------
    def swap_model(self, task: str, loaded: Any) -> dict[str, str]:
        """Swap the served model for ``task`` in place, zero downtime.

        The single-process reload path (the multi-process path replaces
        whole replicas; see :mod:`repro.serve.pool`).  Worker threads
        pick up the new slot on their next batch — requests already
        being computed finish on the old model and are tagged with its
        ``model_id``.  The response cache's entries for ``task`` are
        flushed, and the retry-after window is reset so the overload
        hint re-learns the new model's pace.
        """
        if task not in self._slots:
            raise ServeError(
                f"no model loaded for task {task!r} "
                f"(serving: {', '.join(sorted(self._slots))})"
            )
        try:
            new_task = (
                loaded.record.task if isinstance(loaded, LoadedModel)
                else model_task(loaded)
            )
        except RegistryError:
            # bare stand-ins (tests, stubs) aren't registry-typed;
            # __init__ accepts them, so the swap path must too.
            new_task = task
        if new_task != task:
            raise ServeError(
                f"cannot swap a {new_task!r} model into the {task!r} slot"
            )
        slot = _ModelSlot(task, loaded)
        with self._cond:
            old = self._slots[task]
            self._slots[task] = slot
            self._reloads += 1
            self._recent_compute.clear()
            self.telemetry.increment("serve", "reloads")
        self._cache.flush_task(task)
        return {"task": task, "old": old.model_id, "new": slot.model_id}

    # -- worker side --------------------------------------------------------
    def _worker(self) -> None:
        # Per-worker model replicas, re-resolved per batch by slot
        # identity so a swap_model() reload takes effect on the very
        # next batch without restarting workers.
        replicas: dict[str, tuple[_ModelSlot, Any]] = {}
        while True:
            taken = self._take_batch()
            if taken is None:
                return
            task, batch = taken
            slot = self._slots[task]
            cached = replicas.get(task)
            if cached is None or cached[0] is not slot:
                model = (
                    slot.replica()
                    if self.config.replicate_models
                    else slot.model
                )
                replicas[task] = (slot, model)
            self._run_batch(task, slot, replicas[task][1], batch)
            # an idle worker must not pin its last batch (and the
            # requests' contexts) while it waits for the next one
            del taken, batch

    def _pick_task_locked(self) -> str | None:
        """The task whose queue head has waited longest (FIFO across tasks)."""
        best: str | None = None
        best_age = None
        for task, task_queue in self._queues.items():
            if not task_queue:
                continue
            age = task_queue[0].enqueued_at
            if best_age is None or age < best_age:
                best, best_age = task, age
        return best

    def _take_batch(self) -> tuple[str, list[PendingResponse]] | None:
        """Block until a micro-batch is ready; ``None`` means shut down.

        Coalescing policy: take the oldest queued request, then keep
        the batch open until it is full (``max_batch_size``) or
        ``max_wait_s`` has passed since that request arrived.  While
        draining, the linger is skipped — shutdown flushes immediately.
        """
        with self._cond:
            while True:
                task = self._pick_task_locked()
                if task is not None:
                    break
                if self._stopping:
                    return None
                self._cond.wait(0.1)
            task_queue = self._queues[task]
            batch = [task_queue.popleft()]
            flush_at = batch[0].enqueued_at + self.config.max_wait_s
            while len(batch) < self.config.max_batch_size:
                if task_queue:
                    batch.append(task_queue.popleft())
                    continue
                remaining = flush_at - time.monotonic()
                if remaining <= 0 or self._stopping:
                    break
                self._cond.wait(remaining)
                if not task_queue:
                    # woke for another task's request or the timeout;
                    # re-check the clock, not the queue, for loop exit.
                    if time.monotonic() >= flush_at or self._stopping:
                        break
            self._queued -= len(batch)
            self._computing += len(batch)
            self._batches += 1
            self._batched_requests += len(batch)
            self._max_batch_seen = max(self._max_batch_seen, len(batch))
            self.telemetry.increment("serve", f"batches/{task}")
        return task, batch

    def _to_sample(self, request: InferenceRequest) -> ReasoningSample:
        if request.task == TASK_QA:
            return ReasoningSample(
                uid=request.id,
                task=TaskType.QUESTION_ANSWERING,
                context=request.context,
                sentence=request.sentence,
                answer=("",),  # placeholder; prediction ignores it
            )
        return ReasoningSample(
            uid=request.id,
            task=TaskType.FACT_VERIFICATION,
            context=request.context,
            sentence=request.sentence,
            label=ClaimLabel.UNKNOWN,  # placeholder; prediction ignores it
        )

    def _run_batch(
        self,
        task: str,
        slot: _ModelSlot,
        model: Any,
        batch: list[PendingResponse],
    ) -> None:
        model_id = slot.model_id
        now = time.monotonic()
        live: list[PendingResponse] = []
        finished: list[tuple[PendingResponse, InferenceResponse]] = []
        for pending in batch:
            deadline = (
                pending.request.deadline_s
                if pending.request.deadline_s is not None
                else self.config.default_deadline_s
            )
            if deadline is not None and now - pending.enqueued_at > deadline:
                finished.append((
                    pending,
                    InferenceResponse(
                        id=pending.request.id,
                        task=task,
                        ok=False,
                        error=(
                            f"deadline_exceeded: spent "
                            f"{now - pending.enqueued_at:.3f}s queued, "
                            f"budget was {deadline:.3f}s"
                        ),
                        model=model_id,
                        timing=Timing(
                            now - pending.enqueued_at, 0.0,
                            now - pending.enqueued_at, len(batch),
                        ),
                    ),
                ))
            else:
                live.append(pending)
        if live:
            compute_started = time.monotonic()
            if self._chaos is not None:
                # injected extra service time, summed across the batch
                # and slept once so a slow batch *looks* slow to every
                # consumer of compute_s (latency windows, hedge delays,
                # retry-after) exactly like a genuinely slow model.
                extra = 0.0
                for _ in live:
                    spec = self._chaos.on_request()
                    if spec is not None and spec.kind == "slow":
                        extra += spec.seconds
                if extra > 0:
                    time.sleep(extra)
            try:
                samples = [self._to_sample(p.request) for p in live]
                if task == TASK_QA:
                    answers = model.predict_batch(samples)
                    results: list[InferenceResponse] = [
                        InferenceResponse(
                            id=p.request.id, task=task, ok=True,
                            answer=tuple(answer), model=model_id,
                        )
                        for p, answer in zip(live, answers)
                    ]
                else:
                    labels = model.predict(samples)
                    results = [
                        InferenceResponse(
                            id=p.request.id, task=task, ok=True,
                            label=label.value, model=model_id,
                        )
                        for p, label in zip(live, labels)
                    ]
            except Exception as error:
                results = [
                    InferenceResponse(
                        id=p.request.id, task=task, ok=False,
                        error=f"{type(error).__name__}: {error}",
                        model=model_id,
                    )
                    for p in live
                ]
            compute_ended = time.monotonic()
            per_request_compute = (compute_ended - compute_started) / len(live)
            for pending, response in zip(live, results):
                queue_s = compute_started - pending.enqueued_at
                total_s = compute_ended - pending.enqueued_at
                finished.append((
                    pending,
                    InferenceResponse(
                        id=response.id, task=response.task, ok=response.ok,
                        answer=response.answer, label=response.label,
                        error=response.error, model=response.model,
                        timing=Timing(
                            queue_s, per_request_compute, total_s, len(batch)
                        ),
                    ),
                ))
        # account + publish
        with self._cond:
            for pending, response in finished:
                self._computing -= 1
                self.completed += 1
                self.telemetry.increment("serve", "completed")
                if not response.ok:
                    self.errors += 1
                    self.telemetry.increment("serve", "error_responses")
                    if response.error and response.error.startswith(
                        "deadline_exceeded"
                    ):
                        self.deadline_expired += 1
                        self.telemetry.increment("serve", "deadline_expired")
                if response.timing is not None:
                    self._compute_seconds += response.timing.compute_s
                    if response.timing.compute_s > 0:
                        self._recent_compute.append(
                            response.timing.compute_s
                        )
                    self._latencies[task].append(response.timing.total_s)
                    window = self._latencies_by_model.get(response.model)
                    if window is None:
                        while len(self._latencies_by_model) >= _MODEL_WINDOWS:
                            self._latencies_by_model.pop(
                                next(iter(self._latencies_by_model))
                            )
                        window = deque(maxlen=_LATENCY_WINDOW)
                        self._latencies_by_model[response.model] = window
                    window.append(response.timing.total_s)
        for pending, response in finished:
            if (
                response.ok
                and self._cache.size > 0
            ):
                self._cache.put(
                    self._cache.key(slot, pending.request), response
                )
            pending._complete(response)
        with self._cond:
            self.telemetry.add_time(
                f"serve/{task}", sum(
                    r.timing.compute_s for _, r in finished
                    if r.timing is not None
                ), calls=len(finished),
            )

    # -- stats --------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._queued + self._computing

    @staticmethod
    def _percentiles(values: list[float]) -> dict[str, float]:
        return nearest_rank_percentiles(values)

    def stats(self) -> dict[str, Any]:
        """A JSON-compatible snapshot of engine accounting.

        ``reconciles`` asserts the lifecycle invariant
        ``accepted == completed + rejected + in_flight`` over the
        snapshot itself (taken under the lock, so it is exact).
        """
        with self._cond:
            in_flight = self._queued + self._computing
            uptime = max(1e-9, time.monotonic() - self._started_at)
            latencies = {
                task: self._percentiles(list(window))
                for task, window in self._latencies.items()
            }
            latencies_by_model = {
                model_id: self._percentiles(list(window))
                for model_id, window in self._latencies_by_model.items()
            }
            snapshot: dict[str, Any] = {
                "uptime_s": round(uptime, 3),
                "accepted": self.accepted,
                "completed": self.completed,
                "rejected": self.rejected,
                "in_flight": in_flight,
                "queue_depth": self._queued,
                "errors": self.errors,
                "deadline_expired": self.deadline_expired,
                "deadline_rejected": self.deadline_rejected,
                "throughput_rps": round(self.completed / uptime, 2),
                "batches": {
                    "count": self._batches,
                    "requests": self._batched_requests,
                    "mean_size": round(
                        self._batched_requests / self._batches, 3
                    ) if self._batches else 0.0,
                    "max_size": self._max_batch_seen,
                },
                "cache": {
                    "hits": self._cache.hits,
                    "misses": self._cache.misses,
                    "entries": len(self._cache),
                    "hit_rate": round(
                        self._cache.hits
                        / max(1, self._cache.hits + self._cache.misses),
                        4,
                    ),
                },
                "latency": latencies,
                "latency_by_model": latencies_by_model,
                "sanitize": dict(self._sanitize),
                "models": {
                    task: slot.model_id for task, slot in self._slots.items()
                },
                "reloads": self._reloads,
                "draining": self._stopping,
                "workers": self.config.workers,
                "max_batch_size": self.config.max_batch_size,
                "reconciles": (
                    self.accepted
                    == self.completed + self.rejected + in_flight
                ),
            }
        return snapshot

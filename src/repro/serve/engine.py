"""One replica's core: admission control, micro-batching, worker threads.

Request lifecycle::

    submit ──► admission queue ──► micro-batch ──► worker compute ──► response
        │            │
        │            └─ full ─► OverloadedError (typed 429, retry-after hint)
        └─ cache hit ─────────────────────────────► response (no queue, no work)

A bounded per-task queue feeds a pool of worker threads.  Batching is
work-conserving: an idle worker takes the task whose queue head has
waited longest, pops up to ``max_batch_size`` requests that are already
queued there, and runs them through the model at once
(``predict_batch`` for QA, list-based ``predict`` for the verifier).  No
worker waits for company, so a lone request is never held; batches form
on their own when requests queue behind busy workers.  Every worker
owns an independent unpickled *replica* of each model, so inference
never takes a lock.  Models keep no per-request state: the evidence
view a request's context needs is memoized on the context itself and
is freed with it once the response is out.

An engine serves a fixed set of models for its whole life.  It is what
a :class:`~repro.serve.pool.ReplicaPool` slot runs — inside a replica
process, or hosted in the frontend's own process — and the pool owns
everything that spans engines: reload (a fresh engine replaces the old
one, which drains), health, routing, deadline admission and the one
serving ledger (``accepted == completed + rejected + in_flight``).  An
engine only expires a request whose budget ran out while it was queued.

:meth:`InferenceEngine.stats` is one flat snapshot of what only the
engine can see: its queue depth and queued-plus-computing count, its
batches, its response cache, the requests it expired and the model ids
it serves.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.errors import (
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
    TASKS,
    LoadedModel,
    model_task,
)
from repro.tables.context import TableContext

#: recent per-request compute samples backing the retry-after hint.
#: Bounded so the estimate tracks the current load rather than the
#: process's whole history.
_RETRY_WINDOW = 512

#: fallback retry-after hint when the engine has no throughput estimate.
_DEFAULT_RETRY_AFTER = 0.05


@dataclass(frozen=True)
class EngineConfig:
    """Batching, admission, and cache policy for the engine."""

    workers: int = 2
    max_batch_size: int = 16
    #: admission bound across both task queues; submissions beyond it
    #: are rejected with :class:`OverloadedError`.
    queue_limit: int = 256
    #: LRU response cache entries (0 disables caching).
    cache_size: int = 1024
    #: deadline applied to requests that do not carry their own.
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")


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

    __slots__ = ("request", "_event", "_response", "enqueued_at", "_on_done")

    def __init__(
        self,
        request: InferenceRequest,
        enqueued_at: float,
        on_done: Callable[[InferenceResponse], None] | None = None,
    ):
        self.request = request
        self.enqueued_at = enqueued_at
        self._event = threading.Event()
        self._response: InferenceResponse | None = None
        self._on_done = on_done

    def _complete(self, response: InferenceResponse) -> None:
        self._response = response
        self._event.set()
        if self._on_done is not None:
            self._on_done(response)

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
        # so an id-keyed cache would confuse two different models that
        # share a display id.
        return (
            slot.fingerprint,
            request.task,
            normalize_sentence(request.sentence),
            context_digest(request.context),
        )

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

        try:
            served_task = (
                loaded.record.task if isinstance(loaded, LoadedModel)
                else model_task(loaded)
            )
        except RegistryError:
            # bare stand-ins (tests, stubs) aren't registry-typed
            served_task = task
        if served_task != task:
            raise ServeError(
                f"cannot serve a {served_task!r} model in the {task!r} slot"
            )
        self.task = task
        self.loaded = loaded
        if isinstance(loaded, LoadedModel):
            self.payload = loaded.payload
            self.model_id = loaded.record.model_id
            self.fingerprint = loaded.record.artifact_sha256
        else:
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
    done; the engine is also a context manager doing both.  To serve it
    over HTTP, host it in a pool (:meth:`ReplicaPool.hosting
    <repro.serve.pool.ReplicaPool.hosting>`).
    """

    def __init__(
        self,
        models: dict[str, Any],
        config: EngineConfig | None = None,
    ):
        if not models:
            raise ServeError("engine needs at least one model")
        for task in models:
            if task not in TASKS:
                raise ServeError(f"unknown task {task!r} in models mapping")
        self.config = config or EngineConfig()
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
        # engine-side figures (all mutated under self._cond); the
        # serving ledger is the pool's.
        self.deadline_expired = 0
        self._queued = 0       # waiting in a queue
        self._computing = 0    # taken by a worker, not yet completed
        self._batches = 0
        self._batched_requests = 0
        self._max_batch_seen = 0
        self._recent_compute: deque[float] = deque(maxlen=_RETRY_WINDOW)
        # serving fault injection (None unless a plan was installed in
        # this process's environment before the engine was built — the
        # zero-overhead-when-disabled guarantee is this single None).
        self._chaos = chaos.engine_injector()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "InferenceEngine":
        """Spin up the worker pool (idempotent)."""
        with self._cond:
            if self._started:
                return self
            self._started = True
            self._stopping = False
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
        error response (no compute happened) so no caller is ever left
        hanging.  Every completion callback has run when this returns.
        """
        abandoned: list[PendingResponse] = []
        with self._cond:
            self._stopping = True
            if not drain:
                for task_queue in self._queues.values():
                    while task_queue:
                        abandoned.append(task_queue.popleft())
                        self._queued -= 1
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

    def models(self) -> dict[str, Any]:
        """task -> the loaded model this engine was built from."""
        return {task: slot.loaded for task, slot in self._slots.items()}

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        request: InferenceRequest,
        on_done: Callable[[InferenceResponse], None] | None = None,
    ) -> PendingResponse:
        """Admit a request; returns a waitable :class:`PendingResponse`.

        Raises :class:`OverloadedError` when the admission queue is
        full and :class:`EngineStoppedError` after :meth:`stop`; the
        engine did no model work for either.  ``on_done`` is called
        with the response, on the completing thread, once it exists
        (before this returns for a cache hit) — never under the
        engine's lock, so a callback may block without stalling
        admissions.
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
        pending = PendingResponse(request, time.monotonic(), on_done)
        with self._cond:
            if self._stopping:
                raise EngineStoppedError(
                    "engine is stopped/draining; not accepting requests"
                )
            hit = None if cache_key is None else self._cache.get(cache_key)
            if hit is None and self._queued >= self.config.queue_limit:
                raise OverloadedError(
                    f"admission queue full ({self._queued}/"
                    f"{self.config.queue_limit})",
                    retry_after=self._retry_after_locked(),
                )
            if hit is None:
                self._queues[request.task].append(pending)
                self._queued += 1
                self._cond.notify()
        if hit is not None:
            pending._complete(replace(
                hit, id=request.id, cached=True,
                timing=Timing(0.0, 0.0, 0.0, 1), sanitize=None,
            ))
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

    def _retry_after_locked(self) -> float:
        """Seconds until capacity likely frees (caller holds the lock).

        Estimated from a bounded window of *recent* per-request compute
        times, not the lifetime average, so the hint follows the
        current load.
        """
        if not self._recent_compute:
            return _DEFAULT_RETRY_AFTER
        per_request = sum(self._recent_compute) / len(self._recent_compute)
        backlog = self._queued + self._computing
        estimate = per_request * backlog / max(1, self.config.workers)
        return min(5.0, max(0.005, estimate))

    # -- worker side --------------------------------------------------------
    def _worker(self) -> None:
        # per-worker model replicas, unpickled on a task's first batch
        replicas: dict[str, Any] = {}
        while True:
            taken = self._take_batch()
            if taken is None:
                return
            task, batch = taken
            slot = self._slots[task]
            model = replicas.get(task)
            if model is None:
                model = replicas[task] = slot.replica()
            self._run_batch(task, slot, model, batch)
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
        """Block until a request is queued; ``None`` means shut down.

        Work-conserving: take the task whose queue head has waited
        longest and pop up to ``max_batch_size`` of its requests that
        are already queued — never wait for more to arrive.  A batch
        larger than one is whatever queued behind busy workers.
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
            size = min(len(task_queue), self.config.max_batch_size)
            batch = [task_queue.popleft() for _ in range(size)]
            self._queued -= len(batch)
            self._computing += len(batch)
            self._batches += 1
            self._batched_requests += len(batch)
            self._max_batch_seen = max(self._max_batch_seen, len(batch))
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
                timing = Timing(
                    compute_started - pending.enqueued_at,
                    per_request_compute,
                    compute_ended - pending.enqueued_at,
                    len(batch),
                )
                finished.append((pending, replace(response, timing=timing)))
        with self._cond:
            self._computing -= len(finished)
            for _, response in finished:
                if response.timing.compute_s > 0:
                    self._recent_compute.append(response.timing.compute_s)
                if (response.error or "").startswith("deadline_exceeded"):
                    self.deadline_expired += 1
        for pending, response in finished:
            if response.ok and self._cache.size > 0:
                self._cache.put(
                    self._cache.key(slot, pending.request), response
                )
            pending._complete(response)

    # -- stats --------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """One flat JSON-compatible snapshot of the engine's own figures.

        ``in_flight`` counts requests queued or computing here (the
        pool's ``in_flight`` is the serving ledger's); ``models`` maps
        task to the served model id.
        """
        with self._cond:
            return {
                "queue_depth": self._queued,
                "in_flight": self._queued + self._computing,
                "deadline_expired": self.deadline_expired,
                "batches": self._batches,
                "batched_requests": self._batched_requests,
                "max_batch": self._max_batch_seen,
                "cache_hits": self._cache.hits,
                "cache_misses": self._cache.misses,
                "cache_entries": len(self._cache),
                "models": {
                    task: slot.model_id for task, slot in self._slots.items()
                },
            }

"""The serving backend: N replica slots behind one surface.

Every server serves a :class:`ReplicaPool`.  A slot holds one
:class:`~repro.serve.engine.InferenceEngine` behind one of two
*transports*:

* **process** (``repro serve --replicas N``) — each slot is a replica
  process that loads its own models from the registry (shared-nothing:
  no shared memory, no locks across processes), reached over a private
  pipe.  Python's GIL caps CPU-bound inference in one process no matter
  how many threads it runs; N processes scale past it.
* **in-process** (``PoolConfig(in_process=True)``, the CLI default, or
  :meth:`ReplicaPool.hosting` around an existing engine) — one slot
  whose engine runs in the frontend's own process; requests and
  responses are handed over as objects, with no pickling and no pipe.

Either way the pool owns what spans engines, once: routing, deadline
admission, zero-downtime reload, per-slot health and the one serving
ledger — each request is booked here exactly once, as ``accepted`` and
then ``completed`` (any response, ``ok`` or not; ``ok: false`` ones also
count in ``errors``) or ``rejected`` (a typed exception), and is
``in_flight`` in between, so ``accepted == completed + rejected +
in_flight``.  Engines report only what the pool cannot see (queues,
batches, cache, expiries).

The backend surface the HTTP frontend and
:class:`~repro.serve.http.ServeClient` rely on is ``infer`` (one
request, routed, hedged and booked), ``reload`` (rolling, returns
``{"old", "new", "replicas"}``), ``stats`` (the ``/metrics`` snapshot;
a pure read), ``health`` (the ``/healthz`` payload), ``note_sanitize``
(folds a sanitizer report into ``/metrics``) and ``stop``.

Topology::

    HTTP frontend (parent process, threads)
        │  ReplicaPool.infer(task, sentence, context)
        │  deterministic route: sha256(task·sentence·context) % N
        ├── pipe ── replica 0: InferenceEngine + model replicas
        ├── pipe ── replica 1:        "
        └── pipe ── replica N-1:      "

Routing is *deterministic*: the replica index is a stable hash of the
request content (task, normalized sentence, context digest), so a
repeated request always lands on the same replica and its response
cache — cache locality survives scale-out, and a given request's
placement is reproducible across runs of the same pool shape.

Zero-downtime reload (``reload()``): for each slot, a *fresh* replica
is started loading the registry's current default version; only after
it reports ready is it swapped into the routing table, and only then is
the old replica drained — it finishes every request already routed to
it, request by request, then exits.  An in-process slot reloads the same
way: a fresh engine replaces the old one, which drains.  At every instant each
slot has a serving replica, so a sustained request stream sees zero
failures across a reload.  Responses are tagged with the serving
``model_id`` (the engine already does this) and the pool keeps
per-model-version latency windows, so ``/metrics`` reads as a canary
comparison across versions while old and new overlap.

A replica process that dies unexpectedly (OOM kill, segfault) closes
its pipe.  Its reader thread then fails the in-flight requests with
error responses, the slot leaves the routing set (``respawning`` in
``/healthz``), and that same thread spawns the replacement, retrying a
failed spawn with capped backoff — nothing has to call ``stats`` or
``health`` for it to happen (``replica_restarts`` counts these).  A
replica that was told to stop or drain is never respawned.

Resilience layer (all per-request, all accounted in ``/metrics``):

* **Circuit breakers** — one :class:`~repro.serve.breaker.CircuitBreaker`
  per slot.  Replica-attributable failures (timeout, death, corrupt
  reply, lost hedge race) trip it open; the slot leaves the routing set
  and its traffic *spills* to the next live slot in a fixed clockwise
  walk, so spilled placement is as deterministic as primary placement.
  Half-open probes re-admit the replica.  :class:`OverloadedError` never
  trips a breaker: shedding load is a healthy replica doing its job.
* **Hedged dispatch** (two or more slots) — a request has at most two
  legs, its primary and one second leg, and the first reply wins; the
  loser's reply slot is forgotten, so its late answer is dropped on the
  floor by the reader thread.  Inference is pure, so the duplicate is
  safe.  The second leg starts when the routed replica has not replied
  within the :class:`~repro.serve.hedge.HedgePolicy` delay (p95 of that
  slot's recent latencies, clamped; budgeted), at once when the lone
  leg's breaker opens while it waits, or when the only leg fails
  (failover).  Only failover may fail open into a slot whose breaker
  refuses; the other two go only to a slot whose breaker admits
  traffic.  The rules are one pure planner, :func:`plan`, which
  ``_dispatch`` drives.  ``hedges_fired`` and ``hedges_won`` account
  for every hedge exactly.
* **Deadline admission** — a request whose remaining end-to-end budget
  is below the routed slot's recent p50 latency is rejected up front
  with a typed ``deadline`` verdict instead of computed and discarded;
  budgets shrink as they cross each layer (HTTP → pool → replica
  engine).
* **Fault injection** — replica children inherit any installed
  :mod:`repro.serve.chaos` plan through the environment and fire
  ``hang`` / ``crash`` / ``corrupt`` faults at their pipe loop, which is
  how the chaos suite proves all of the above without patching
  internals.

Replica processes are started with the ``spawn`` method: the parent
runs many threads (HTTP handlers, pipe readers), and forking a
multi-threaded process can deadlock on locks held mid-operation by
other threads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.errors import (
    DeadlineExceededError,
    EngineStoppedError,
    OverloadedError,
    ServeError,
)
from repro.serve import chaos
from repro.serve.breaker import CircuitBreaker
from repro.serve.engine import (
    EngineConfig,
    InferenceEngine,
    InferenceRequest,
    InferenceResponse,
    Timing,
    context_digest,
    normalize_sentence,
    response_from_json,
)
from repro.serve.hedge import HedgePolicy
from repro.serve.registry import TASKS, ModelRegistry
from repro.serve.stats import nearest_rank, nearest_rank_percentiles

#: latency samples kept per task / per model version at the pool level.
_LATENCY_WINDOW = 8192

#: per-model-version windows kept for canary comparison.
_MODEL_WINDOWS = 8

#: recent per-slot latency samples backing the hedge delay and the
#: pool-side deadline admission gate.  Lives on the handle, so a
#: respawned or reloaded replica starts with a cold window.
_SLOT_WINDOW = 512

#: how long the parent waits for a freshly spawned replica's ready
#: handshake (model loading + imports happen inside this budget).
_SPAWN_TIMEOUT = 120.0

#: flat engine snapshot figures the pool's ``stats`` sums over slots.
_ENGINE_TOTALS = (
    "queue_depth", "deadline_expired", "batches", "batched_requests",
    "cache_hits", "cache_misses", "cache_entries",
)

#: resubmission budget for requests that race a rolling reload: a
#: request dispatched to a replica in the same instant it begins
#: draining is bounced with a "stopped" rejection and retried on the
#: slot's fresh replica.
_REROUTE_ATTEMPTS = 3


@dataclass(frozen=True)
class ReplicaSpec:
    """What a replica loads: registry + one model per task.

    ``versions`` maps task -> (name, version); ``version`` may be
    ``None``, meaning *resolve the registry default at load time* —
    that resolution happens when the replica starts (inside a replica
    process), so a reload that starts fresh replicas picks up a default
    pointer moved since the pool started.
    """

    registry_dir: str
    models: tuple[tuple[str, str, str | None], ...]  # (task, name, version)

    def resolve(self) -> dict[str, Any]:
        """Load and verify every model (runs inside the replica)."""
        registry = ModelRegistry(self.registry_dir)
        return {
            task: registry.load(name, version)
            for task, name, version in self.models
        }

    def updated(
        self, overrides: dict[str, tuple[str, str | None]]
    ) -> "ReplicaSpec":
        """This spec with some tasks re-pointed at ``(name, version)``."""
        merged = {task: (name, version) for task, name, version in self.models}
        merged.update(overrides)
        return ReplicaSpec(
            registry_dir=self.registry_dir,
            models=tuple(
                (task, name, version)
                for task, (name, version) in sorted(merged.items())
            ),
        )


@dataclass(frozen=True)
class PoolConfig:
    """Pool shape and per-replica engine policy."""

    replicas: int = 2
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: run the (single) slot's engine in this process instead of a
    #: spawned replica process.
    in_process: bool = False
    #: parent-side wait for one response before giving up on it.
    request_timeout_s: float = 30.0
    #: hedged-dispatch policy; ``None`` disables hedging entirely
    #: (single-leg dispatch).  A one-slot pool has nowhere to hedge to.
    hedge: HedgePolicy | None = field(default_factory=HedgePolicy)
    #: consecutive replica-attributable failures that open a slot's
    #: circuit breaker; ``0`` disables breakers.
    breaker_threshold: int = 5
    #: how long an open breaker keeps its slot out of routing before
    #: admitting a half-open probe.
    breaker_cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ServeError("replicas must be >= 1")
        if self.in_process and self.replicas != 1:
            raise ServeError("an in-process pool has exactly one slot")
        if self.breaker_threshold < 0:
            raise ServeError("breaker_threshold must be >= 0")


def _replica_main(
    spec: ReplicaSpec, config: EngineConfig, conn, slot: int = 0
) -> None:
    """Entry point of one replica process (runs under ``spawn``).

    Protocol (parent -> replica):

    * ``("infer", rid, request_fields…)`` — submit to the engine;
      replied with ``("response", rid, response_json)`` or
      ``("rejected", rid, kind, message, retry_after)``.
    * ``("stats", rid)`` — replied with ``("stats", rid, stats_json)``.
    * ``("stop", drain)`` — drain (or fail fast) the engine, flush all
      pending replies, send ``("bye", stats_json)``, exit.

    The engine does the real work; this loop only moves messages.  This
    thread submits, and each response is sent from the engine's
    completion callback (on the worker that computed it, or here for a
    cache hit), so a slow request never blocks the pipe behind it.
    Workers run every callback before ``engine.stop(drain=True)``
    returns, so ``("bye", …)`` always follows the last response.

    Chaos: any :mod:`repro.serve.chaos` plan installed in the parent
    rides into this process through the (spawn-inherited) environment;
    ``REPRO_SERVE_REPLICA`` is set to ``slot`` *before* the engine is
    built so both the pipe-level injector here (hang/crash/corrupt) and
    the engine's own injector (slow) gate on the right replica index.
    """
    os.environ[chaos.REPLICA_ENV] = str(slot)
    injector = chaos.replica_injector()
    engine = InferenceEngine(spec.resolve(), config)
    engine.start()
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # parent died; exit below
                pass

    def reply(rid: int) -> Callable[[InferenceResponse], None]:
        return lambda response: send(("response", rid, response.to_json()))

    send(("ready", {"pid": os.getpid(), "models": engine.stats()["models"]}))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # parent died or closed the pipe: fail fast, don't linger
                engine.stop(drain=False, timeout=5.0)
                return
            kind = message[0]
            if kind == "infer":
                _, rid, task, sentence, context, deadline_s, request_id = (
                    message
                )
                if injector is not None:
                    fault = injector.on_request()
                    if fault is not None:
                        if fault.kind == "hang":
                            # swallow the request: no reply, ever.  The
                            # parent's hedge/timeout machinery owns it.
                            continue
                        if fault.kind == "crash":
                            os._exit(fault.exit_code)
                        if fault.kind == "corrupt":
                            # a reply that is not a response dict at
                            # all; the parent must harden, not crash.
                            send(("response", rid,
                                  "\x00corrupt-reply-payload"))
                            continue
                request = InferenceRequest(
                    id=request_id, task=task, sentence=sentence,
                    context=context, deadline_s=deadline_s,
                )
                try:
                    engine.submit(request, on_done=reply(rid))
                except OverloadedError as error:
                    send(("rejected", rid, "overloaded", str(error),
                          error.retry_after))
                except EngineStoppedError as error:
                    send(("rejected", rid, "stopped", str(error), 0.0))
                except ServeError as error:
                    send(("rejected", rid, "error", str(error), 0.0))
            elif kind == "stats":
                send(("stats", message[1], engine.stats()))
            elif kind == "stop":
                engine.stop(drain=bool(message[1]), timeout=None)
                # Grace window: an infer that raced into the pipe
                # behind the stop message would otherwise sit unread
                # until the parent's request timeout.  Reject each with
                # the typed "stopped" verdict so the parent reroutes it
                # to the slot's fresh replica immediately.
                while conn.poll(0.25):
                    try:
                        extra = conn.recv()
                    except (EOFError, OSError):
                        break
                    if extra[0] == "infer":
                        send(("rejected", extra[1], "stopped",
                              "replica draining", 0.0))
                    elif extra[0] == "stats":
                        send(("stats", extra[1], engine.stats()))
                send(("bye", engine.stats()))
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Waiter:
    """Parent-side slot for one in-flight cross-process request.

    ``group`` is an optional shared event also set on completion, so a
    dispatcher waiting on *any of several legs* (hedging) can block on
    one event instead of polling each waiter in turn.
    """

    __slots__ = ("event", "kind", "value", "group")

    def __init__(self, group: threading.Event | None = None) -> None:
        self.event = threading.Event()
        self.kind: str | None = None
        self.value: Any = None
        self.group = group

    def complete(self, kind: str, value: Any) -> None:
        self.kind = kind
        self.value = value
        self.event.set()
        if self.group is not None:
            self.group.set()


def _interpret(waiter: _Waiter) -> InferenceResponse:
    """Resolve a completed waiter into a response or a typed error.

    Hardened against corrupt replies: a payload that does not decode as
    a response dict (the ``corrupt`` chaos fault, or a genuinely
    garbled pipe) raises :class:`ServeError` — the caller turns that
    into a typed ``replica_failed`` outcome and a breaker strike, never
    an unhandled exception in a dispatcher thread.  In-process slots
    complete waiters with the response object itself, or with the
    engine's own overload error (kind ``raised``).
    """
    if waiter.kind == "response":
        payload = waiter.value[0]
        if isinstance(payload, InferenceResponse):
            return payload
        try:
            if not isinstance(payload, dict):
                raise TypeError(
                    f"reply payload is {type(payload).__name__}, not dict"
                )
            return response_from_json(payload)
        except Exception as error:
            raise ServeError(f"corrupt replica reply: {error}") from error
    if waiter.kind == "rejected":
        verdict, message, retry_after = waiter.value
        if verdict == "overloaded":
            raise OverloadedError(message, retry_after=retry_after)
        if verdict == "stopped":
            raise EngineStoppedError(message)
        raise ServeError(message)
    if waiter.kind == "raised":
        raise waiter.value[0]
    raise ServeError(str(waiter.value[0]))  # "died"


class _ReplicaHandle:
    """Parent-side view of one replica process: pipe, waiters, state.

    ``on_death`` runs on the reader thread once the process is gone
    without having been asked to stop or drain (a crash or kill).
    """

    in_process = False
    _ids = itertools.count(1)

    def __init__(
        self,
        spec: ReplicaSpec,
        config: EngineConfig,
        slot: int,
        on_death: Callable[["_ReplicaHandle"], None],
    ):
        self.spec = spec
        self.config = config
        self.slot = slot
        self.on_death = on_death
        self.uid = next(self._ids)
        self.models: dict[str, str] = {}
        self.pid: int | None = None
        self.draining = False
        self.dead = False
        self._stop_sent = False
        self._send_lock = threading.Lock()
        self._waiters: dict[int, _Waiter] = {}
        self._waiters_lock = threading.Lock()
        self._rid = itertools.count(1)
        self._process = None
        self._conn = None
        self._reader: threading.Thread | None = None
        self._final_stats: dict[str, Any] | None = None
        self.started_at = time.monotonic()
        #: recent request latencies against this replica, seconds.
        #: Appends are GIL-atomic; readers snapshot via ``list()``.
        self.latency_window: deque[float] = deque(maxlen=_SLOT_WINDOW)

    # -- lifecycle ----------------------------------------------------------
    def start(self, timeout: float = _SPAWN_TIMEOUT) -> "_ReplicaHandle":
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=True)
        self._conn = parent_conn
        self._process = context.Process(
            target=_replica_main,
            args=(self.spec, self.config, child_conn, self.slot),
            name=f"serve-replica-{self.slot}-{self.uid}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(timeout):
            self.terminate()
            raise ServeError(
                f"replica {self.slot} did not come up within {timeout}s"
            )
        kind, info = parent_conn.recv()
        if kind != "ready":  # pragma: no cover - defensive
            self.terminate()
            raise ServeError(
                f"replica {self.slot} sent {kind!r} instead of ready"
            )
        self.models = dict(info["models"])
        self.pid = info["pid"]
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"replica-reader-{self.slot}-{self.uid}",
            daemon=True,
        )
        self._reader.start()
        return self

    def _read_loop(self) -> None:
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "bye":
                self._final_stats = message[1]
                break
            rid = message[1]
            with self._waiters_lock:
                waiter = self._waiters.pop(rid, None)
            if waiter is not None:
                waiter.complete(kind, message[2:])
        self.dead = True
        # fail whatever is still waiting: the process is gone.
        with self._waiters_lock:
            orphans = list(self._waiters.values())
            self._waiters.clear()
        for waiter in orphans:
            waiter.complete(
                "died", ("replica process exited mid-request",)
            )
        if not (self._stop_sent or self.draining):
            self.on_death(self)

    def _send(self, message: tuple) -> None:
        with self._send_lock:
            self._conn.send(message)

    # -- requests -----------------------------------------------------------
    def submit_remote(
        self,
        request: InferenceRequest,
        group: threading.Event | None = None,
    ) -> tuple[int, _Waiter]:
        """Ship one request over the pipe without waiting for the reply.

        Returns ``(rid, waiter)``; resolve the waiter with
        :func:`_interpret` once its event fires, or :meth:`forget` it to
        drop a reply on the floor (hedge losers).  Raises
        :class:`EngineStoppedError` for a draining replica and
        :class:`ServeError` for a dead one / closed pipe — in both
        cases nothing was shipped.
        """
        if self.dead:
            raise ServeError("replica is dead")
        if self.draining:
            # fast path for the reload race: the routing table already
            # (or imminently) holds this slot's replacement.
            raise EngineStoppedError("replica is draining")
        rid = next(self._rid)
        waiter = _Waiter(group)
        with self._waiters_lock:
            self._waiters[rid] = waiter
        try:
            self._send((
                "infer", rid, request.task, request.sentence,
                request.context, request.deadline_s, request.id,
            ))
        except (BrokenPipeError, OSError) as error:
            with self._waiters_lock:
                self._waiters.pop(rid, None)
            raise ServeError(f"replica pipe closed: {error}") from error
        return rid, waiter

    def forget(self, rid: int) -> None:
        """Abandon a reply slot: a late reply for ``rid`` is dropped."""
        with self._waiters_lock:
            self._waiters.pop(rid, None)

    def stats_remote(self, timeout: float = 5.0) -> dict[str, Any] | None:
        """The replica engine's stats snapshot (None if unreachable)."""
        if self.dead:
            return self._final_stats
        rid = next(self._rid)
        waiter = _Waiter()
        with self._waiters_lock:
            self._waiters[rid] = waiter
        try:
            self._send(("stats", rid))
        except (BrokenPipeError, OSError):
            return self._final_stats
        if not waiter.event.wait(timeout):
            with self._waiters_lock:
                self._waiters.pop(rid, None)
            return None
        if waiter.kind != "stats":
            return None
        return waiter.value[0]

    # -- shutdown -----------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Ask the replica to drain and exit, then join the process."""
        if self._stop_sent:
            self.join(timeout)
            return
        self._stop_sent = True
        try:
            self._send(("stop", drain))
        except (BrokenPipeError, OSError):
            pass
        self.join(timeout)

    def join(self, timeout: float = 60.0) -> None:
        process = self._process
        if process is None:
            return
        process.join(timeout)
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(5.0)
        self.dead = True

    def terminate(self) -> None:
        if self._process is not None and self._process.is_alive():
            self._process.terminate()
            self._process.join(5.0)
        self.dead = True


class _LocalReplica:
    """A slot whose engine runs in this process: no pipe, no pickling.

    Mirrors :class:`_ReplicaHandle`'s surface.  A submission completes
    its waiter from the engine's completion callback; an overloaded
    engine's typed rejection completes it as ``raised``, while a stopped
    engine raises :class:`EngineStoppedError` at once, so a request
    racing a reload is rerouted to the fresh slot.
    """

    in_process = True

    def __init__(self, engine: InferenceEngine, slot: int):
        self.engine = engine
        self.slot = slot
        self.models: dict[str, str] = engine.stats()["models"]
        self.draining = False
        self.dead = False
        self.started_at = time.monotonic()
        self.latency_window: deque[float] = deque(maxlen=_SLOT_WINDOW)

    def start(self) -> "_LocalReplica":
        self.engine.start()
        return self

    def submit_remote(
        self,
        request: InferenceRequest,
        group: threading.Event | None = None,
    ) -> tuple[int, _Waiter]:
        if self.draining:
            raise EngineStoppedError("replica is draining")
        waiter = _Waiter(group)
        try:
            self.engine.submit(
                request,
                on_done=lambda response: waiter.complete(
                    "response", (response,)
                ),
            )
        except OverloadedError as error:
            waiter.complete("raised", (error,))
        return 0, waiter

    def forget(self, rid: int) -> None:
        """Nothing to forget: a late response completes an unread waiter."""

    def stats_remote(self, timeout: float = 5.0) -> dict[str, Any]:
        return self.engine.stats()

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        self.engine.stop(drain=drain, timeout=timeout)
        self.dead = True


# -- dispatch planner ---------------------------------------------------------
#: typed verdicts that are the pool's or the caller's doing, not the
#: replica's: the request is rejected rather than failed, and no breaker
#: is struck (shedding load is a healthy replica doing its job).
_REJECTIONS = (OverloadedError, EngineStoppedError, DeadlineExceededError)


class Leg(NamedTuple):
    """One submission of a request to one slot."""

    slot: int
    t0: float
    #: a second leg (timer hedge, stranded-leg race or failover).
    hedge: bool = False


class LegState(NamedTuple):
    """All the dispatch planner knows about one request (immutable)."""

    #: every live leg is given up at this instant.
    deadline_at: float
    #: may a second leg still start (hedging on, and none started yet)?
    spare: bool = False
    #: when the timer hedge falls due (``inf``: none, or spent).
    hedge_at: float = math.inf
    legs: tuple[Leg, ...] = ()
    #: slots ruled out for a second leg by a replica-attributable failure.
    failed_slots: frozenset[int] = frozenset()
    failures: tuple[ServeError, ...] = ()


def _collect(state: LegState, errors: tuple, actions: list) -> LegState:
    """``state`` with the ``(slot | None, error)`` pairs collected.

    A replica-attributable failure also strikes its slot and rules it
    out for a second leg.  A :class:`DeadlineExceededError` means the
    request's own budget is spent, so no second leg can start.
    """
    for slot, error in errors:
        state = state._replace(failures=state.failures + (error,))
        if isinstance(error, DeadlineExceededError):
            state = state._replace(spare=False, hedge_at=math.inf)
        elif slot is not None and not isinstance(error, _REJECTIONS):
            actions.append(("strike", slot))
            state = state._replace(failed_slots=state.failed_slots | {slot})
    return state


def plan(state: LegState, event: tuple, now: float) -> tuple[LegState, list]:
    """The dispatch rules: the next state and actions after ``event``.

    Pure: it reads no clock (``now`` is given), takes no lock and calls
    no breaker or handle, so every rule is testable with a fake clock.
    A request has at most two legs, its primary and one second leg, and
    ends in exactly one ``return`` or ``raise`` action.

    Events:

    * ``("placed", leg | None, errors, hedge_at)`` — the driver ran a
      ``start``: ``leg`` is now in flight (``None``: none went out),
      ``errors`` are the ``(slot | None, error)`` failures met on the
      way, and ``hedge_at`` arms a first leg's timer hedge;
    * ``("replied", leg, response)`` / ``("failed", leg, error)`` — a
      live leg's reply decoded into a response, or into a typed error;
    * ``("wake", breaker_open, can_hedge)`` — a wake-up, with the
      caller's reads of the lone leg's breaker (is it open?) and of the
      pool's hedge budget (may one more timer hedge fire?); both are
      read only while the second leg is unused, the budget only once
      the timer is due.

    Actions: ``("start", exclude, fail_open)`` (place the second leg
    outside ``exclude``; ``fail_open``: it may land on a slot whose
    breaker refuses when none admits), ``("forget", leg)``,
    ``("strike", slot)``, ``("return", leg, response)`` and
    ``("raise", error)``.

    =========================  ============================================
    event                      actions
    =========================  ============================================
    ``placed``                 strike the slot of each replica-attributable
                               error met on the way; a leg that went out
                               is live; if none did and no leg is live,
                               raise the first failure
    ``replied``                the first reply wins: forget the other leg,
                               strike it too if the winner was the second
                               leg, return the response
    ``failed``                 collect the error (replica-attributable:
                               strike).  If no leg is left: a failover
                               second leg, budget-exempt and allowed to
                               fail open, while the second leg is unused,
                               ``deadline_at`` is ahead and no
                               :class:`DeadlineExceededError` was
                               collected (which also spends the timer);
                               else raise the first failure
    ``wake`` at                forget and strike every live leg; raise the
    ``deadline_at``            timeout
    ``wake`` at ``hedge_at``   spend the timer, whatever else the wake-up
                               does, so the driver never waits on a past
                               instant
    ``wake``, lone leg's       race it now with a budget-exempt second leg
    breaker open               on a slot whose breaker admits traffic
    ``wake`` at ``hedge_at``,  a budgeted second leg on a slot whose
    budget allows              breaker admits traffic
    =========================  ============================================

    Only failover may fail open: the other second legs duplicate a leg
    that is still live, so on a pool with no admitting slot they do not
    start and the live leg keeps waiting.  Timer hedges are budgeted
    because a saturated pool, where every request crosses the hedge
    delay, must not hedge its whole workload; failover and the race away
    from an open breaker duplicate no live work.  Losing a hedge race is
    a strike because it is the only signal a *hung* replica produces.
    """
    actions: list = []
    match event:
        case ("placed", leg, errors, hedge_at):
            state = _collect(state, errors, actions)
            if leg is not None:
                state = state._replace(
                    legs=state.legs + (leg,), hedge_at=hedge_at,
                    spare=state.spare and not leg.hedge,
                )
            elif not state.legs:
                actions.append(("raise", state.failures[0]))
        case ("replied", winner, response):
            losers = [leg for leg in state.legs if leg != winner]
            actions = [("forget", leg) for leg in losers]
            if winner.hedge:
                actions += [("strike", leg.slot) for leg in losers]
            actions.append(("return", winner, response))
            state = state._replace(legs=())
        case ("failed", leg, error):
            state = _collect(state._replace(legs=tuple(
                live for live in state.legs if live != leg
            )), ((leg.slot, error),), actions)
            if not state.legs and state.spare and now < state.deadline_at:
                actions.append(("start", state.failed_slots, True))
            elif not state.legs:
                actions.append(("raise", state.failures[0]))
        case ("wake", _, _) if now >= state.deadline_at:
            actions = [("forget", leg) for leg in state.legs]
            state = _collect(state._replace(legs=()), tuple(
                (leg.slot, ServeError(f"timed out on replica {leg.slot}"))
                for leg in state.legs
            ), actions)
            actions.append(("raise", state.failures[-1]))
        case ("wake", breaker_open, can_hedge) if state.spare:
            due = now >= state.hedge_at
            if due:
                state = state._replace(hedge_at=math.inf)
            if breaker_open or (due and can_hedge):
                exclude = state.failed_slots | {state.legs[0].slot}
                actions.append(("start", exclude, False))
    return state, actions


class ReplicaPool:
    """The serving backend: replica slots behind one serving surface.

    ``ReplicaPool(registry_dir, {task: (name, version)}, config)`` serves
    registry models; ``config.in_process`` picks the transport.
    :meth:`hosting` wraps an engine built by the caller.
    """

    def __init__(
        self,
        registry_dir: str,
        models: dict[str, tuple[str, str | None]],
        config: PoolConfig | None = None,
    ):
        if not models:
            raise ServeError("pool needs at least one (task, model) pair")
        for task in models:
            if task not in TASKS:
                raise ServeError(f"unknown task {task!r} in models mapping")
        spec = ReplicaSpec(registry_dir=str(registry_dir), models=())
        self._setup(spec.updated(models), config or PoolConfig())

    @classmethod
    def hosting(cls, engine: InferenceEngine) -> "ReplicaPool":
        """A one-slot in-process pool serving ``engine``.

        The engine starts with the pool (or earlier, by the caller).  A
        reload builds a fresh engine from the same models, or from
        ``reload({task: model})`` overrides, and drains this one.
        """
        pool = cls.__new__(cls)
        pool._setup(
            engine.models(),
            PoolConfig(replicas=1, engine=engine.config, in_process=True),
        )
        pool._slots[0] = _LocalReplica(engine, 0)
        return pool

    def _setup(self, source: Any, config: PoolConfig) -> None:
        # what every slot's engine is built from: a registry spec, or
        # (in-process pools only) task -> already-loaded model.
        self._source = source
        #: the served tasks; a reload re-points them, never adds one.
        self.tasks = tuple(sorted(
            [task for task, _, _ in source.models]
            if isinstance(source, ReplicaSpec) else source
        ))
        self.config = config
        #: the hedge policy in force; a one-slot pool has nowhere to hedge.
        self._hedge = config.hedge if config.replicas > 1 else None
        # routing table: slot index -> live handle. Swapped atomically
        # under _route_lock (reads take the lock briefly; the actual
        # request wait happens outside it).
        self._slots: list[Any] = [None] * self.config.replicas
        self._route_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._started_at = time.monotonic()
        self._ids = itertools.count(1)
        # one breaker per slot, surviving handle replacement (reset on
        # respawn/reload so a fresh process starts with a clean slate).
        self._breakers: list[CircuitBreaker | None] = [
            CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            ) if self.config.breaker_threshold > 0 else None
            for _ in range(self.config.replicas)
        ]
        #: slots currently spawning their reload replacement (the old
        #: replica still serves; purely informational for /healthz).
        self._reloading_slots: set[int] = set()
        # the serving ledger (own lock): every request is booked here once
        self._lock = threading.Lock()
        self.accepted = 0
        self.completed = 0
        self.rejected = 0
        self.in_flight = 0
        self.errors = 0
        self.reloads = 0
        self.replica_restarts = 0
        self.deadline_rejected = 0
        self.hedges_fired = 0
        self.hedges_won = 0
        self.spills = 0
        self._latencies: dict[str, Any] = {}
        self._latencies_by_model: dict[str, Any] = {}
        self._sanitize = {
            "requests": 0,
            "tables_changed": 0,
            "cells_repaired": 0,
            "cells_nulled": 0,
            "cells_kept_text": 0,
            "structure_repairs": 0,
            "stage_errors": 0,
        }

    def _new_slot(self, slot: int, source: Any) -> Any:
        """An unstarted replica for ``slot`` built from ``source``."""
        if not self.config.in_process:
            return _ReplicaHandle(
                source, self.config.engine, slot, self._respawn
            )
        models = (
            source.resolve() if isinstance(source, ReplicaSpec) else source
        )
        return _LocalReplica(InferenceEngine(models, self.config.engine), slot)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "ReplicaPool":
        """Start every slot (spawned replicas: wait for their handshakes)."""
        if self._started:
            return self
        for slot in range(self.config.replicas):
            handle = self._slots[slot] or self._new_slot(slot, self._source)
            handle.start()
            with self._route_lock:
                self._slots[slot] = handle
        self._started = True
        self._started_at = time.monotonic()
        return self

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop every replica (with ``drain``, in-flight work finishes).

        Returns once every request the pool accepted has been accounted
        (or ``timeout`` passed): a caller thread may still be between its
        replica's reply and the pool's books, and the final snapshot
        must reconcile with ``in_flight == 0``.
        """
        self._stopping = True
        deadline = time.monotonic() + timeout
        with self._route_lock:
            handles = [h for h in self._slots if h is not None]
        for handle in handles:
            handle.stop(drain=drain, timeout=timeout)
        while self.in_flight and time.monotonic() < deadline:
            time.sleep(0.01)
        self._started = False

    def __enter__(self) -> "ReplicaPool":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop(drain=True)

    @property
    def draining(self) -> bool:
        return self._stopping

    # -- routing ------------------------------------------------------------
    def route(self, task: str, sentence: str, digest: str) -> int:
        """Deterministic slot index for one request's content."""
        key = f"{task}\x1f{normalize_sentence(sentence)}\x1f{digest}"
        bucket = int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )
        return bucket % self.config.replicas

    def _handle_for(self, slot: int) -> _ReplicaHandle:
        with self._route_lock:
            handle = self._slots[slot]
        if handle is None or handle.dead:
            raise ServeError(f"slot {slot} has no live replica")
        return handle

    def _routable_slot(
        self,
        primary: int,
        exclude: frozenset[int],
        fail_open: bool,
    ) -> tuple[int, _ReplicaHandle]:
        """First routable slot walking clockwise from ``primary``.

        A slot is routable when it has a live, non-draining handle and
        its breaker admits traffic.  The clockwise walk makes spilled
        placement deterministic: for a given pool shape and breaker
        state, a request's spill target is as reproducible as its
        primary route.  When every live slot's breaker refuses (all
        open at once), the first live slot is used anyway — the pool
        fails *open*, because serving through a suspect replica beats
        a self-inflicted total outage, and one success re-closes its
        breaker.  ``fail_open=False`` raises instead, for a second leg
        that would duplicate one still live.
        """
        with self._route_lock:
            slots = list(self._slots)
        suspect: tuple[int, _ReplicaHandle] | None = None
        for offset in range(self.config.replicas):
            slot = (primary + offset) % self.config.replicas
            if slot in exclude:
                continue
            handle = slots[slot]
            if handle is None or handle.dead or handle.draining:
                continue
            breaker = self._breakers[slot]
            if breaker is None or breaker.allow():
                return slot, handle
            if suspect is None:
                suspect = (slot, handle)
        if suspect is not None and fail_open:
            return suspect
        raise ServeError(
            f"no routable replica for slot {primary} "
            f"(excluded: {sorted(exclude) or 'none'})"
        )

    # -- serving surface ----------------------------------------------------
    def infer(
        self,
        task: str,
        sentence: str,
        context: Any,
        *,
        deadline_s: float | None = None,
        request_id: str | None = None,
        timeout: float | None = None,
    ) -> InferenceResponse:
        """Route one request to its replica and wait for the response.

        Mirrors the engine's accounting contract: every call is
        *accepted*; it ends *rejected* (overload/shutdown — the typed
        exception propagates) or *completed* (a response came back,
        possibly ``ok=false``).  A request that races a rolling reload
        onto a replica in its first instant of draining is transparently
        resubmitted to the slot's fresh replica — callers never see a
        drain artifact as a failure.
        """
        if task not in self.tasks:
            raise ServeError(
                f"no model loaded for task {task!r} "
                f"(serving: {', '.join(self.tasks)})"
            )
        wait = timeout if timeout is not None else (
            self.config.request_timeout_s
        )
        request = InferenceRequest(
            id=request_id or f"p{next(self._ids)}",
            task=task,
            sentence=sentence,
            context=context,
            deadline_s=deadline_s,
        )
        with self._lock:
            self.accepted += 1
            if self._stopping:
                self.rejected += 1
                raise EngineStoppedError(
                    "pool is stopped/draining; not accepting requests"
                )
            self.in_flight += 1
        slot = 0 if self.config.replicas == 1 else self.route(
            task, sentence, context_digest(context)
        )
        started = time.monotonic()
        try:
            self._admit_deadline(request, slot)
            response = self._dispatch(request, slot, wait, started)
        except _REJECTIONS as error:
            with self._lock:
                self.rejected += 1
                self.in_flight -= 1
                if isinstance(error, DeadlineExceededError):
                    self.deadline_rejected += 1
            raise
        except ServeError as error:
            # replica died / timed out / corrupt reply: surface as an
            # error *response* (compute may have happened; this is not
            # an admission rejection) so load generators count it as a
            # failure.
            response = InferenceResponse(
                id=request.id, task=task, ok=False,
                error=f"replica_failed: {error}",
                model=self._models_snapshot().get(task, ""),
                timing=Timing(
                    0.0, 0.0, time.monotonic() - started, 1
                ),
            )
        total_s = time.monotonic() - started
        with self._lock:
            self.completed += 1
            self.in_flight -= 1
            if not response.ok:
                self.errors += 1
            self._note_latency(task, response.model, total_s)
        return response

    def _admit_deadline(self, request: InferenceRequest, slot: int) -> None:
        """Pool-side deadline admission, before anything is dispatched.

        Raises :class:`DeadlineExceededError` when the remaining budget
        is gone or below the routed slot's recent p50 latency.
        """
        if request.deadline_s is None:
            return
        try:
            window = list(self._handle_for(slot).latency_window)
        except ServeError:
            window = []
        estimate = nearest_rank(window, 0.50) if window else 0.0
        if request.deadline_s <= 0 or (
            estimate > 0 and request.deadline_s < estimate
        ):
            raise DeadlineExceededError(
                f"deadline budget {max(0.0, request.deadline_s):.3f}s "
                f"below slot {slot} recent p50 latency "
                f"{estimate:.3f}s; rejecting before dispatch",
                remaining_s=max(0.0, request.deadline_s),
                estimate_s=estimate if request.deadline_s > 0 else None,
            )

    @staticmethod
    def _shrunk(
        request: InferenceRequest, started: float
    ) -> InferenceRequest:
        """The request with its deadline budget shrunk by elapsed time.

        Raises :class:`DeadlineExceededError` if nothing remains — the
        budget is end-to-end, so time burned in the parent (waiting out
        a hedge delay, rerouting around a drain) comes out of what the
        replica engine is allowed to spend.
        """
        if request.deadline_s is None:
            return request
        remaining = request.deadline_s - (time.monotonic() - started)
        if remaining <= 0:
            raise DeadlineExceededError(
                "deadline budget exhausted before dispatch",
                remaining_s=0.0,
            )
        return dataclasses.replace(request, deadline_s=remaining)

    def _dispatch(
        self,
        request: InferenceRequest,
        primary: int,
        wait: float,
        started: float,
    ) -> InferenceResponse:
        """Dispatch with reroute, hedging, and breaker accounting.

        The rules are :func:`plan`'s; this loop carries them out.  It
        seeds a ``start`` for the primary, runs each action the planner
        returns, and feeds it one event at a time — a placement, a
        leg's reply or failure, or a wake-up after waiting on the legs'
        shared group event until the planner's deadline or timer (and
        at most 0.25 s, so a breaker opening meanwhile is seen) —
        until an action returns or raises.
        """
        group = threading.Event()
        links: dict[Leg, tuple[Any, int, _Waiter]] = {}
        state = LegState(started + wait, spare=self._hedge is not None)
        actions: list = [("start", frozenset(), True)]
        while True:
            event = None
            for action in actions:
                match action:
                    case ("strike", slot):
                        if self._breakers[slot] is not None:
                            self._breakers[slot].record_failure()
                    case ("forget", leg):
                        links[leg][0].forget(links[leg][1])
                    case ("return", leg, response):
                        if self._breakers[leg.slot] is not None:
                            self._breakers[leg.slot].record_success()
                        handle = links[leg][0]
                        handle.latency_window.append(time.monotonic() - leg.t0)
                        if leg.hedge:
                            with self._lock:
                                self.hedges_won += 1
                        return response
                    case ("raise", error):
                        raise error
                    case ("start", exclude, fail_open):
                        event = self._place(
                            request, primary, started, group, links,
                            exclude, fail_open,
                        )
            if event is None:
                group.clear()
                if not any(links[leg][2].event.is_set() for leg in state.legs):
                    horizon = min(state.deadline_at, state.hedge_at)
                    group.wait(max(0.0, min(horizon - time.monotonic(), 0.25)))
            now = time.monotonic()
            event = event or self._next_event(state, links, now)
            state, actions = plan(state, event, now)

    def _place(
        self,
        request: InferenceRequest,
        primary: int,
        started: float,
        group: threading.Event,
        links: dict[Leg, tuple[Any, int, _Waiter]],
        exclude: frozenset[int],
        fail_open: bool,
    ) -> tuple:
        """Route and submit one leg: the planner's ``placed`` event.

        The leg's handle, rid and waiter go in ``links``, which thus
        holds every leg this dispatch placed.  A slot whose submit fails
        is walked past.  One that began draining under us (rolling
        reload) is retried after a brief backoff: its replacement is (or
        soon will be) in the routing table.  A first leg placed off its
        routed slot counts as a spill and arms the timer hedge; a second
        leg counts as a fired hedge.
        """
        second = bool(links)
        errors: list[tuple[int | None, ServeError]] = []
        for attempt in range(_REROUTE_ATTEMPTS):
            try:
                slot, handle = self._routable_slot(primary, exclude, fail_open)
            except ServeError as error:
                if fail_open:
                    errors.append((None, error))
                break
            try:
                rid, waiter = handle.submit_remote(
                    self._shrunk(request, started), group
                )
            except ServeError as error:
                draining = isinstance(error, EngineStoppedError)
                if draining and attempt < _REROUTE_ATTEMPTS - 1:
                    time.sleep(0.05 * (attempt + 1))
                    continue
                errors.append((slot, error))
                if isinstance(error, _REJECTIONS):  # still draining, or late
                    break
                exclude = exclude | {slot}
                continue
            leg = Leg(slot, time.monotonic(), hedge=second)
            links[leg] = (handle, rid, waiter)
            if second or slot != primary:
                with self._lock:
                    if second:
                        self.hedges_fired += 1
                    else:
                        self.spills += 1
            if second or self._hedge is None:
                return ("placed", leg, tuple(errors), math.inf)
            delay = self._hedge.delay_s(list(handle.latency_window))
            return ("placed", leg, tuple(errors), leg.t0 + delay)
        return ("placed", None, tuple(errors), math.inf)

    def _next_event(self, state: LegState, links: dict, now: float) -> tuple:
        """The planner's next event: the first finished leg's reply or
        failure, else a wake-up.  While the second leg is unused it
        carries the two reads the planner's rules need: is the lone
        leg's breaker open, and, once the timer is due, may one more
        timer hedge fire?  (A due timer implies an unused second leg:
        the planner spends the timer whenever it clears ``spare``.)
        """
        for leg in state.legs:
            if links[leg][2].event.is_set():
                try:
                    return ("replied", leg, _interpret(links[leg][2]))
                except ServeError as error:
                    return ("failed", leg, error)
        breaker = self._breakers[state.legs[0].slot] if state.spare else None
        is_open = breaker is not None and breaker.state == CircuitBreaker.OPEN
        can_hedge = False
        if now >= state.hedge_at:
            # unlocked: the budget is checked here but only charged when
            # the hedge goes out, so the lock would make it no more exact
            can_hedge = self.hedges_fired < self._hedge.budget(self.accepted)
        return ("wake", is_open, can_hedge)

    def _note_latency(
        self, task: str, model_id: str, total_s: float
    ) -> None:
        """Record one completed request (caller holds the pool lock)."""
        window = self._latencies.get(task)
        if window is None:
            window = deque(maxlen=_LATENCY_WINDOW)
            self._latencies[task] = window
        window.append(total_s)
        if model_id:
            by_model = self._latencies_by_model.get(model_id)
            if by_model is None:
                while len(self._latencies_by_model) >= _MODEL_WINDOWS:
                    self._latencies_by_model.pop(
                        next(iter(self._latencies_by_model))
                    )
                by_model = deque(maxlen=_LATENCY_WINDOW)
                self._latencies_by_model[model_id] = by_model
            by_model.append(total_s)

    def note_sanitize(self, report: dict[str, Any]) -> None:
        """Fold one sanitize report into pool-level accounting."""
        cells = report.get("cells", {}) or {}
        structure = report.get("structure", {}) or {}
        errors = report.get("errors", []) or []
        changed = bool(
            structure
            or cells.get("repaired", 0)
            or cells.get("nulled", 0)
        )
        with self._lock:
            self._sanitize["requests"] += 1
            self._sanitize["tables_changed"] += 1 if changed else 0
            self._sanitize["cells_repaired"] += cells.get("repaired", 0)
            self._sanitize["cells_nulled"] += cells.get("nulled", 0)
            self._sanitize["cells_kept_text"] += cells.get("kept_text", 0)
            self._sanitize["structure_repairs"] += sum(structure.values())
            self._sanitize["stage_errors"] += len(errors)

    # -- reload -------------------------------------------------------------
    def reload(self, models: dict[str, Any] | None = None) -> dict[str, Any]:
        """Zero-downtime rolling reload of every slot.

        Slot by slot: start a fresh replica (which resolves the
        registry's *current* default versions — or the explicit
        ``models`` override: ``{task: (name, version)}``, or for a
        :meth:`hosting` pool ``{task: model}``), wait until it is ready,
        swap it into the routing table, then drain the old replica
        request-by-request.  Capacity never drops below N-per-slot
        because the swap happens only after the replacement is ready.
        Returns ``{"old": {...}, "new": {...}, "replicas": N}``.
        """
        with self._reload_lock:
            source = self._source
            if models is not None:
                for task in models:
                    if task not in self.tasks:
                        raise ServeError(
                            f"cannot reload unknown task {task!r}"
                        )
                source = (
                    source.updated(models)
                    if isinstance(source, ReplicaSpec)
                    else {**source, **models}
                )
            old_models = self._models_snapshot()
            for slot in range(self.config.replicas):
                with self._lock:
                    self._reloading_slots.add(slot)
                try:
                    fresh = self._new_slot(slot, source)
                    fresh.start()
                    with self._route_lock:
                        old = self._slots[slot]
                        self._slots[slot] = fresh
                    breaker = self._breakers[slot]
                    if breaker is not None:
                        # the process behind this slot is brand new;
                        # strikes against its predecessor don't apply.
                        breaker.reset()
                finally:
                    with self._lock:
                        self._reloading_slots.discard(slot)
                if old is not None:
                    old.draining = True
                    # drain synchronously: every request already routed
                    # to the old replica completes before its process
                    # exits, one slot at a time.
                    old.stop(drain=True)
            self._source = source
            with self._lock:
                self.reloads += 1
            return {
                "old": old_models,
                "new": self._models_snapshot(),
                "replicas": self.config.replicas,
            }

    def _respawn(self, dead: _ReplicaHandle) -> None:
        """Replace a replica that died unasked (its reader thread runs this).

        A failed spawn is retried with capped backoff for as long as the
        slot still holds the dead replica and the pool is serving.
        """
        slot, backoff = dead.slot, 0.5
        while True:
            with self._route_lock:
                if self._stopping or self._slots[slot] is not dead:
                    return
            try:
                fresh = self._new_slot(slot, self._source).start()
                break
            except Exception:
                time.sleep(backoff)
                backoff = min(30.0, backoff * 2)
        with self._route_lock:
            swapped = not self._stopping and self._slots[slot] is dead
            if swapped:
                self._slots[slot] = fresh
        if not swapped:  # a reload or stop got there first
            fresh.stop(drain=False)
            return
        with self._lock:
            self.replica_restarts += 1
        breaker = self._breakers[slot]
        if breaker is not None:
            breaker.reset()

    # -- health -------------------------------------------------------------
    def replica_states(self) -> list[dict[str, Any]]:
        """Per-slot health, the shape ``/healthz`` reports.

        ``state`` is one of ``ready`` / ``breaker_open`` / ``reloading``
        / ``respawning`` / ``draining`` / ``stopped`` (the pool stopped
        it; never respawned); ``routable`` says whether the dispatcher
        would currently send this slot traffic (breakers half-open count
        as routable — probes are traffic).
        """
        with self._route_lock:
            slots = list(self._slots)
        with self._lock:
            reloading = set(self._reloading_slots)
        out: list[dict[str, Any]] = []
        for slot, handle in enumerate(slots):
            breaker = self._breakers[slot]
            breaker_state = breaker.state if breaker is not None else None
            if handle is None or handle.dead:
                state = "stopped" if self._stopping else "respawning"
                routable = False
            elif handle.draining:
                state, routable = "draining", False
            elif breaker_state == CircuitBreaker.OPEN:
                state, routable = "breaker_open", False
            elif slot in reloading:
                # replacement is spawning; the incumbent still serves.
                state, routable = "reloading", True
            else:
                state, routable = "ready", True
            entry: dict[str, Any] = {
                "slot": slot,
                "state": state,
                "routable": routable,
            }
            if breaker_state is not None:
                entry["breaker"] = breaker_state
            out.append(entry)
        return out

    def any_routable(self) -> bool:
        """True while at least one replica can take traffic."""
        return any(entry["routable"] for entry in self.replica_states())

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` payload.

        ``status`` is ``ok``, ``degraded`` (some slot cannot take
        traffic: respawning, breaker open, draining), ``unavailable``
        (no slot can) or ``draining`` (the pool is shutting down); the
        last two are unhealthy.
        """
        states = self.replica_states()
        routable = sum(1 for entry in states if entry["routable"])
        if self._stopping:
            status = "draining"
        elif routable == 0:
            status = "unavailable"
        else:
            status = "ok" if routable == len(states) else "degraded"
        return {
            "status": status,
            "models": self._models_snapshot(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "replicas": states,
            "routable_replicas": routable,
        }

    # -- stats --------------------------------------------------------------
    def _models_snapshot(self) -> dict[str, str]:
        """task -> model_id as currently routed (newest slot wins)."""
        out: dict[str, str] = {}
        with self._route_lock:
            handles = [h for h in self._slots if h is not None]
        for handle in handles:
            out.update(handle.models)
        return out

    def stats(self) -> dict[str, Any]:
        """The ``/metrics`` snapshot: the serving ledger plus engine totals.

        Batching, cache, queue-depth and expiry figures are summed over
        the slots' flat engine snapshots; ``latency_by_model`` is the
        canary view across model versions.  ``replicas`` lists the
        replica *processes*, each with its engine snapshot — empty for
        an in-process pool, whose one engine runs in this process and
        is the top-level figures.  A pure read: it changes nothing.
        """
        states = {
            entry["slot"]: entry for entry in self.replica_states()
        }
        with self._route_lock:
            handles = [
                (slot, handle)
                for slot, handle in enumerate(self._slots)
                if handle is not None
            ]
        replica_stats: list[dict[str, Any]] = []
        agg = dict.fromkeys(_ENGINE_TOTALS, 0)
        agg["max_batch"] = 0
        for slot, handle in handles:
            snapshot = handle.stats_remote()
            if snapshot is not None:
                for key in _ENGINE_TOTALS:
                    agg[key] += snapshot[key]
                agg["max_batch"] = max(agg["max_batch"], snapshot["max_batch"])
            if handle.in_process:
                continue
            entry: dict[str, Any] = {
                "slot": slot,
                "pid": handle.pid,
                "models": dict(handle.models),
                "alive": not handle.dead,
                "draining": handle.draining,
                "state": states[slot]["state"],
                "uptime_s": round(
                    time.monotonic() - handle.started_at, 3
                ),
            }
            breaker = self._breakers[slot]
            if breaker is not None:
                entry["breaker"] = breaker.stats()
            if snapshot is not None:
                entry["engine"] = snapshot
            replica_stats.append(entry)
        with self._lock:
            in_flight = self.in_flight
            uptime = max(1e-9, time.monotonic() - self._started_at)
            latencies = {
                task: nearest_rank_percentiles(list(window))
                for task, window in self._latencies.items()
            }
            latencies_by_model = {
                model_id: nearest_rank_percentiles(list(window))
                for model_id, window in self._latencies_by_model.items()
            }
            snapshot = {
                "uptime_s": round(uptime, 3),
                "accepted": self.accepted,
                "completed": self.completed,
                "rejected": self.rejected,
                "in_flight": in_flight,
                "queue_depth": agg["queue_depth"],
                "errors": self.errors,
                "deadline_expired": agg["deadline_expired"],
                "throughput_rps": round(self.completed / uptime, 2),
                "batches": {
                    "count": agg["batches"],
                    "requests": agg["batched_requests"],
                    "mean_size": round(
                        agg["batched_requests"] / agg["batches"], 3
                    ) if agg["batches"] else 0.0,
                    "max_size": agg["max_batch"],
                },
                "cache": {
                    "hits": agg["cache_hits"],
                    "misses": agg["cache_misses"],
                    "entries": agg["cache_entries"],
                    "hit_rate": round(
                        agg["cache_hits"]
                        / max(1, agg["cache_hits"] + agg["cache_misses"]),
                        4,
                    ),
                },
                "latency": latencies,
                "latency_by_model": latencies_by_model,
                "sanitize": dict(self._sanitize),
                "models": self._models_snapshot(),
                "reloads": self.reloads,
                "replica_restarts": self.replica_restarts,
                "deadline_rejected": self.deadline_rejected,
                "hedges": {
                    "fired": self.hedges_fired,
                    "won": self.hedges_won,
                },
                "spills": self.spills,
                "draining": self._stopping,
                "workers": self.config.engine.workers,
                "max_batch_size": self.config.engine.max_batch_size,
                "replicas": replica_stats,
                "reconciles": (
                    self.accepted
                    == self.completed + self.rejected + in_flight
                ),
            }
        return snapshot


def pool_from_registry(
    registry_dir: str,
    names: list[str] | None = None,
    config: PoolConfig | None = None,
) -> ReplicaPool:
    """Build a :class:`ReplicaPool` serving one model per task.

    ``names`` picks specific registered models (like ``repro serve
    --model``); by default every registered model is served, one per
    task.  Model *records* are inspected in the parent for task
    routing, but the artifacts themselves are only unpickled inside
    the replica processes (shared-nothing).
    """
    registry = ModelRegistry(registry_dir)
    chosen = names or sorted(registry.models())
    if not chosen:
        raise ServeError(f"no models registered in {registry_dir}")
    models: dict[str, tuple[str, str | None]] = {}
    for name in chosen:
        record = registry.record(name)
        if record.task in models:
            raise ServeError(
                f"both {models[record.task][0]!r} and {name!r} serve "
                f"task {record.task!r}; pass names to pick one per task"
            )
        models[record.task] = (name, None)
    return ReplicaPool(str(registry_dir), models, config=config)

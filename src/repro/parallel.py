"""The context driver: fault-tolerant, seed-stable, serial or pooled.

Generation is embarrassingly parallel across contexts *because* of the
determinism contract in :mod:`repro.pipelines.uctr`: context ``i`` draws
only from its own named RNG stream, so any scheduling of contexts onto
processes yields the same samples.  :func:`generate_parallel` is the
one place contexts run — :meth:`UCTR.generate` calls it for every run,
``workers=1`` included — and it keeps the run alive when pieces of it
die:

1. contexts are sharded into contiguous index chunks (several per
   worker, so a slow context does not idle the rest of the pool);
2. the fitted :class:`~repro.pipelines.uctr.GenerationState` is pickled
   **once** in the parent and unpickled **once per worker** by the pool
   initializer — spawn-safe, no reliance on fork-inherited globals —
   which also makes the worker exit if its parent dies
   (:func:`exit_with_parent`);
3. each worker runs every assigned context through
   :func:`repro.runtime.quarantine.run_context`: a context whose
   execution raises (after the retry policy is spent) is *quarantined*
   — structured record in telemetry, zero samples — instead of killing
   the chunk;
4. worker-process **death** (segfault, OOM kill, injected ``os._exit``)
   breaks the pool.  Blame is not guessable from a broken pool — every
   pending future looks dead — so the parent only *suspects* the chunk
   it was blocked on, requeues the bystanders uncharged, respawns the
   pool, and **probes** each suspect in isolation (a one-worker pool
   running only that chunk).  A probe failure is definitive: the chunk
   retries up to the policy's budget, then bisects to isolate the
   poisoned context, which is quarantined with reason ``worker_death``;
5. a per-context wall-clock **deadline** (``RetryPolicy.deadline``)
   bounds each chunk; on overrun the parent kills the pool and the
   chunk follows the same probe → retry → bisect → quarantine path
   with reason ``timeout``;
6. the parent places results back by context index and folds worker
   telemetry (counters *and* quarantine events) into the caller's sink,
   reporting every context that ran — quarantined ones included —
   through ``on_outcome`` so a checkpoint manager can persist progress
   as it happens;
7. one in-process finisher fills every index still missing, in context
   order, with the same quarantine semantics: all of them when
   ``workers <= 1`` or at most one context is left (no pool is built),
   otherwise whatever a spent round budget left behind.

``multiprocessing`` and ``concurrent.futures`` are imported only when a
pool is built, so a serial run never loads them.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.pipelines.samples import ReasoningSample
from repro.pipelines.uctr import GenerationState
from repro.runtime.quarantine import (
    ContextOutcome,
    QuarantineRecord,
    record_quarantine,
    run_context,
)
from repro.runtime.retry import RetryPolicy
from repro.tables.context import TableContext
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - imported lazily at run time
    from concurrent.futures import ProcessPoolExecutor

#: chunks handed out per worker; >1 smooths uneven per-context cost.
CHUNKS_PER_WORKER = 4

#: how often a pool worker checks that its parent is still alive.
PARENT_POLL_S = 0.25

#: worker-side engine state, set once by :func:`_init_worker`.
_WORKER_STATE: GenerationState | None = None
_WORKER_POLICY: RetryPolicy | None = None

#: a per-context callback, fired once for every context that runs.
OutcomeCallback = Callable[[ContextOutcome], None]


def pick_start_method() -> str:
    """The preferred ``multiprocessing`` start method.

    ``fork`` is cheapest where available (POSIX); ``spawn`` — which
    every CPython offers — works everywhere the state pickles, which
    :class:`GenerationState` guarantees.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def exit_with_parent(parent_pid: int) -> None:
    """Pool initializer: end this worker once ``parent_pid`` is gone.

    A parent killed with SIGKILL never shuts its pool down; its workers,
    reparented, would sleep on their call queue forever.  A daemon
    thread polls the parent pid and calls ``os._exit`` once it changes.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch, name="exit-with-parent", daemon=True
    ).start()


def shard_indices(count: int, workers: int) -> list[list[int]]:
    """Contiguous index chunks: ~``CHUNKS_PER_WORKER`` per worker.

    Contiguity keeps merge bookkeeping trivial and preserves whatever
    locality neighbouring contexts have (same synthetic domain, similar
    table shapes).
    """
    if count <= 0:
        return []
    target = max(1, min(count, workers * CHUNKS_PER_WORKER))
    base, extra = divmod(count, target)
    chunks: list[list[int]] = []
    start = 0
    for position in range(target):
        size = base + (1 if position < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return [chunk for chunk in chunks if chunk]


@dataclass
class _Chunk:
    """A unit of pool work: context indices plus its failure history."""

    indices: list[int]
    attempts: int = 0


def _init_worker(
    state_blob: bytes, policy: RetryPolicy, parent_pid: int
) -> None:
    """Pool initializer: unpickle the engine state once per worker."""
    global _WORKER_STATE, _WORKER_POLICY
    exit_with_parent(parent_pid)
    _WORKER_STATE = pickle.loads(state_blob)
    _WORKER_POLICY = policy


def _run_chunk(
    chunk: list[tuple[int, TableContext]],
) -> tuple[list[ContextOutcome], dict]:
    """Execute one chunk in a worker; quarantine failures per context.

    Returns one outcome per context — a quarantined one carries its
    record, which also rides in the telemetry snapshot's events — plus
    the chunk's telemetry snapshot.
    """
    assert _WORKER_STATE is not None, "worker initialized without state"
    telemetry = Telemetry()
    outcomes = [
        run_context(
            _WORKER_STATE, index, context, telemetry, _WORKER_POLICY,
            stage="worker",
        )
        for index, context in chunk
    ]
    return outcomes, telemetry.snapshot()


def _run_here(
    state: GenerationState,
    contexts: Sequence[TableContext],
    results: list[list[ReasoningSample] | None],
    telemetry: Telemetry,
    policy: RetryPolicy,
    on_outcome: OutcomeCallback | None,
    *,
    stage: str,
    budget: int | None,
) -> None:
    """Fill every missing index in context order, in this process.

    Stops once the contexts before the next missing one hold ``budget``
    samples: nothing that context could produce survives the caller's
    truncation.  Leftovers of a pool run (``stage="parent"``) are
    counted once each under ``retries:leftover/in_process``.
    """
    produced = 0
    for index, value in enumerate(results):
        if value is None:
            if budget is not None and produced >= budget:
                return
            if stage == "parent":
                telemetry.increment("retries", "leftover/in_process")
            outcome = run_context(
                state, index, contexts[index], telemetry, policy,
                stage=stage,
            )
            value = results[index] = outcome.samples
            if on_outcome is not None:
                on_outcome(outcome)
        produced += len(value)


def _kill_workers(executor: ProcessPoolExecutor) -> None:
    """Forcibly terminate a pool whose workers may be stuck or poisoned."""
    for process in list(getattr(executor, "_processes", {}).values()):
        if process.is_alive():
            process.terminate()
    executor.shutdown(wait=False, cancel_futures=True)


def _merge_chunk(
    outcomes: list[ContextOutcome],
    snapshot: dict,
    results: list[list[ReasoningSample] | None],
    telemetry: Telemetry,
    on_outcome: OutcomeCallback | None,
) -> None:
    """Fold one completed chunk into the parent's results + telemetry."""
    telemetry.merge(snapshot)
    for outcome in outcomes:
        if results[outcome.index] is not None:
            continue
        results[outcome.index] = outcome.samples
        if on_outcome is not None:
            on_outcome(outcome)


def _run_round(
    mp_context,
    workers: int,
    state_blob: bytes,
    policy: RetryPolicy,
    batch: list[_Chunk],
    contexts: Sequence[TableContext],
    results: list[list[ReasoningSample] | None],
    telemetry: Telemetry,
    on_outcome: OutcomeCallback | None,
) -> list[tuple[_Chunk, str]]:
    """One pool lifetime: submit ``batch``, harvest, report losses.

    Returns ``(chunk, reason)`` pairs for chunks whose results did not
    come back.  The chunk the parent was blocked on when the pool broke
    (or overran its deadline) carries the real reason
    (``worker_death``/``timeout``); bystanders whose pool died under
    them come back as ``requeue`` — they are not to blame.  A chunk
    whose future failed in a *healthy* pool is ``chunk_error:<type>``.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    executor = concurrent.futures.ProcessPoolExecutor(
        max_workers=min(workers, len(batch)),
        mp_context=mp_context,
        initializer=_init_worker,
        initargs=(state_blob, policy, os.getpid()),
    )
    started = time.monotonic()
    futures = [
        (
            executor.submit(
                _run_chunk, [(i, contexts[i]) for i in chunk.indices]
            ),
            chunk,
        )
        for chunk in batch
    ]
    lost: list[tuple[_Chunk, str]] = []
    harvested: set[int] = set()
    killed = False
    try:
        for position, (future, chunk) in enumerate(futures):
            deadline = policy.chunk_deadline(len(chunk.indices))
            try:
                if deadline is None:
                    outcomes, snapshot = future.result()
                else:
                    # chunks queue behind one another; later waves get a
                    # proportionally larger allowance measured from the
                    # round start.  The probe round (single chunk) gives
                    # the exact per-chunk deadline.
                    waves = 1 + position // max(1, workers)
                    remaining = max(
                        0.0, started + deadline * waves - time.monotonic()
                    )
                    outcomes, snapshot = future.result(timeout=remaining)
            except concurrent.futures.TimeoutError:
                lost.append((chunk, "timeout"))
                harvested.add(position)
                _kill_workers(executor)
                killed = True
                break
            except BrokenProcessPool:
                lost.append((chunk, "worker_death"))
                harvested.add(position)
                break
            except KeyboardInterrupt:
                _kill_workers(executor)
                killed = True
                raise
            except Exception as error:
                # the future failed in a healthy pool (result refused to
                # pickle, ...): definitively this chunk's fault.
                lost.append((chunk, f"chunk_error:{type(error).__name__}"))
                harvested.add(position)
                continue
            else:
                _merge_chunk(
                    outcomes, snapshot, results, telemetry, on_outcome
                )
                harvested.add(position)
        # sweep: futures not harvested above either finished before the
        # pool went down (keep their results) or are blameless
        # bystanders of the breakage.
        for position, (future, chunk) in enumerate(futures):
            if position in harvested:
                continue
            done_ok = False
            if future.done() and not future.cancelled():
                try:
                    done_ok = future.exception() is None
                except concurrent.futures.CancelledError:
                    done_ok = False
            if done_ok:
                outcomes, snapshot = future.result()
                _merge_chunk(
                    outcomes, snapshot, results, telemetry, on_outcome
                )
            else:
                lost.append((chunk, "requeue"))
    finally:
        if not killed:
            executor.shutdown(wait=True, cancel_futures=True)
    return lost


def _charge_chunk(
    chunk: _Chunk,
    reason: str,
    destination: deque[_Chunk],
    policy: RetryPolicy,
    contexts: Sequence[TableContext],
    results: list[list[ReasoningSample] | None],
    telemetry: Telemetry,
    on_outcome: OutcomeCallback | None,
) -> None:
    """Charge a definitively failed chunk: retry, bisect, or quarantine.

    Retries (and the halves of a bisection) go to ``destination`` — the
    suspect queue, so they keep running in isolation.  A single-context
    chunk out of attempts is quarantined with the failure reason.
    """
    chunk.attempts += 1
    if chunk.attempts < policy.max_attempts:
        telemetry.increment("retries", f"chunk/{reason}")
        destination.append(chunk)
    elif len(chunk.indices) > 1:
        telemetry.increment("retries", f"bisect/{reason}")
        mid = len(chunk.indices) // 2
        destination.append(_Chunk(chunk.indices[:mid]))
        destination.append(_Chunk(chunk.indices[mid:]))
    else:
        index = chunk.indices[0]
        record = QuarantineRecord(
            index=index,
            uid=contexts[index].uid,
            reason=reason,
            attempts=chunk.attempts,
            stage="parent",
        )
        record_quarantine(telemetry, record)
        results[index] = []
        if on_outcome is not None:
            on_outcome(ContextOutcome(index, [], quarantine=record))


def _run_pool(
    state_blob: bytes,
    contexts: Sequence[TableContext],
    todo: list[int],
    workers: int,
    results: list[list[ReasoningSample] | None],
    telemetry: Telemetry,
    policy: RetryPolicy,
    on_outcome: OutcomeCallback | None,
) -> None:
    """Run ``todo`` on process pools until filled or the round budget ends."""
    import multiprocessing

    pending: deque[_Chunk] = deque(
        _Chunk([todo[position] for position in positions])
        for positions in shard_indices(len(todo), workers)
    )
    suspects: deque[_Chunk] = deque()
    initial_chunks = len(pending)
    mp_context = multiprocessing.get_context(pick_start_method())
    # Round budget.  Every broken batch round permanently moves one chunk
    # to the suspect queue, and every suspect resolves within
    # max_attempts probes per node of its bisection tree (≤ 2·contexts
    # nodes), so this cap is unreachable without a driver bug — it only
    # guards against looping forever, since leftovers finish in-process.
    max_rounds = 4 + 2 * initial_chunks + 2 * policy.max_attempts * (
        initial_chunks + len(todo)
    )
    rounds = 0
    while (pending or suspects) and rounds < max_rounds:
        rounds += 1
        if pending:
            batch = list(pending)
            pending.clear()
            round_workers = workers
        else:
            batch = [suspects.popleft()]
            round_workers = 1
        losses = _run_round(
            mp_context, round_workers, state_blob, policy, batch,
            contexts, results, telemetry, on_outcome,
        )
        probing = len(batch) == 1 and round_workers == 1
        for chunk, reason in losses:
            if reason == "requeue":
                telemetry.increment("retries", "chunk/requeue")
                pending.append(chunk)
            elif probing or reason.startswith("chunk_error"):
                # blame is definitive: a probe round has no bystanders,
                # and a chunk_error came from a healthy pool.
                _charge_chunk(
                    chunk, reason, suspects, policy, contexts, results,
                    telemetry, on_outcome,
                )
            else:
                # broken batch round: the blocked-on chunk is only a
                # suspect — isolate it to establish blame.
                telemetry.increment("retries", f"suspect/{reason}")
                suspects.append(chunk)
    telemetry.increment("parallel", f"workers/{workers}")
    telemetry.increment("parallel", "chunks", initial_chunks)
    telemetry.increment("parallel", "rounds", rounds)


def generate_parallel(
    state: GenerationState,
    contexts: Sequence[TableContext],
    workers: int,
    telemetry: Telemetry,
    *,
    policy: RetryPolicy | None = None,
    on_outcome: OutcomeCallback | None = None,
    done: Mapping[int, list[ReasoningSample]] | None = None,
    budget: int | None = None,
) -> list[list[ReasoningSample]]:
    """Per-context sample lists, in context order.

    The caller flattens the returned lists; their concatenation is
    byte-identical for any ``workers`` and the same ``state`` (a
    quarantined context contributes an empty list either way).

    ``done`` maps context indices already satisfied elsewhere (resumed
    from a checkpoint) to their samples, which come back as given.
    ``on_outcome`` fires in the parent once for every context that runs,
    quarantined ones included, in completion order.  ``budget`` lets
    the in-process finisher stop early: a context is skipped (an empty
    list) once the contexts before it hold ``budget`` samples, so the
    first ``budget`` samples of the result never depend on the
    schedule or on which contexts were resumed.  A state that refuses
    to pickle runs in-process and records a ``parallel/fallback:*``
    drop so the run report shows what happened.
    """
    policy = policy or RetryPolicy()
    done = done or {}
    results: list[list[ReasoningSample] | None] = [
        done.get(index) for index in range(len(contexts))
    ]
    todo = [index for index, value in enumerate(results) if value is None]
    workers = min(workers, len(todo))
    stage = "serial"
    if workers > 1:
        try:
            state_blob = pickle.dumps(state)
        except Exception as error:  # pragma: no cover - exotic overrides only
            telemetry.drop("parallel", f"fallback:{type(error).__name__}")
        else:
            _run_pool(
                state_blob, contexts, todo, workers, results, telemetry,
                policy, on_outcome,
            )
            stage = "parent"
    _run_here(
        state, contexts, results, telemetry, policy, on_outcome,
        stage=stage, budget=budget,
    )
    return [value if value is not None else [] for value in results]

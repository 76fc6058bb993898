"""Tests for the micro-batching inference engine."""

import statistics
import threading
import time

import pytest

from repro.errors import EngineStoppedError, OverloadedError, ServeError
from repro.sampling.labeler import ClaimLabel
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    InferenceRequest,
    InferenceResponse,
    ReplicaPool,
    TASK_QA,
    TASK_VERIFY,
)
from repro.serve.stub import FixedServiceVerifier

from .conftest import qa_lookup_samples, verification_samples

pytestmark = pytest.mark.timeout(300)


def _callers(pool, task, sentences, context):
    """One started ``pool.infer`` caller per sentence.

    Returns ``(threads, outcomes)``; each caller appends its response,
    or the typed exception it caught, to ``outcomes``.
    """
    outcomes: list = []
    lock = threading.Lock()

    def call(sentence):
        try:
            outcome = pool.infer(task, sentence, context)
        except ServeError as error:
            outcome = error
        with lock:
            outcomes.append(outcome)

    threads = [
        threading.Thread(target=call, args=(sentence,), daemon=True)
        for sentence in sentences
    ]
    for thread in threads:
        thread.start()
    return threads, outcomes


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _assert_books_match(stats, outcomes):
    """The pool booked exactly what its callers observed."""
    responses = [o for o in outcomes if isinstance(o, InferenceResponse)]
    assert stats["accepted"] == len(outcomes)
    assert stats["completed"] == len(responses)
    assert stats["errors"] == sum(not r.ok for r in responses)
    assert stats["rejected"] == len(outcomes) - len(responses)
    assert stats["in_flight"] == 0
    assert stats["reconciles"]


class _ExplodingVerifier:
    """Picklable stand-in whose batch predict always fails."""

    def predict(self, samples):
        raise RuntimeError("boom")


#: live state of each :class:`_GatedVerifier`, by key: events do not
#: pickle, and every engine worker runs an unpickled replica.
_GATES: dict[str, dict] = {}


class _GatedVerifier:
    """Picklable verifier that records each batch's request ids and
    blocks its first batch until the test releases the gate."""

    def __init__(self, key):
        self.key = key
        _GATES[key] = {
            "entered": threading.Event(),
            "release": threading.Event(),
            "batches": [],
        }

    def predict(self, samples):
        gate = _GATES[self.key]
        gate["batches"].append([sample.uid for sample in samples])
        if len(gate["batches"]) == 1:
            gate["entered"].set()
            assert gate["release"].wait(10.0), "gate never released"
        return [ClaimLabel.SUPPORTED for _ in samples]


@pytest.fixture
def engine(tiny_qa_model, tiny_verifier):
    with InferenceEngine(
        {TASK_QA: tiny_qa_model, TASK_VERIFY: tiny_verifier},
        EngineConfig(workers=2, max_batch_size=8),
    ) as running:
        yield running


class TestCorrectness:
    def test_qa_matches_direct_predict(
        self, engine, tiny_qa_model, serve_context
    ):
        for sample in qa_lookup_samples(serve_context):
            response = engine.infer(TASK_QA, sample.sentence, serve_context)
            assert response.ok, response.error
            assert response.answer == tiny_qa_model.predict(sample)
            assert response.task == TASK_QA
            assert response.timing is not None

    def test_verify_matches_direct_predict(
        self, engine, tiny_verifier, serve_context
    ):
        samples = verification_samples(serve_context)
        expected = tiny_verifier.predict(samples)
        for sample, label in zip(samples, expected):
            response = engine.infer(TASK_VERIFY, sample.sentence, serve_context)
            assert response.ok, response.error
            assert response.label == label.value

    def test_unknown_task_is_typed(self, engine, serve_context):
        with pytest.raises(ServeError):
            InferenceRequest(
                id="x", task="summarize", sentence="hi", context=serve_context
            )

    def test_unserved_task_is_typed(self, tiny_qa_model, serve_context):
        with InferenceEngine({TASK_QA: tiny_qa_model}) as engine:
            with pytest.raises(ServeError):
                engine.infer(TASK_VERIFY, "claim", serve_context)


class TestBatching:
    def test_queued_requests_coalesce(self, tiny_verifier, serve_context):
        """Requests submitted before start() land in one micro-batch."""
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1, max_batch_size=8, cache_size=0),
        )
        claims = [s.sentence for s in verification_samples(serve_context)[:6]]
        pendings = [
            engine.submit(InferenceRequest(
                id=f"b{i}", task=TASK_VERIFY, sentence=claim,
                context=serve_context,
            ))
            for i, claim in enumerate(claims)
        ]
        engine.start()
        responses = [p.result(10.0) for p in pendings]
        engine.stop()
        assert all(r.ok for r in responses)
        assert responses[0].timing.batch_size == 6
        stats = engine.stats()
        assert stats["max_batch"] == 6
        assert stats["batches"] == 1
        assert stats["batched_requests"] == 6
        assert stats["in_flight"] == 0

    def test_lone_request_is_never_held(self, tiny_verifier, serve_context):
        """An idle worker runs a lone request at once: no linger."""
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1, cache_size=0),
        )
        with engine:
            queued = [
                engine.infer(
                    TASK_VERIFY, f"lone claim {i}", serve_context
                ).timing.queue_s
                for i in range(20)
            ]
        assert statistics.median(queued) < 1e-3, queued

    def test_batches_form_behind_a_busy_worker(self, serve_context):
        """Requests queued while the worker computes run as full batches,
        in arrival order."""
        engine = InferenceEngine(
            {TASK_VERIFY: _GatedVerifier("busy-worker")},
            EngineConfig(workers=1, max_batch_size=4, cache_size=0),
        )
        gate = _GATES["busy-worker"]

        def submit(i):
            return engine.submit(InferenceRequest(
                id=f"g{i}", task=TASK_VERIFY, sentence=f"claim {i}",
                context=serve_context,
            ))

        try:
            with engine:
                pendings = [submit(0)]
                assert gate["entered"].wait(10.0)
                pendings += [submit(i) for i in range(1, 11)]
                assert engine.stats()["queue_depth"] == 10
                gate["release"].set()
                responses = [p.result(10.0) for p in pendings]
        finally:
            gate["release"].set()
            _GATES.pop("busy-worker")
        assert all(r.ok for r in responses)
        assert gate["batches"] == [
            ["g0"],
            ["g1", "g2", "g3", "g4"],
            ["g5", "g6", "g7", "g8"],
            ["g9", "g10"],
        ]
        sizes = [r.timing.batch_size for r in responses]
        assert sizes == [1] + [4] * 8 + [2] * 2
        stats = engine.stats()
        assert stats["batches"] == 4
        assert stats["batched_requests"] == 11
        assert stats["max_batch"] == 4

    def test_batch_failure_fails_each_request(self, serve_context):
        engine = InferenceEngine(
            {TASK_VERIFY: _ExplodingVerifier()},
            EngineConfig(workers=1, cache_size=0),
        )
        with ReplicaPool.hosting(engine) as pool:
            response = pool.infer(TASK_VERIFY, "a claim", serve_context)
        assert not response.ok
        assert "boom" in response.error
        _assert_books_match(pool.stats(), [response])


class TestAdmission:
    def test_overload_rejects_with_retry_after(
        self, tiny_verifier, serve_context
    ):
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1, queue_limit=2, cache_size=0),
        )
        pool = ReplicaPool.hosting(engine)
        # Not started: nothing drains, so the queue fills deterministically.
        callers, outcomes = _callers(
            pool, TASK_VERIFY, ["claim 0", "claim 1"], serve_context
        )
        _wait_for(lambda: engine.stats()["queue_depth"] == 2)
        with pytest.raises(OverloadedError) as caught:
            pool.infer(TASK_VERIFY, "claim 2", serve_context)
        assert caught.value.retry_after > 0
        stats = pool.stats()
        assert stats["rejected"] == 1
        assert stats["accepted"] == 3
        assert stats["in_flight"] == 2
        assert stats["reconciles"]
        pool.start()
        pool.stop(drain=True)
        for caller in callers:
            caller.join(10)
        assert all(outcome.ok for outcome in outcomes)
        _assert_books_match(pool.stats(), outcomes + [caught.value])

    def test_submit_after_stop_is_typed(self, tiny_verifier, serve_context):
        engine = InferenceEngine({TASK_VERIFY: tiny_verifier})
        pool = ReplicaPool.hosting(engine).start()
        pool.stop()
        with pytest.raises(EngineStoppedError):
            engine.infer(TASK_VERIFY, "too late", serve_context)
        with pytest.raises(EngineStoppedError) as caught:
            pool.infer(TASK_VERIFY, "too late", serve_context)
        _assert_books_match(pool.stats(), [caught.value])

    def test_deadline_expired_is_error_response(
        self, tiny_verifier, serve_context
    ):
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1, cache_size=0),
        )
        pending = engine.submit(InferenceRequest(
            id="late", task=TASK_VERIFY, sentence="a claim",
            context=serve_context, deadline_s=1e-9,
        ))
        engine.start()
        response = pending.result(10.0)
        engine.stop()
        assert not response.ok
        assert response.error.startswith("deadline_exceeded")
        stats = engine.stats()
        assert stats["deadline_expired"] == 1
        assert stats["in_flight"] == 0


class TestCache:
    def test_repeat_question_hits_cache(self, engine, serve_context):
        first = engine.infer(TASK_QA, "what is the points of bo chen ?",
                             serve_context)
        second = engine.infer(TASK_QA, "what is the points of bo chen ?",
                              serve_context)
        # Token-stream normalization: casing/spacing don't miss.
        third = engine.infer(TASK_QA, "What is  the POINTS of bo chen?",
                             serve_context)
        assert not first.cached
        assert second.cached and second.answer == first.answer
        assert third.cached and third.answer == first.answer
        assert engine.stats()["cache_hits"] == 2

    def test_cache_disabled(self, tiny_qa_model, serve_context):
        with InferenceEngine(
            {TASK_QA: tiny_qa_model}, EngineConfig(cache_size=0)
        ) as engine:
            engine.infer(TASK_QA, "what is the points of bo chen ?",
                         serve_context)
            repeat = engine.infer(TASK_QA, "what is the points of bo chen ?",
                                  serve_context)
        assert not repeat.cached
        assert engine.stats()["cache_hits"] == 0

    def test_cache_hit_callback_never_blocks_admission(
        self, engine, serve_context
    ):
        """A cache hit's ``on_done`` runs outside the engine's lock: a
        callback that blocks must not stall another thread's submit."""
        sentence = "what is the points of bo chen ?"
        assert engine.infer(TASK_QA, sentence, serve_context).ok
        entered, release = threading.Event(), threading.Event()

        def blocking(response):
            entered.set()
            release.wait(10)

        hit = threading.Thread(
            target=engine.submit,
            args=(InferenceRequest(
                id="hit", task=TASK_QA, sentence=sentence,
                context=serve_context,
            ),),
            kwargs={"on_done": blocking},
            daemon=True,
        )
        hit.start()
        box = []
        other = threading.Thread(
            target=lambda: box.append(engine.infer(
                TASK_QA, "what is the team of raj patel ?", serve_context,
            )),
            daemon=True,
        )
        try:
            assert entered.wait(10)
            other.start()
            other.join(5)
            assert not other.is_alive(), "admission waited on a callback"
            assert box[0].ok
        finally:
            release.set()
            hit.join(10)
            other.join(10)


class TestLifecycle:
    """The hosting pool's ledger matches what its callers saw."""

    def test_drain_completes_everything(self, tiny_verifier, serve_context):
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=2, cache_size=0),
        )
        pool = ReplicaPool.hosting(engine)
        callers, outcomes = _callers(
            pool, TASK_VERIFY,
            [f"claim number {i}" for i in range(20)], serve_context,
        )
        _wait_for(lambda: engine.stats()["queue_depth"] == 20)
        pool.start()
        pool.stop(drain=True)
        for caller in callers:
            caller.join(10)
        assert len(outcomes) == 20
        assert all(outcome.ok for outcome in outcomes)
        _assert_books_match(pool.stats(), outcomes)
        assert engine.stats()["in_flight"] == 0

    def test_no_drain_fails_fast_not_hangs(self, tiny_verifier, serve_context):
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier}, EngineConfig(cache_size=0)
        )
        pool = ReplicaPool.hosting(engine)  # never started: all queue
        callers, outcomes = _callers(
            pool, TASK_VERIFY, [f"claim {i}" for i in range(5)],
            serve_context,
        )
        _wait_for(lambda: engine.stats()["queue_depth"] == 5)
        pool.stop(drain=False)
        for caller in callers:
            caller.join(1.0)
        assert len(outcomes) == 5
        for response in outcomes:
            assert not response.ok
            assert response.error.startswith("stopped")
        # no compute, but each is a response: completed, and an error
        stats = pool.stats()
        assert stats["completed"] == stats["errors"] == 5
        _assert_books_match(stats, outcomes)

    def test_no_drain_stop_mid_compute_books_what_callers_saw(
        self, serve_context
    ):
        """One request computing, four queued, then ``stop(drain=False)``:
        one answer and four ``stopped`` replies, all booked completed."""
        engine = InferenceEngine(
            {TASK_VERIFY: FixedServiceVerifier(0.2)},
            EngineConfig(workers=1, max_batch_size=1, cache_size=0),
        )
        pool = ReplicaPool.hosting(engine).start()
        callers, outcomes = _callers(
            pool, TASK_VERIFY, [f"claim {i}" for i in range(5)],
            serve_context,
        )
        _wait_for(lambda: engine.stats()["in_flight"] == 5)
        pool.stop(drain=False)
        for caller in callers:
            caller.join(10)
        assert len(outcomes) == 5
        assert sum(response.ok for response in outcomes) == 1
        stats = pool.stats()
        assert (stats["completed"], stats["rejected"], stats["errors"]) == (
            5, 0, 4,
        )
        _assert_books_match(stats, outcomes)

    def test_reconciles_under_concurrent_load(
        self, tiny_qa_model, tiny_verifier, serve_context
    ):
        engine = InferenceEngine(
            {TASK_QA: tiny_qa_model, TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=2, queue_limit=2, cache_size=0),
        )
        pool = ReplicaPool.hosting(engine).start()
        outcomes = []
        lock = threading.Lock()

        def client(offset: int) -> None:
            for i in range(25):
                task = TASK_QA if (offset + i) % 2 else TASK_VERIFY
                sentence = (
                    f"what is the points of bo chen ?"
                    if task == TASK_QA else f"claim {offset} {i}"
                )
                try:
                    outcome = pool.infer(task, sentence, serve_context)
                except OverloadedError as error:
                    outcome = error
                with lock:
                    outcomes.append(outcome)

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pool.stop(drain=True)
        assert len(outcomes) == 100
        _assert_books_match(pool.stats(), outcomes)
        assert engine.stats()["in_flight"] == 0


class _ConstVerifier:
    """Picklable verifier stand-in with a fixed verdict."""

    def __init__(self, verdict):
        self.verdict = verdict

    def predict(self, samples):
        from repro.sampling.labeler import ClaimLabel

        return [ClaimLabel(self.verdict) for _ in samples]


class TestPercentiles:
    """Nearest-rank pins on small known windows (regression: the old
    ``int(q * n)`` index reported one rank too high — p50 of two
    samples returned the max)."""

    def test_two_sample_window_p50_is_lower_sample(self):
        from repro.serve.stats import nearest_rank_percentiles

        out = nearest_rank_percentiles([0.010, 0.020])
        assert out["p50_ms"] == 10.0  # old code said 20.0
        assert out["p95_ms"] == 20.0
        assert out["p99_ms"] == 20.0
        assert out["count"] == 2

    def test_hundred_sample_window_matches_definition(self):
        from repro.serve.stats import nearest_rank_percentiles

        out = nearest_rank_percentiles([i / 1e3 for i in range(1, 101)])
        assert out["p50_ms"] == 50.0
        assert out["p95_ms"] == 95.0
        assert out["p99_ms"] == 99.0

    def test_singleton_and_empty_windows(self):
        from repro.serve.stats import nearest_rank_percentiles

        single = nearest_rank_percentiles([0.007])
        assert single["p50_ms"] == single["p99_ms"] == 7.0
        empty = nearest_rank_percentiles([])
        assert empty == {
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "count": 0,
        }

    def test_engine_stats_use_nearest_rank(
        self, tiny_verifier, serve_context
    ):
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier}, EngineConfig(workers=1)
        )
        with ReplicaPool.hosting(engine) as pool:
            for i in range(4):
                pool.infer(TASK_VERIFY, f"claim number {i}", serve_context)
            latency = pool.stats()["latency"][TASK_VERIFY]
        assert latency["count"] == 4
        # p50 of 4 samples is the 2nd order statistic — strictly below
        # the max unless all samples tie.
        assert latency["p50_ms"] <= latency["p99_ms"]


class TestReload:
    """An engine serves fixed models; a model swap is a pool reload
    that replaces the hosted engine and drains the old one."""

    def test_swap_model_flips_id_and_answers(self, serve_context):
        engine = InferenceEngine(
            {TASK_VERIFY: _ConstVerifier("supported")},
            EngineConfig(workers=1),
        )
        with ReplicaPool.hosting(engine) as pool:
            before = pool.infer(TASK_VERIFY, "some claim", serve_context)
            assert before.label == "supported"
            summary = pool.reload({TASK_VERIFY: _ConstVerifier("refuted")})
            assert summary["replicas"] == 1
            after = pool.infer(
                TASK_VERIFY, "a different claim", serve_context
            )
            assert after.label == "refuted"
            stats = pool.stats()
            assert stats["reloads"] == 1
            assert stats["reconciles"]
        # the replaced engine was drained and stopped
        with pytest.raises(EngineStoppedError):
            engine.infer(TASK_VERIFY, "too late", serve_context)

    def test_swap_unknown_task_is_typed(self, tiny_qa_model):
        engine = InferenceEngine({TASK_QA: tiny_qa_model})
        with ReplicaPool.hosting(engine) as pool:
            with pytest.raises(ServeError):
                pool.reload({TASK_VERIFY: _ConstVerifier("refuted")})

    def test_swap_wrong_task_model_is_typed(
        self, tiny_qa_model, tiny_verifier, serve_context
    ):
        engine = InferenceEngine({TASK_QA: tiny_qa_model})
        with ReplicaPool.hosting(engine) as pool:
            with pytest.raises(ServeError):
                pool.reload({TASK_QA: tiny_verifier})
            # the failed reload left the old engine serving
            assert pool.infer(
                TASK_QA, "what is the points of bo chen ?", serve_context
            ).ok


class TestCacheFingerprint:
    """Regression: the cache used to key on ``model_id``, and every
    unregistered model shares the id ``unregistered-verify@v0`` — so a
    swap served the *old* model's cached answers."""

    def test_swap_does_not_serve_stale_cache(self, serve_context):
        engine = InferenceEngine(
            {TASK_VERIFY: _ConstVerifier("supported")},
            EngineConfig(workers=1, cache_size=64),
        )
        with ReplicaPool.hosting(engine) as pool:
            sentence = "the exact same claim twice"
            first = pool.infer(TASK_VERIFY, sentence, serve_context)
            repeat = pool.infer(TASK_VERIFY, sentence, serve_context)
            assert first.label == repeat.label == "supported"
            assert repeat.cached
            pool.reload({TASK_VERIFY: _ConstVerifier("refuted")})
            fresh = pool.infer(TASK_VERIFY, sentence, serve_context)
            assert fresh.label == "refuted"  # not the stale "supported"
            assert not fresh.cached

    def test_distinct_unregistered_models_never_share_entries(self):
        from repro.serve.engine import _ModelSlot

        slot_a = _ModelSlot(TASK_VERIFY, _ConstVerifier("supported"))
        slot_b = _ModelSlot(TASK_VERIFY, _ConstVerifier("refuted"))
        # same display id (the original bug), different fingerprints
        assert slot_a.model_id == slot_b.model_id
        assert slot_a.fingerprint != slot_b.fingerprint


class TestRetryAfter:
    """Regression: the hint used a lifetime average, so after a reload
    to a model with a different pace it stayed stale forever."""

    def test_hint_tracks_recent_window_not_lifetime(
        self, tiny_verifier, serve_context
    ):
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier}, EngineConfig(workers=1)
        )
        engine.start()
        try:
            for i in range(3):
                engine.infer(TASK_VERIFY, f"warm up claim {i}", serve_context)
            with engine._cond:
                engine._queued = 10  # pretend a backlog
                organic = engine._retry_after_locked()
                # simulate history from a 100× slower model: a lifetime
                # average would be dominated by it forever; the bounded
                # window forgets once recent samples replace it.
                engine._recent_compute.clear()
                engine._recent_compute.extend([1.0] * 4)
                slow = engine._retry_after_locked()
                engine._recent_compute.clear()
                engine._recent_compute.extend([0.001] * 4)
                fast = engine._retry_after_locked()
                engine._queued = 0
            assert slow > fast
            assert fast < organic * 100  # forgot the slow history
            assert slow == 5.0  # clamped ceiling
        finally:
            engine.stop(drain=True)

    def test_swap_model_resets_window(self, serve_context):
        engine = InferenceEngine(
            {TASK_VERIFY: _ConstVerifier("supported")},
            EngineConfig(workers=1),
        )
        with ReplicaPool.hosting(engine) as pool:
            pool.infer(TASK_VERIFY, "prime the window", serve_context)
            with engine._cond:
                assert len(engine._recent_compute) > 0
            pool.reload({TASK_VERIFY: _ConstVerifier("refuted")})
            # the reload served a fresh engine, which starts cold
            fresh = pool.stats()
            assert fresh["models"][TASK_VERIFY] == "unregistered-verify@v0"
            assert fresh["batches"]["count"] == 0

    def test_empty_window_uses_default(self, tiny_verifier):
        from repro.serve.engine import _DEFAULT_RETRY_AFTER

        engine = InferenceEngine({TASK_VERIFY: tiny_verifier})
        with engine._cond:
            assert engine._retry_after_locked() == _DEFAULT_RETRY_AFTER


class TestDeadlines:
    """Admission by budget is the pool's; an engine only expires a
    request whose budget ran out while it was queued."""

    def test_non_positive_deadline_is_typed(self, engine, serve_context):
        from repro.errors import DeadlineExceededError

        pool = ReplicaPool.hosting(engine)
        with pytest.raises(DeadlineExceededError) as caught:
            pool.infer(
                TASK_QA, "what is the points of bo chen ?", serve_context,
                deadline_s=0.0,
            )
        assert caught.value.remaining_s == 0.0
        stats = pool.stats()
        assert stats["deadline_rejected"] == 1
        assert stats["rejected"] == 1
        assert stats["reconciles"]
        # rejected before dispatch: the engine never saw it
        engine_stats = engine.stats()
        assert engine_stats["cache_misses"] == 0
        assert engine_stats["batched_requests"] == 0

    def test_budget_below_p50_compute_is_rejected(
        self, engine, serve_context
    ):
        from repro.errors import DeadlineExceededError

        pool = ReplicaPool.hosting(engine)
        # warm the slot's latency window (compute plus queueing) so the
        # p50 estimate is non-zero
        for i in range(3):
            assert pool.infer(
                TASK_QA, f"what is warm question {i} ?", serve_context
            ).ok
        with pytest.raises(DeadlineExceededError) as caught:
            pool.infer(
                TASK_QA, "what is the team of raj patel ?", serve_context,
                deadline_s=1e-9,
            )
        assert caught.value.estimate_s is not None
        assert caught.value.estimate_s > 1e-9

    def test_generous_deadline_is_admitted(self, engine, serve_context):
        pool = ReplicaPool.hosting(engine)
        response = pool.infer(
            TASK_QA, "what is the points of bo chen ?", serve_context,
            deadline_s=60.0,
        )
        assert response.ok
        stats = pool.stats()
        assert stats["rejected"] == stats["deadline_rejected"] == 0
        _assert_books_match(stats, [response])

    def test_cache_hit_ignores_deadline(self, engine, serve_context):
        sentence = "what is the rebounds of mike jones ?"
        assert engine.infer(TASK_QA, sentence, serve_context).ok
        # a computed answer on a dead budget expires in the queue…
        expired = engine.infer(
            TASK_QA, "what is the team of raj patel ?", serve_context,
            deadline_s=0.0,
        )
        assert expired.error.startswith("deadline_exceeded")
        # …but a cached answer costs nothing: even a dead budget gets it
        cached = engine.infer(
            TASK_QA, sentence, serve_context, deadline_s=0.0
        )
        assert cached.ok and cached.cached


class TestSlowFault:
    def test_injected_slowdown_stretches_service_time(
        self, tiny_verifier, serve_context
    ):
        import time as _time

        from repro.serve import chaos
        from repro.serve.chaos import ServeFaultPlan, ServeFaultSpec

        plan = ServeFaultPlan((
            ServeFaultSpec(kind="slow", seconds=0.25, count=1),
        ))
        with chaos.injected(plan):
            # the injector binds at construction, inside the plan
            engine = InferenceEngine(
                {TASK_VERIFY: tiny_verifier},
                EngineConfig(workers=1, cache_size=0),
            )
            engine.start()
        try:
            started = _time.monotonic()
            first = engine.infer(
                TASK_VERIFY, "the first claim is slow .", serve_context
            )
            slow_elapsed = _time.monotonic() - started
            started = _time.monotonic()
            second = engine.infer(
                TASK_VERIFY, "the second claim is fast .", serve_context
            )
            fast_elapsed = _time.monotonic() - started
            assert first.ok and second.ok
            assert slow_elapsed >= 0.25  # budget of one: only the first
            assert fast_elapsed < 0.25
        finally:
            engine.stop(drain=True)

    def test_no_plan_means_no_injector(self, engine):
        # zero-overhead-when-disabled: the hot path carries a single
        # attribute that is None, not a disabled gate object.
        assert engine._chaos is None


class TestEvidenceViewLifetime:
    """Served contexts own their evidence views; models keep none."""

    @staticmethod
    def _distinct_contexts(base, n):
        from repro.tables.context import TableContext

        contexts = []
        for index in range(n):
            payload = base.to_json()
            payload["uid"] = f"served-{index}"
            contexts.append(TableContext.from_json(payload))
        return contexts

    def test_served_contexts_are_freed(
        self, tiny_qa_model, tiny_verifier, serve_context
    ):
        import gc
        import time
        import weakref

        with InferenceEngine(
            {TASK_QA: tiny_qa_model, TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=2, max_batch_size=4),
        ) as engine:
            refs = []
            for index, context in enumerate(
                self._distinct_contexts(serve_context, 12)
            ):
                qa = engine.infer(
                    TASK_QA, f"what is the points of bo chen {index} ?",
                    context,
                )
                verify = engine.infer(
                    TASK_VERIFY, f"bo chen has a points of {index}", context
                )
                assert qa.ok and verify.ok
                refs.append(weakref.ref(context))
            del context
            # checked while the engine (and its model replicas) still
            # run; a worker may still be finishing the batch whose
            # response was just delivered, so allow it a moment.
            deadline = time.monotonic() + 5.0
            while True:
                gc.collect()
                alive = [ref() for ref in refs if ref() is not None]
                if not alive or time.monotonic() > deadline:
                    break
                del alive
                time.sleep(0.01)
            assert alive == []

    def test_view_built_once_per_context_across_tasks(
        self, monkeypatch, tiny_qa_model, tiny_verifier, serve_context
    ):
        from repro.models.features import EvidenceView

        built = []
        build = EvidenceView.build

        def counting_build(context):
            built.append(context.uid)
            return build(context)

        monkeypatch.setattr(EvidenceView, "build", staticmethod(counting_build))
        contexts = self._distinct_contexts(serve_context, 3)
        with InferenceEngine(
            {TASK_QA: tiny_qa_model, TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=2, max_batch_size=4, cache_size=0),
        ) as engine:
            for context in contexts:
                for _ in range(2):
                    assert engine.infer(
                        TASK_QA, "what is the points of bo chen ?", context
                    ).ok
                    assert engine.infer(
                        TASK_VERIFY, "bo chen has a points of 28", context
                    ).ok
        assert sorted(built) == sorted(c.uid for c in contexts)

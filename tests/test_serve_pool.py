"""Tests for the multi-process replica pool.

These spawn real replica processes, so the served models are the
fixed-service stubs from :mod:`repro.serve.stub` — picklable,
importable in the children, and millisecond-fast — rather than trained
models (training in every spawned child would dominate the suite).
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import EngineStoppedError, ServeError
from repro.serve import (
    EngineConfig,
    ModelRegistry,
    PoolConfig,
    ReplicaPool,
    TASK_QA,
    TASK_VERIFY,
    pool_from_registry,
)
from repro.serve.stub import FixedServiceQA, FixedServiceVerifier

pytestmark = pytest.mark.timeout(300)


@pytest.fixture
def stub_registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(FixedServiceQA(0.002), "qa-stub")
    registry.save(FixedServiceVerifier(0.002), "verify-stub")
    return tmp_path / "registry"


@pytest.fixture
def pool(stub_registry):
    pool = pool_from_registry(
        str(stub_registry),
        config=PoolConfig(replicas=2, engine=EngineConfig(workers=1)),
    )
    pool.start()
    yield pool
    pool.stop(drain=True)


class TestServing:
    def test_infer_both_tasks(self, pool, serve_context):
        qa = pool.infer(
            TASK_QA, "what is the points for john smith ?", serve_context
        )
        verify = pool.infer(
            TASK_VERIFY, "for john smith , the points is 31 .", serve_context
        )
        assert qa.ok and qa.task == TASK_QA
        assert qa.model == "qa-stub@v0001"
        assert verify.ok and verify.label in ("supported", "refuted")
        assert verify.model == "verify-stub@v0001"

    def test_unknown_task_is_typed(self, pool, serve_context):
        with pytest.raises(ServeError):
            pool.infer("translate", "bonjour", serve_context)

    def test_stats_aggregate_and_reconcile(self, pool, serve_context):
        for i in range(6):
            pool.infer(TASK_QA, f"question number {i} ?", serve_context)
        stats = pool.stats()
        assert stats["accepted"] == 6
        assert stats["completed"] == 6
        assert stats["in_flight"] == 0
        assert stats["reconciles"]
        assert len(stats["replicas"]) == 2
        # every request was computed once, on one replica's engine
        per_replica = sum(
            entry["engine"]["batched_requests"]
            for entry in stats["replicas"]
        )
        assert per_replica == 6
        assert stats["batches"]["requests"] == 6
        assert all(
            entry["engine"]["in_flight"] == 0 for entry in stats["replicas"]
        )
        assert stats["models"] == {
            TASK_QA: "qa-stub@v0001", TASK_VERIFY: "verify-stub@v0001",
        }
        assert stats["latency"][TASK_QA]["count"] == 6
        assert stats["latency_by_model"]["qa-stub@v0001"]["count"] == 6
        # resilience surface: breaker + hedge + deadline accounting is
        # always present, even when nothing has gone wrong
        assert stats["hedges"] == {"fired": 0, "won": 0}
        assert stats["spills"] == 0
        assert stats["deadline_rejected"] == 0
        for entry in stats["replicas"]:
            assert entry["state"] == "ready"
            assert entry["breaker"]["state"] == "closed"
            assert entry["breaker"]["trips"] == 0

    def test_replica_states_all_ready(self, pool):
        states = pool.replica_states()
        assert [e["slot"] for e in states] == [0, 1]
        assert all(e["state"] == "ready" for e in states)
        assert all(e["routable"] for e in states)
        assert pool.any_routable()

    def test_stopped_pool_reports_stopped(self, pool):
        pool.stop(drain=True)
        for states in (pool.replica_states(), pool.stats()["replicas"]):
            assert [e["state"] for e in states] == ["stopped", "stopped"]
        assert not any(e["routable"] for e in pool.replica_states())

    def test_routing_is_deterministic(self, pool, serve_context):
        from repro.serve.engine import context_digest

        digest = context_digest(serve_context)
        slots = {
            pool.route(TASK_QA, "what is the team for bo chen ?", digest)
            for _ in range(10)
        }
        assert len(slots) == 1  # same request, same replica, always
        assert slots.pop() in (0, 1)
        # distinct requests spread across slots
        spread = {
            pool.route(TASK_QA, f"question variant {i} ?", digest)
            for i in range(32)
        }
        assert spread == {0, 1}

    def test_repeat_request_hits_one_replica_cache(
        self, pool, serve_context
    ):
        sentence = "what is the rebounds for mike jones ?"
        first = pool.infer(TASK_QA, sentence, serve_context)
        repeat = pool.infer(TASK_QA, sentence, serve_context)
        assert first.answer == repeat.answer
        assert repeat.cached  # deterministic routing → cache locality

    def test_stopped_pool_rejects_typed(self, stub_registry, serve_context):
        pool = pool_from_registry(
            str(stub_registry),
            config=PoolConfig(replicas=1, engine=EngineConfig(workers=1)),
        )
        pool.start()
        pool.stop(drain=True)
        with pytest.raises(EngineStoppedError):
            pool.infer(TASK_QA, "anyone home ?", serve_context)
        assert pool.stats()["reconciles"]

    def test_bad_shapes_are_typed(self, stub_registry):
        with pytest.raises(ServeError):
            PoolConfig(replicas=0)
        with pytest.raises(ServeError):
            ReplicaPool(str(stub_registry), {})
        with pytest.raises(ServeError):
            ReplicaPool(
                str(stub_registry), {"translate": ("qa-stub", None)}
            )


class TestReload:
    def test_rolling_reload_under_load_drops_nothing(
        self, stub_registry, serve_context
    ):
        pool = pool_from_registry(
            str(stub_registry),
            config=PoolConfig(replicas=2, engine=EngineConfig(workers=1)),
        )
        pool.start()
        try:
            failures = []
            models_seen = set()
            stop = threading.Event()

            def hammer(offset: int) -> None:
                i = 0
                while not stop.is_set():
                    response = pool.infer(
                        TASK_QA,
                        f"load question {offset} {i} ?",
                        serve_context,
                    )
                    if not response.ok:
                        failures.append(response.error)
                    models_seen.add(response.model)
                    i += 1

            threads = [
                threading.Thread(target=hammer, args=(k,), daemon=True)
                for k in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            ModelRegistry(stub_registry).save(
                FixedServiceQA(0.001), "qa-stub"
            )
            summary = pool.reload()
            time.sleep(0.3)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert summary["old"][TASK_QA] == "qa-stub@v0001"
            assert summary["new"][TASK_QA] == "qa-stub@v0002"
            assert failures == []  # zero dropped requests across reload
            assert models_seen == {"qa-stub@v0001", "qa-stub@v0002"}
            stats = pool.stats()
            assert stats["reloads"] == 1
            assert stats["reconciles"]
            assert stats["in_flight"] == 0
            # canary view: both versions carry latency windows
            assert "qa-stub@v0001" in stats["latency_by_model"]
            assert "qa-stub@v0002" in stats["latency_by_model"]
        finally:
            pool.stop(drain=True)

    def test_reload_resolves_moved_default(
        self, stub_registry, serve_context
    ):
        pool = pool_from_registry(
            str(stub_registry),
            config=PoolConfig(replicas=1, engine=EngineConfig(workers=1)),
        )
        pool.start()
        try:
            ModelRegistry(stub_registry).save(
                FixedServiceVerifier(0.001), "verify-stub"
            )
            pool.reload()
            response = pool.infer(
                TASK_VERIFY, "a claim after the reload .", serve_context
            )
            assert response.ok
            assert response.model == "verify-stub@v0002"
        finally:
            pool.stop(drain=True)

    def test_reload_unknown_task_is_typed(self, pool):
        with pytest.raises(ServeError):
            pool.reload({"translate": ("qa-stub", None)})


class TestReplicaDeath:
    def test_dead_replica_is_respawned(self, stub_registry, serve_context):
        pool = pool_from_registry(
            str(stub_registry),
            config=PoolConfig(replicas=2, engine=EngineConfig(workers=1)),
        )
        pool.start()
        try:
            victim = pool.stats()["replicas"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = pool.stats()
                alive = [e for e in stats["replicas"] if e["alive"]]
                if stats["replica_restarts"] >= 1 and len(alive) == 2:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("dead replica was never respawned")
            # and the pool serves from both slots again
            for i in range(8):
                response = pool.infer(
                    TASK_QA, f"post restart question {i} ?", serve_context
                )
                assert response.ok
            pids = {e["pid"] for e in pool.stats()["replicas"]}
            assert victim not in pids
        finally:
            pool.stop(drain=True)

    def test_respawn_needs_no_metrics_scrape(self, stub_registry):
        """The dead replica's reader thread respawns it, retrying a
        failed spawn; nothing calls ``stats()`` (a pure read)."""
        pool = pool_from_registry(
            str(stub_registry),
            config=PoolConfig(replicas=2, engine=EngineConfig(workers=1)),
        )
        pool.start()
        new_slot, spawns = pool._new_slot, []

        def first_spawn_fails(slot, source):
            spawns.append(slot)
            if len(spawns) == 1:
                raise ServeError("injected spawn failure")
            return new_slot(slot, source)

        pool._new_slot = first_spawn_fails
        try:
            victim = pool._slots[0].pid
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not (
                pool.replica_restarts == 1
                and pool.health()["status"] == "ok"
            ):
                if time.monotonic() > deadline:
                    pytest.fail(
                        f"no respawn without stats(): {pool.health()}"
                    )
                time.sleep(0.1)
            assert pool._slots[0].pid != victim
            assert spawns == [0, 0]
        finally:
            pool.stop(drain=True)


class TestInProcessTransport:
    """The in-process engine is a one-slot pool: same surface, no pipe."""

    @pytest.fixture
    def local_pool(self, stub_registry):
        pool = pool_from_registry(
            str(stub_registry),
            config=PoolConfig(
                replicas=1, in_process=True, engine=EngineConfig(workers=1)
            ),
        )
        pool.start()
        yield pool
        pool.stop(drain=True)

    def test_in_process_pool_has_one_slot(self):
        with pytest.raises(ServeError):
            PoolConfig(replicas=2, in_process=True)

    def test_serves_reloads_and_reports_no_processes(
        self, stub_registry, local_pool, serve_context
    ):
        first = local_pool.infer(TASK_QA, "what is it ?", serve_context)
        assert first.ok and first.model == "qa-stub@v0001"
        ModelRegistry(stub_registry).save(FixedServiceQA(0.001), "qa-stub")
        summary = local_pool.reload()
        assert summary["old"][TASK_QA] == "qa-stub@v0001"
        assert summary["new"][TASK_QA] == "qa-stub@v0002"
        after = local_pool.infer(TASK_QA, "what is it now ?", serve_context)
        assert after.model == "qa-stub@v0002"
        stats = local_pool.stats()
        assert stats["reloads"] == 1
        assert stats["completed"] == 2 and stats["reconciles"]
        # the new engine's batches only: the drained one is gone
        assert stats["batches"]["count"] == 1
        # no replica processes: the slot runs in this process
        assert stats["replicas"] == []
        health = local_pool.health()
        assert health["status"] == "ok"
        assert [e["state"] for e in health["replicas"]] == ["ready"]

    def test_stopped_slot_reports_stopped(self, local_pool):
        local_pool.stop(drain=True)
        assert local_pool.replica_states() == [
            {"slot": 0, "state": "stopped", "routable": False,
             "breaker": "closed"}
        ]

    def test_in_flight_is_counted_not_derived(self, serve_context):
        from repro.serve import InferenceEngine

        # a never-started engine holds the request queued
        engine = InferenceEngine(
            {TASK_VERIFY: FixedServiceVerifier(0.0)},
            EngineConfig(workers=1, cache_size=0),
        )
        pool = ReplicaPool.hosting(engine)
        box = {}
        waiter = threading.Thread(
            target=lambda: box.update(response=pool.infer(
                TASK_VERIFY, "a queued claim", serve_context
            )),
        )
        waiter.start()
        deadline = time.monotonic() + 10
        while pool.stats()["queue_depth"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        stats = pool.stats()
        assert stats["accepted"] == 1 and stats["in_flight"] == 1
        assert stats["reconciles"]
        pool.start()
        waiter.join(10)
        assert box["response"].ok
        pool.stop(drain=True)
        stats = pool.stats()
        assert stats["in_flight"] == 0 and stats["completed"] == 1

    def test_engine_overload_is_typed_and_never_hedged(self, serve_context):
        from repro.errors import OverloadedError
        from repro.serve import InferenceEngine, InferenceRequest

        engine = InferenceEngine(
            {TASK_VERIFY: FixedServiceVerifier(0.0)},
            EngineConfig(workers=1, queue_limit=1, cache_size=0),
        )
        engine.submit(InferenceRequest(
            id="hog", task=TASK_VERIFY, sentence="hog", context=serve_context,
        ))
        pool = ReplicaPool.hosting(engine)
        with pytest.raises(OverloadedError) as caught:
            pool.infer(TASK_VERIFY, "one too many", serve_context)
        assert caught.value.retry_after > 0
        stats = pool.stats()
        assert stats["rejected"] == 1
        assert stats["hedges"] == {"fired": 0, "won": 0}
        assert stats["reconciles"]
        engine.stop(drain=False)

    def test_stop_returns_after_every_request_is_booked(
        self, serve_context
    ):
        from repro.serve import InferenceEngine

        engine = InferenceEngine(
            {TASK_VERIFY: FixedServiceVerifier(0.0)},
            EngineConfig(workers=1, cache_size=0),
        )
        pool = ReplicaPool.hosting(engine)  # never started: all queue
        callers = [
            threading.Thread(target=pool.infer, args=(
                TASK_VERIFY, f"queued claim {i}", serve_context,
            ))
            for i in range(4)
        ]
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 10
        while engine.stats()["queue_depth"] < 4:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        pool.stop(drain=False)
        # the callers' error responses are booked before stop returns
        stats = pool.stats()
        assert stats["in_flight"] == 0
        assert stats["completed"] == 4 and stats["reconciles"]
        for caller in callers:
            caller.join(10)
            assert not caller.is_alive()

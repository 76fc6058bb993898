"""Chaos suite: deterministic fault injection through the serving stack.

Unit-level: the fault plan's gating semantics (replica index, request
ordinals, fire budgets, once-sentinels) and the registry torn-read
injector.  End-to-end: real replica pools with hung, crashing, and
corrupting children — proving hedges, breakers, failover, and the
accounting invariant (``accepted == completed + rejected + in_flight``,
zero silent losses) under each fault.
"""

import threading
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    IntegrityError,
    ServeError,
)
from repro.serve import (
    EngineConfig,
    HedgePolicy,
    ModelRegistry,
    PoolConfig,
    RegistryWatcher,
    TASK_QA,
    pool_from_registry,
)
from repro.serve import chaos
from repro.serve.chaos import ServeFaultPlan, ServeFaultSpec
from repro.serve.engine import context_digest
from repro.serve.stub import FixedServiceQA, FixedServiceVerifier

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    chaos.clear()
    yield
    chaos.clear()


@pytest.fixture
def stub_registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(FixedServiceQA(0.002), "qa-stub")
    registry.save(FixedServiceVerifier(0.002), "verify-stub")
    return tmp_path / "registry"


def make_pool(stub_registry, **overrides):
    defaults = dict(
        replicas=2,
        engine=EngineConfig(workers=1),
        hedge=HedgePolicy(floor_s=0.05, ceiling_s=0.3),
        breaker_threshold=2,
        breaker_cooldown_s=5.0,
    )
    defaults.update(overrides)
    pool = pool_from_registry(
        str(stub_registry), config=PoolConfig(**defaults)
    )
    pool.start()
    return pool


def sentence_for_slot(pool, slot, context, tag="chaos"):
    """A QA sentence whose deterministic route is ``slot``."""
    digest = context_digest(context)
    for i in range(256):
        sentence = f"what is the {tag} value number {i} ?"
        if pool.route(TASK_QA, sentence, digest) == slot:
            return sentence
    raise AssertionError(f"no sentence routed to slot {slot}")


class TestPlan:
    def test_json_round_trip(self):
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="hang", replica=1, after=2, count=1),
            ServeFaultSpec(kind="slow", seconds=0.5, every=3),
        ))
        assert ServeFaultPlan.from_json(plan.to_json()) == plan

    def test_install_clear_and_context(self):
        plan = ServeFaultPlan((ServeFaultSpec(kind="crash"),))
        assert chaos.active_plan() is None
        with chaos.injected(plan):
            assert chaos.active_plan() == plan
        assert chaos.active_plan() is None

    def test_injectors_are_none_when_disabled(self):
        # the zero-overhead-when-disabled guarantee is this None: call
        # sites built without a plan carry no injection code at all.
        assert chaos.replica_injector() is None
        assert chaos.engine_injector() is None
        plan = ServeFaultPlan((ServeFaultSpec(kind="hang"),))
        with chaos.injected(plan):
            assert chaos.replica_injector() is not None
            assert chaos.engine_injector() is None  # no engine kinds


class TestInjectorGating:
    def _injector(self, spec, replica=None):
        return chaos.ChaosInjector([spec], replica)

    def test_after_every_count(self):
        injector = self._injector(
            ServeFaultSpec(kind="hang", after=2, every=3, count=2)
        )
        fired = [
            injector.on_request() is not None for _ in range(12)
        ]
        # requests 3 and 6 fire (1-indexed: after 2, stride 3, budget 2)
        assert fired == [
            False, False, True, False, False, True,
            False, False, False, False, False, False,
        ]

    def test_replica_filtering(self):
        spec = ServeFaultSpec(kind="crash", replica=1)
        assert self._injector(spec, replica=0).on_request() is None
        assert self._injector(spec, replica=1).on_request() is spec
        # replica=None specs fire everywhere
        anywhere = ServeFaultSpec(kind="crash")
        assert self._injector(anywhere, replica=3).on_request() is anywhere

    def test_once_sentinel_fires_once_across_injectors(self, tmp_path):
        once = str(tmp_path / "once.sentinel")
        spec = ServeFaultSpec(kind="hang", once_path=once)
        first = self._injector(spec)
        second = self._injector(spec)
        assert first.on_request() is spec
        assert first.on_request() is None  # sentinel already claimed
        assert second.on_request() is None  # across instances too


class TestRegistryTornRead:
    def _plan(self, count=1):
        return ServeFaultPlan((
            ServeFaultSpec(kind="registry_torn_read", count=count),
        ))

    def test_record_raises_injected_integrity_error(self, stub_registry):
        registry = ModelRegistry(stub_registry)
        with chaos.injected(self._plan(count=1)):
            with pytest.raises(IntegrityError, match="injected torn read"):
                registry.record("qa-stub")
            # budget exhausted: the very next read succeeds
            assert registry.record("qa-stub").model_id == "qa-stub@v0001"

    def test_watcher_survives_torn_read(self, stub_registry):
        """Regression: a torn read mid-save must not kill the watcher.

        The watcher logs a structured event, keeps its last healthy
        observation, and still catches the version change on the next
        healthy poll.
        """
        registry = ModelRegistry(stub_registry)
        reloads = []
        events = []
        watcher = RegistryWatcher(
            registry,
            ["qa-stub"],
            lambda: reloads.append(1) or {"mode": "test"},
            interval_s=0.01,
            emit=events.append,
        )
        # poll 1: every read is torn — logged, survived, no reload
        with chaos.injected(self._plan(count=4)):
            assert watcher.poll_once() is None
        assert watcher.errors >= 1
        assert any('"registry_watch_error"' in e for e in events)
        assert reloads == []
        # poll 2: healthy again, nothing changed — still no reload
        assert watcher.poll_once() is None
        # poll 3: the default moved — the change was not lost
        registry.save(FixedServiceQA(0.001), "qa-stub")
        summary = watcher.poll_once()
        assert summary == {"mode": "test"}
        assert reloads == [1]
        assert any('"registry_watch_reload"' in e for e in events)

    def test_watcher_survives_failing_reloader(self, stub_registry):
        registry = ModelRegistry(stub_registry)
        events = []

        def explode():
            raise RuntimeError("reload transport down")

        watcher = RegistryWatcher(
            registry, ["qa-stub"], explode, interval_s=0.01,
            emit=events.append,
        )
        registry.save(FixedServiceQA(0.001), "qa-stub")
        assert watcher.poll_once() is None  # failed, not fatal
        assert any('"registry_watch_reload_failed"' in e for e in events)
        # the change is retried (and still failing) on the next tick
        assert watcher.poll_once() is None
        assert len(
            [e for e in events if "registry_watch_reload_failed" in e]
        ) == 2


class TestHungReplica:
    def test_hedge_completes_request_and_strikes_primary(
        self, stub_registry, serve_context
    ):
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="hang", replica=0, count=1),
        ))
        with chaos.injected(plan):
            pool = make_pool(stub_registry)
        try:
            sentence = sentence_for_slot(pool, 0, serve_context)
            started = time.monotonic()
            response = pool.infer(TASK_QA, sentence, serve_context)
            elapsed = time.monotonic() - started
            assert response.ok, response.error
            # the hedge fired after the (cold-window) ceiling delay and
            # won; the hung primary took the strike.
            assert elapsed < 5.0
            stats = pool.stats()
            assert stats["hedges"]["fired"] >= 1
            assert stats["hedges"]["won"] >= 1
            breaker = stats["replicas"][0]["breaker"]
            assert breaker["consecutive_failures"] >= 1
            assert stats["reconciles"]
            assert stats["in_flight"] == 0
        finally:
            pool.stop(drain=True)

    def test_leg_stranded_on_tripped_slot_fails_over(
        self, stub_registry, serve_context
    ):
        # the hung request's timer hedge is 15 s out; other traffic
        # (two corrupt replies from slot 0) trips slot 0's breaker, and
        # the stranded leg must fail over then, not at the timer or the
        # 20 s request timeout.
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="hang", replica=0, count=1),
            ServeFaultSpec(kind="corrupt", replica=0, after=1, count=2),
        ))
        with chaos.injected(plan):
            pool = make_pool(
                stub_registry,
                hedge=HedgePolicy(floor_s=15.0, ceiling_s=15.0),
                request_timeout_s=20.0,
            )
        try:
            box = {}
            hung = threading.Thread(target=lambda: box.update(
                response=pool.infer(
                    TASK_QA, sentence_for_slot(pool, 0, serve_context),
                    serve_context,
                ),
                done=time.monotonic(),
            ))
            started = time.monotonic()
            hung.start()
            time.sleep(0.2)  # the hung leg is in flight on slot 0
            for tag in ("strike-a", "strike-b"):
                response = pool.infer(
                    TASK_QA, sentence_for_slot(pool, 0, serve_context, tag),
                    serve_context,
                )
                assert response.ok, response.error  # failed over
            assert pool.replica_states()[0]["state"] == "breaker_open"
            hung.join(timeout=25.0)
            assert box["response"].ok, box["response"].error
            assert box["done"] - started < 5.0
            stats = pool.stats()
            assert stats["errors"] == 0
            assert stats["reconciles"] and stats["in_flight"] == 0
        finally:
            pool.stop(drain=True)


class TestFailOpen:
    """A pool whose breakers all refuse still serves, through one leg."""

    @pytest.mark.parametrize("other", ["draining", "breaker_open"])
    def test_open_breaker_serves_when_no_slot_admits(
        self, stub_registry, serve_context, other
    ):
        pool = make_pool(
            stub_registry, hedge=HedgePolicy(floor_s=5.0, ceiling_s=5.0)
        )
        handle = pool._slots[1]
        try:
            tripped = [0] if other == "draining" else [0, 1]
            if other == "draining":
                handle.draining = True  # mid rolling reload
            for slot in tripped:
                for _ in range(2):
                    pool._breakers[slot].record_failure()
            assert [s["routable"] for s in pool.replica_states()] == [
                False, False
            ]
            for slot in (0, 1):
                response = pool.infer(
                    TASK_QA, sentence_for_slot(pool, slot, serve_context),
                    serve_context,
                )
                assert response.ok, response.error
            stats = pool.stats()
            # served fail-open on one leg each: no duplicate dispatch,
            # and the success re-closed the serving slot's breaker
            assert stats["hedges"]["fired"] == 0
            assert stats["errors"] == 0
            assert pool.replica_states()[0]["state"] == "ready"
        finally:
            handle.draining = False
            pool.stop(drain=True)

    @pytest.mark.parametrize("other", ["draining", "breaker_open"])
    def test_stranded_leg_past_its_timer_waits_without_spinning(
        self, stub_registry, serve_context, other
    ):
        # the lone leg sits on a slow slot whose breaker is open, no slot
        # admits a race, and the timer falls due: the dispatcher must
        # spend the timer and go back to waiting, not wake at once on
        # every pass until the reply comes
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="slow", replica=0, seconds=0.6),
        ))
        with chaos.injected(plan):
            pool = make_pool(
                stub_registry, hedge=HedgePolicy(floor_s=0.05, ceiling_s=0.05)
            )
        handle = pool._slots[1]
        try:
            tripped = [0] if other == "draining" else [0, 1]
            if other == "draining":
                handle.draining = True
            for slot in tripped:
                for _ in range(2):
                    pool._breakers[slot].record_failure()
            cpu = time.thread_time()
            response = pool.infer(
                TASK_QA, sentence_for_slot(pool, 0, serve_context),
                serve_context,
            )
            cpu = time.thread_time() - cpu
            assert response.ok, response.error
            assert pool.stats()["hedges"]["fired"] == 0
            # the dispatcher runs on this thread; waiting costs it next
            # to no CPU, a busy-wait costs it most of the 0.6 s
            assert cpu < 0.2, f"dispatcher burned {cpu:.3f}s of CPU"
        finally:
            handle.draining = False
            pool.stop(drain=True)

    def test_timer_hedge_never_targets_an_open_breaker(
        self, stub_registry, serve_context
    ):
        # slot 0 is slow but healthy; slot 1's breaker is open.  The
        # timer hedge has nowhere admitting to go, so it must not fire
        # fail-open into slot 1 (bypassing its half-open probe) nor
        # strike slot 0 for losing that race.
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="slow", replica=0, seconds=0.4),
        ))
        with chaos.injected(plan):
            pool = make_pool(
                stub_registry, hedge=HedgePolicy(floor_s=0.05, ceiling_s=0.05)
            )
        try:
            for _ in range(2):
                pool._breakers[1].record_failure()
            response = pool.infer(
                TASK_QA, sentence_for_slot(pool, 0, serve_context),
                serve_context,
            )
            assert response.ok, response.error
            stats = pool.stats()
            assert stats["hedges"]["fired"] == 0
            assert pool.replica_states()[1]["state"] == "breaker_open"
            assert stats["replicas"][0]["breaker"][
                "consecutive_failures"
            ] == 0
        finally:
            pool.stop(drain=True)


class TestCrashingReplica:
    def test_failover_completes_and_slot_respawns(
        self, stub_registry, serve_context
    ):
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="crash", replica=0, count=1),
        ))
        with chaos.injected(plan):
            pool = make_pool(stub_registry)
        try:
            sentence = sentence_for_slot(pool, 0, serve_context)
            response = pool.infer(TASK_QA, sentence, serve_context)
            # the crash is terminal on the first leg; failover
            # re-dispatches immediately and the request still succeeds.
            assert response.ok, response.error
            assert pool.stats()["hedges"]["fired"] >= 1
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = pool.stats()
                alive = [e for e in stats["replicas"] if e.get("alive")]
                if stats["replica_restarts"] >= 1 and len(alive) == 2:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("crashed replica was never respawned")
            assert stats["reconciles"]
        finally:
            pool.stop(drain=True)


class TestCorruptReplies:
    def test_corrupt_reply_is_typed_not_fatal(
        self, stub_registry, serve_context
    ):
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="corrupt", replica=0, count=1),
        ))
        with chaos.injected(plan):
            pool = make_pool(stub_registry, hedge=None)
        try:
            sentence = sentence_for_slot(pool, 0, serve_context)
            response = pool.infer(TASK_QA, sentence, serve_context)
            assert not response.ok
            assert response.error.startswith("replica_failed")
            assert "corrupt" in response.error
            stats = pool.stats()
            assert stats["replicas"][0]["breaker"][
                "consecutive_failures"
            ] >= 1
            assert stats["errors"] == 1
            assert stats["reconciles"]
            # the replica itself is fine — the next request succeeds
            again = pool.infer(TASK_QA, sentence, serve_context)
            assert again.ok
        finally:
            pool.stop(drain=True)

    def test_repeated_corruption_trips_breaker_and_spills(
        self, stub_registry, serve_context
    ):
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="corrupt", replica=0, count=2),
        ))
        with chaos.injected(plan):
            pool = make_pool(stub_registry, hedge=None)
        try:
            sentence = sentence_for_slot(pool, 0, serve_context)
            for _ in range(2):
                response = pool.infer(TASK_QA, sentence, serve_context)
                assert not response.ok
            states = {e["slot"]: e for e in pool.replica_states()}
            assert states[0]["state"] == "breaker_open"
            assert states[0]["routable"] is False
            assert states[1]["state"] == "ready"
            assert pool.any_routable()
            # traffic for slot 0 now spills deterministically to slot 1
            response = pool.infer(TASK_QA, sentence, serve_context)
            assert response.ok
            stats = pool.stats()
            assert stats["spills"] >= 1
            assert stats["replicas"][0]["breaker"]["state"] == "open"
            assert stats["reconciles"]
        finally:
            pool.stop(drain=True)


class TestDeadlines:
    def test_exhausted_budget_is_rejected_before_dispatch(
        self, stub_registry, serve_context
    ):
        pool = make_pool(stub_registry)
        try:
            with pytest.raises(DeadlineExceededError):
                pool.infer(
                    TASK_QA, "any question at all ?", serve_context,
                    deadline_s=0.0,
                )
            stats = pool.stats()
            assert stats["deadline_rejected"] == 1
            assert stats["rejected"] == 1
            assert stats["reconciles"]
        finally:
            pool.stop(drain=True)

    def test_budget_below_observed_p50_is_rejected(
        self, stub_registry, serve_context
    ):
        pool = make_pool(stub_registry)
        try:
            sentence = sentence_for_slot(pool, 0, serve_context)
            for i in range(4):  # warm slot 0's latency window
                warm = sentence_for_slot(
                    pool, 0, serve_context, tag=f"warm{i}"
                )
                assert pool.infer(TASK_QA, warm, serve_context).ok
            with pytest.raises(DeadlineExceededError) as exc:
                pool.infer(
                    TASK_QA, sentence, serve_context, deadline_s=1e-7
                )
            assert exc.value.estimate_s is not None
            assert exc.value.estimate_s > 1e-7
        finally:
            pool.stop(drain=True)


class TestShutdownUnderFire:
    def test_stop_during_hedged_inflight_reconciles(
        self, stub_registry, serve_context
    ):
        """Zero silent losses: every request issued around a drain ends
        as a response or a typed exception, and the books balance."""
        plan = ServeFaultPlan((
            ServeFaultSpec(kind="hang", replica=0),  # every slot-0 request
        ))
        with chaos.injected(plan):
            pool = make_pool(stub_registry)
        outcomes = []
        lock = threading.Lock()

        def fire(i):
            try:
                response = pool.infer(
                    TASK_QA, f"shutdown fire question {i} ?", serve_context
                )
                with lock:
                    outcomes.append(("response", response.ok))
            except ServeError as error:
                with lock:
                    outcomes.append(("raised", type(error).__name__))

        threads = [
            threading.Thread(target=fire, args=(i,), daemon=True)
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # some legs in flight, some hedges pending
        pool.stop(drain=True)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 6  # nothing vanished
        stats = pool.stats()
        assert stats["in_flight"] == 0
        assert stats["accepted"] == (
            stats["completed"] + stats["rejected"]
        )
        assert stats["reconciles"]

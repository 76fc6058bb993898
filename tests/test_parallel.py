"""Serial ≡ parallel determinism and the context driver's plumbing."""

import inspect
import json
import subprocess
import sys
import tempfile
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel as parallel
from repro.parallel import (
    _Chunk,
    _charge_chunk,
    generate_parallel,
    pick_start_method,
    shard_indices,
)
from repro.pipelines import UCTR, UCTRConfig
from repro.runtime import CheckpointManager, RetryPolicy, run_fingerprint
from repro.runtime.faults import FaultPlan, FaultSpec, injected
from repro.tables import Paragraph, Table, TableContext
from repro.telemetry import Telemetry


def _context(i: int) -> TableContext:
    table = Table.from_rows(
        header=["player", "team", "points", "rebounds"],
        raw_rows=[
            [f"p{i}{j}", f"team{j % 3}", str(10 + 3 * j + i), str(j + i)]
            for j in range(5)
        ],
        title=f"stats {i}",
        row_name_column="player",
    )
    text = (
        f"For newcomer{i} , the team is team9 and the points is {20 + i} "
        f"and the rebounds is {3 + i} ."
    )
    return TableContext(
        table=table, uid=f"ctx{i}", paragraphs=(Paragraph(text=text),)
    )


@pytest.fixture(scope="module")
def contexts():
    return [_context(i) for i in range(6)]


@pytest.fixture(scope="module")
def framework(contexts):
    framework = UCTR(
        UCTRConfig(program_kinds=("sql", "logic"), samples_per_context=6,
                   seed=7)
    )
    return framework.fit(contexts)


def _fingerprint(samples):
    return json.dumps([s.to_json() for s in samples], sort_keys=True)


class TestDeterminism:
    def test_workers_do_not_change_output(self, framework, contexts):
        baseline = _fingerprint(framework.generate(contexts, workers=1))
        for workers in (2, 4):
            assert _fingerprint(
                framework.generate(contexts, workers=workers)
            ) == baseline, f"workers={workers} diverged from serial"

    def test_budget_respected_in_parallel(self, framework, contexts):
        serial = framework.generate(contexts, budget=9, workers=1)
        parallel_run = framework.generate(contexts, budget=9, workers=2)
        assert _fingerprint(serial) == _fingerprint(parallel_run)
        assert len(parallel_run) == 9

    def test_per_context_stream_matches_batch(self, framework, contexts):
        batch = framework.generate(contexts, workers=2)
        solo = framework.generate_for_context(contexts[3], context_index=3)
        from_batch = [s for s in batch if s.uid.startswith("ctx3-")]
        assert _fingerprint(solo) == _fingerprint(from_batch)

    def test_repeated_runs_are_stable(self, framework, contexts):
        assert _fingerprint(framework.generate(contexts, workers=2)) == \
            _fingerprint(framework.generate(contexts, workers=2))


class TestExecutorPlumbing:
    def test_shard_indices_partition(self):
        for count in (1, 2, 5, 17, 64):
            for workers in (1, 2, 4):
                chunks = shard_indices(count, workers)
                flat = [i for chunk in chunks for i in chunk]
                assert flat == list(range(count))
                assert all(chunk for chunk in chunks)

    def test_shard_indices_empty(self):
        assert shard_indices(0, 4) == []

    def test_pick_start_method_on_this_platform(self):
        # every CPython offers at least spawn
        assert pick_start_method() in ("fork", "spawn")

    def test_worker_telemetry_merged(self, framework, contexts):
        framework.generate(contexts, workers=2)
        telemetry = framework.last_telemetry
        assert telemetry.count("attempts") > 0
        for pipeline in telemetry.pipelines():
            if pipeline == "parallel":
                continue
            assert telemetry.reconciles(pipeline), pipeline

    def test_generation_state_requires_fit(self, contexts):
        unfitted = UCTR(UCTRConfig())
        with pytest.raises(RuntimeError):
            unfitted.generation_state()

    def test_single_context_skips_pool(self, framework, contexts):
        # workers capped at len(contexts); one context runs in-process
        telemetry = Telemetry()
        results = generate_parallel(
            framework.generation_state(), contexts[:1], 8, telemetry
        )
        assert len(results) == 1
        assert results[0]

    def test_done_indices_come_back_as_given(self, framework, contexts):
        state = framework.generation_state()
        serial = generate_parallel(state, contexts, 1, Telemetry())
        done = {0: serial[0], 4: []}
        for workers in (1, 2):
            ran = []
            results = generate_parallel(
                state, contexts, workers, Telemetry(), done=done,
                on_outcome=lambda outcome: ran.append(outcome.index),
            )
            assert results[0] is serial[0] and results[4] == []
            assert sorted(ran) == [1, 2, 3, 5]
            for index in (1, 2, 3, 5):
                assert _fingerprint(results[index]) == _fingerprint(
                    serial[index]
                )

    def test_on_outcome_fires_once_per_context(self, framework, contexts):
        for workers in (1, 2):
            seen = []
            generate_parallel(
                framework.generation_state(), contexts, workers,
                Telemetry(), on_outcome=seen.append,
            )
            assert sorted(o.index for o in seen) == list(range(len(contexts)))
            assert all(o.ok for o in seen)

    def test_serial_run_loads_no_process_pool(self):
        # a workers=1 run must not pay for multiprocessing's imports
        script = "\n".join([
            "import sys",
            "from repro.pipelines import UCTR, UCTRConfig",
            "from repro.tables import Paragraph, Table, TableContext",
            inspect.getsource(_context),
            "contexts = [_context(i) for i in range(3)]",
            "config = UCTRConfig(program_kinds=('sql',))",
            "framework = UCTR(config).fit(contexts)",
            "assert framework.generate(contexts, workers=1)",
            "print(sorted(set(sys.modules) & {'multiprocessing',"
            " 'concurrent.futures.process'}))",
        ])
        root = Path(__file__).resolve().parent.parent
        completed = subprocess.run(
            [sys.executable, "-c", script], cwd=root, check=True,
            capture_output=True, text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": ""},
        )
        assert completed.stdout.strip() == "[]"


def _checkpoint(directory, framework, contexts, indices):
    """A partial checkpoint holding exactly ``indices``."""
    state = framework.generation_state()
    per_context = generate_parallel(state, contexts, 1, Telemetry())
    manager = CheckpointManager(
        directory,
        fingerprint=run_fingerprint(state, contexts),
        total=len(contexts),
    ).open()
    for index in sorted(indices):
        manager.record(index, per_context[index])
    manager.finalize(partial=True)
    return directory


class TestResume:
    """A resumed run emits what an uninterrupted one does."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gap_resume_with_budget_matches_fresh(
        self, framework, contexts, tmp_path, workers
    ):
        # the gaps an interrupted parallel run leaves: 1 and 2 missing
        checkpoint = _checkpoint(tmp_path, framework, contexts, {0, 3, 4, 5})
        fresh = framework.generate(contexts, budget=9, workers=1)
        resumed = framework.generate(
            contexts, budget=9, workers=workers, resume_from=checkpoint
        )
        assert len(resumed) == 9
        assert _fingerprint(resumed) == _fingerprint(fresh)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_records_each_context_once(
        self, monkeypatch, framework, contexts, tmp_path, workers
    ):
        recorded = []
        record = CheckpointManager.record

        def spy(manager, index, samples):
            recorded.append(index)
            record(manager, index, samples)

        monkeypatch.setattr(CheckpointManager, "record", spy)
        framework.generate(contexts, workers=workers, checkpoint_dir=tmp_path)
        assert sorted(recorded) == list(range(len(contexts)))
        if workers == 1:
            assert recorded == sorted(recorded)  # as each completes

    @settings(max_examples=30, deadline=None)
    @given(
        budget=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
        completed=st.sets(st.integers(min_value=0, max_value=5)),
    )
    def test_resumed_output_equals_fresh(
        self, framework, contexts, budget, completed
    ):
        fresh = framework.generate(contexts, budget=budget, workers=1)
        with tempfile.TemporaryDirectory() as directory:
            checkpoint = _checkpoint(directory, framework, contexts, completed)
            resumed = framework.generate(
                contexts, budget=budget, workers=1, resume_from=checkpoint
            )
        assert _fingerprint(resumed) == _fingerprint(fresh)


class TestBackfill:
    """Whatever the pool rounds leave unfilled finishes in-process."""

    def test_missing_indices_regenerated_and_counted(
        self, monkeypatch, framework, contexts
    ):
        state = framework.generation_state()
        serial = generate_parallel(state, contexts, 1, Telemetry())
        # rounds that never fill anything run the round budget out
        monkeypatch.setattr(parallel, "_run_round", lambda *args: [])
        telemetry = Telemetry()
        seen = []
        results = generate_parallel(
            state, contexts, 2, telemetry, on_outcome=seen.append
        )
        # regenerated in-process, byte-identical to the serial output
        assert _fingerprint(
            [s for produced in results for s in produced]
        ) == _fingerprint([s for produced in serial for s in produced])
        assert sorted(o.index for o in seen) == list(range(len(contexts)))
        # counted exactly once per leftover context, never silently
        assert telemetry.count("retries", "leftover/in_process") == len(
            contexts
        )

    def test_nothing_missing_is_a_noop(self, framework, contexts):
        for workers in (1, 2):
            telemetry = Telemetry()
            generate_parallel(
                framework.generation_state(), contexts, workers, telemetry
            )
            assert telemetry.count("retries") == 0

    def test_backfill_quarantines_poisoned_context(
        self, monkeypatch, framework, contexts
    ):
        monkeypatch.setattr(parallel, "_run_round", lambda *args: [])
        telemetry = Telemetry()
        seen = []
        with injected(FaultPlan({2: FaultSpec(kind="raise")})):
            results = generate_parallel(
                framework.generation_state(), contexts, 2, telemetry,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                on_outcome=seen.append,
            )
        assert results[2] == []
        events = telemetry.events("quarantine")
        assert [(e["index"], e["stage"]) for e in events] == [(2, "parent")]
        assert [o.index for o in seen if not o.ok] == [2]


class TestQuarantineOutcome:
    """A quarantined context reaches ``on_outcome`` with ``ok=False``."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_context(self, framework, contexts, workers):
        seen = []
        with injected(FaultPlan({3: FaultSpec(kind="raise")})):
            generate_parallel(
                framework.generation_state(), contexts, workers,
                Telemetry(), on_outcome=seen.append,
                policy=RetryPolicy(max_attempts=1, backoff_base=0.0),
            )
        assert sorted(o.index for o in seen) == list(range(len(contexts)))
        (failed,) = [o for o in seen if not o.ok]
        assert failed.index == 3 and failed.samples == []
        assert failed.quarantine.reason == "exception"

    def test_parent_side_quarantine(self, contexts):
        seen = []
        results = [None] * len(contexts)
        telemetry = Telemetry()
        _charge_chunk(
            _Chunk([4]), "worker_death", deque(), RetryPolicy(max_attempts=1),
            contexts, results, telemetry, seen.append,
        )
        (outcome,) = seen
        assert not outcome.ok and outcome.index == 4
        assert outcome.quarantine.reason == "worker_death"
        assert outcome.quarantine.stage == "parent"
        assert results[4] == []
        assert [e["index"] for e in telemetry.events("quarantine")] == [4]

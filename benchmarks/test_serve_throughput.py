"""Bench: serving throughput — micro-batching vs batch-size-1 serial.

Drives the same deterministic closed-loop workload
(:mod:`repro.serve.loadgen`) through two engine configurations that
differ only in batching policy:

* **serial**  — ``max_batch_size=1``: every request is its own model
  call (the classic one-request-per-dispatch server).
* **batched** — ``max_batch_size=32``: the worker greedily drains
  everything queued into one model call.

Both run one worker and no response cache, so the measured difference
is batch amortization alone.  The verifier is sized for serving
(``hidden_dims=(512, 256)``) so its forward pass — the part batching
amortizes into one matrix multiply, the way real transformer serving
does — dominates per-claim featurization; QA is reported alongside
(its ``predict_batch`` is contractually a per-sample loop, so its
gains are engine-overhead amortization only).

Results land in ``benchmarks/BENCH_serve.json``.  The >=2x speedup
assertion on the verify workload always runs — it is this PR's
acceptance criterion, not a hardware-sensitive regression gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.models.qa import QAConfig, TagOpQA
from repro.models.verifier import FactVerifier, VerifierConfig
from repro.pipelines.samples import ReasoningSample, TaskType
from repro.sampling.labeler import ClaimLabel
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    ServeClient,
    TASK_QA,
    TASK_VERIFY,
    build_workload,
    run_load,
)
from repro.tables import Paragraph, Table, TableContext

_HERE = Path(__file__).resolve().parent
BENCH_PATH = _HERE / "BENCH_serve.json"

#: requests per measured load run.
N_REQUESTS = 400

#: closed-loop client threads (the concurrency batching feeds on).
N_CLIENTS = 8

#: results accumulated across the tests in this module, written once.
RESULTS: dict[str, object] = {}


def _bench_context() -> TableContext:
    table = Table.from_rows(
        header=["player", "team", "points", "rebounds", "assists"],
        raw_rows=[
            ["john smith", "hawks", "31", "7", "4"],
            ["mike jones", "bulls", "22", "11", "9"],
            ["alan reed", "hawks", "17", "4", "2"],
            ["bo chen", "heat", "28", "9", "6"],
            ["raj patel", "bulls", "12", "6", "11"],
            ["omar diaz", "heat", "25", "8", "3"],
        ],
        title="player statistics",
        row_name_column="player",
    )
    return TableContext(
        table=table,
        paragraphs=(
            Paragraph(text="league statistics for the season .",
                      source="context"),
        ),
        uid="ctx-serve-bench",
    )


@pytest.fixture(scope="module")
def context() -> TableContext:
    return _bench_context()


@pytest.fixture(scope="module")
def models(context):
    qa_samples = []
    verify_samples = []
    table = context.table
    for row in range(table.n_rows):
        name = table.row_name(row)
        for column in table.numeric_column_names():
            cell = table.cell(row, column)
            qa_samples.append(ReasoningSample(
                uid=f"bq-{row}-{column}",
                task=TaskType.QUESTION_ANSWERING,
                context=context,
                sentence=f"what is the {column} for {name} ?",
                answer=(cell.raw,),
            ))
            for label, value in (
                (ClaimLabel.SUPPORTED, cell.raw),
                (ClaimLabel.REFUTED, "999999"),
            ):
                verify_samples.append(ReasoningSample(
                    uid=f"bv-{row}-{column}-{label.value}",
                    task=TaskType.FACT_VERIFICATION,
                    context=context,
                    sentence=f"for {name} , the {column} is {value} .",
                    label=label,
                ))
    qa = TagOpQA(QAConfig(epochs=10, seed=0))
    qa.fit(qa_samples)
    # Serving-scale classifier: the forward pass must dominate (that is
    # what micro-batching amortizes); the default tiny eval MLP is
    # featurization-bound and would understate batching on any model
    # big enough to need a serving stack.
    verifier = FactVerifier(
        VerifierConfig(epochs=10, seed=0, hidden_dims=(512, 256))
    )
    verifier.fit(verify_samples)
    return {TASK_QA: qa, TASK_VERIFY: verifier}


def _measure(
    models, context, *, max_batch_size: int, tasks, repeat: int = 3
) -> dict:
    """Best-of-``repeat`` sustained RPS of one engine configuration."""
    best: dict | None = None
    for _ in range(repeat):
        engine = InferenceEngine(
            models,
            EngineConfig(
                workers=1,
                max_batch_size=max_batch_size,
                queue_limit=4096,
                cache_size=0,     # no cache: measure compute, not memoization
            ),
        )
        workload = build_workload(
            [context], N_REQUESTS, tasks=tasks, seed=42
        )
        with engine:
            report = run_load(
                ServeClient(engine), workload, clients=N_CLIENTS
            )
        stats = engine.stats()  # after the drain
        assert report.errors == 0 and report.rejected == 0
        assert report.completed == N_REQUESTS
        # nothing left behind, and (no cache) every request computed once
        assert stats["queue_depth"] == 0 and stats["in_flight"] == 0
        assert stats["batched_requests"] == N_REQUESTS
        candidate = {
            "rps": round(report.rps, 1),
            "latency": report.latency,
            "mean_batch_size": round(
                stats["batched_requests"] / stats["batches"], 3
            ),
            "max_batch_seen": stats["max_batch"],
        }
        if best is None or candidate["rps"] > best["rps"]:
            best = candidate
    return best


def test_verify_micro_batching_speedup(models, context):
    """Acceptance: batched verify throughput >= 2x batch-size-1 serial."""
    serial = _measure(
        models, context, max_batch_size=1, tasks=(TASK_VERIFY,)
    )
    batched = _measure(
        models, context, max_batch_size=32, tasks=(TASK_VERIFY,)
    )
    speedup = batched["rps"] / max(1e-9, serial["rps"])
    RESULTS["verify"] = {
        "serial": serial,
        "batched": batched,
        "speedup": round(speedup, 2),
    }
    print(
        f"\nverify: serial {serial['rps']:.0f} rps -> batched "
        f"{batched['rps']:.0f} rps ({speedup:.2f}x, mean batch "
        f"{batched['mean_batch_size']:.1f})"
    )
    assert batched["mean_batch_size"] > 1.0, "batching never engaged"
    assert speedup >= 2.0, (
        f"micro-batching must at least double verify throughput; "
        f"got {speedup:.2f}x ({serial['rps']:.0f} -> {batched['rps']:.0f} rps)"
    )


def test_qa_and_mixed_workloads_reported(models, context):
    """QA and mixed workloads: recorded, sanity-gated only.

    QA's predict_batch is contractually a per-sample loop (bitwise-
    identical scores beat batch amortization there), so batching must
    not *hurt*; the speedup requirement lives on the verify workload.
    """
    for key, tasks in (
        ("qa", (TASK_QA,)),
        ("mixed", (TASK_QA, TASK_VERIFY)),
    ):
        serial = _measure(models, context, max_batch_size=1, tasks=tasks)
        batched = _measure(models, context, max_batch_size=32, tasks=tasks)
        speedup = batched["rps"] / max(1e-9, serial["rps"])
        RESULTS[key] = {
            "serial": serial,
            "batched": batched,
            "speedup": round(speedup, 2),
        }
        print(
            f"\n{key}: serial {serial['rps']:.0f} rps -> batched "
            f"{batched['rps']:.0f} rps ({speedup:.2f}x)"
        )
        assert speedup > 0.8, f"batching degraded the {key} workload"


def test_write_bench_json():
    """Write BENCH_serve.json (runs last in the module)."""
    assert "verify" in RESULTS, "speedup benchmark did not record results"
    report = {
        "workload": {
            "requests_per_run": N_REQUESTS,
            "clients": N_CLIENTS,
            "workers": 1,
            "cache": "disabled",
            "batched_max_batch_size": 32,
        },
        "results": dict(RESULTS),
    }
    BENCH_PATH.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {BENCH_PATH}")

"""The ``generate`` workload: Algorithm 1 in cold processes.

Each repetition is a fresh ``python -m bench.generate child`` process —
``repro generate`` users pay cold imports and caches on every run — that
loads FEVEROUS- and TAT-QA-shaped contexts from JSONL, times
``UCTR.fit``, then ``UCTR.generate(workers=1, checkpoint_dir=…)`` with
all three program kinds.  Processes repeat until ``--seconds`` have
passed (at least :data:`MIN_PROCESSES`).

Every process does identical work (the sample digests must match), and
on a shared machine noise only ever adds time, so a context's latency is
the least of its latencies across the processes; ``p50_ms``/``p90_ms``
are taken over those, and ``throughput`` is the samples of one process
over their sum.  ``setup_s`` is the median ``UCTR.fit`` time.

The traced pass turns on :mod:`repro.profiling` stages and adds outside
wrappers, as further profiling stages, on the claim labeler, the
table↔text operators, ``CheckpointManager`` and ``os.fsync``, so stage
self times cover the generate wall time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any

from bench import procs
from bench.spec import Outcome, zero_layers
from bench.stats import median, percentile

FEVEROUS_CONTEXTS = 120
TATQA_CONTEXTS = 60
SAMPLES_PER_CONTEXT = 16
KINDS = ("logic", "sql", "arith")
MIN_PROCESSES = 3
TRACED_PROCESSES = 2

#: profiling stage (last path component) -> per-layer share metric.
STAGE_LAYERS = {
    "sampler": "sampling.sampler_share",
    "filters": "sampling.filters_share",
    "labeler": "sampling.labeler_share",
    "executor": "programs.executor_share",
    "columnar": "tables.columnar_share",
    "nlgen": "nlgen.verbalize_share",
    "operators": "operators.convert_share",
    "checkpoint": "runtime.checkpoint_share",
    "fsync": "fsio.fsync_share",
}


def make_inputs(workdir: Path, seed: int) -> Path:
    """Write the seed's contexts as the JSONL ``repro generate`` reads."""
    from repro.datasets import FeverousConfig, TatQAConfig, make_feverous, make_tatqa
    from repro.io import save_contexts

    feverous = make_feverous(FeverousConfig(
        train_contexts=FEVEROUS_CONTEXTS, dev_contexts=0, test_contexts=0,
        seed=1000 + seed,
    ))
    tatqa = make_tatqa(TatQAConfig(
        train_contexts=TATQA_CONTEXTS, dev_contexts=0, test_contexts=0,
        seed=2000 + seed,
    ))
    path = workdir / "contexts.jsonl"
    save_contexts(path, [*feverous.train.contexts, *tatqa.train.contexts])
    return path


def _stage_wrappers() -> None:
    """Outside wrappers that open extra :mod:`repro.profiling` stages."""
    from repro import profiling
    from repro.operators.table_to_text import TableToText
    from repro.operators.text_to_table import TextToTable
    from repro.pipelines.base import PipelineTools
    from repro.runtime import CheckpointManager

    from bench.trace import wrap_with

    for owner, attr, stage in (
        (PipelineTools, "label_claim", "labeler"),
        (TextToTable, "expand_all", "operators"),
        (TableToText, "split", "operators"),
        (CheckpointManager, "record", "checkpoint"),
        (CheckpointManager, "finalize", "checkpoint"),
        (os, "fsync", "fsync"),
    ):
        wrap_with(owner, attr, functools.partial(profiling.stage, stage))


def child(contexts_path: str, checkpoint_dir: str, seed: int, traced: bool) -> dict[str, Any]:
    """One cold repetition; returns what it measured."""
    from repro import UCTR, UCTRConfig, profiling
    from repro.io import load_contexts
    from repro.runtime import CheckpointManager

    from bench.trace import patch

    contexts = load_contexts(contexts_path)
    if traced:
        profiling.install()
        _stage_wrappers()
    # per-context completion times: the checkpoint records each context
    # as it finishes, which is when a streaming consumer could use it.
    finished: list[float] = []

    def stamp(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            finished.append(time.perf_counter())
            return result
        return wrapper

    patch(CheckpointManager, "record", stamp)
    framework = UCTR(UCTRConfig(
        program_kinds=KINDS, samples_per_context=SAMPLES_PER_CONTEXT,
        seed=seed,
    ))
    started = time.perf_counter()
    framework.fit(contexts)
    fit_s = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = usage.ru_utime + usage.ru_stime
    started = time.perf_counter()
    samples = framework.generate(
        contexts, workers=1, checkpoint_dir=checkpoint_dir
    )
    generate_s = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime - cpu0
    telemetry = framework.last_telemetry
    digest = hashlib.sha256()
    for sample in samples:
        digest.update(json.dumps(sample.to_json(), sort_keys=True).encode())
    marks = [started, *finished]
    result: dict[str, Any] = {
        "fit_s": fit_s,
        "generate_s": generate_s,
        "cpu_s": cpu_s,
        "contexts": len(contexts),
        "samples": len(samples),
        "quarantined": len(telemetry.events("quarantine")),
        "digest": digest.hexdigest(),
        "reconciles": all(
            telemetry.reconciles(name) for name in telemetry.pipelines()
        ),
        "attempts": telemetry.count("attempts"),
        "successes": telemetry.count("successes"),
        "context_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        # VmHWM, not ru_maxrss: Linux carries the parent's high-water
        # mark across fork and exec into ru_maxrss
        "rss_mb": procs.peak_rss_mb(os.getpid()),
    }
    if traced:
        profiling.flush_into(telemetry)
        section = profiling.profile_section(telemetry.snapshot()["timers"])
        result["stages"] = {
            path: stage["self_seconds"]
            for path, stage in section["stages"].items()
            if not path.startswith("fit")
        }
        result["fsyncs"] = sum(
            stage["calls"] for path, stage in section["stages"].items()
            if path.rsplit("/", 1)[-1] == "fsync"
        )
    return result


def _repetitions(contexts: Path, workdir: Path, seed: int, traced: bool,
                 count: int, seconds: float) -> list[dict[str, Any]]:
    runs: list[dict[str, Any]] = []
    started = time.perf_counter()
    while len(runs) < count or time.perf_counter() - started < seconds:
        checkpoint = workdir / f"checkpoint-{'t' if traced else 'u'}{len(runs)}"
        runs.append(procs.run_json([
            "-m", "bench.generate", "child", str(contexts), str(checkpoint),
            str(seed), "1" if traced else "0",
        ]))
    return runs


def run(workdir: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    contexts = make_inputs(workdir, seed)
    runs = _repetitions(contexts, workdir, seed, False, MIN_PROCESSES, seconds)
    problems = []
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        problems.append(f"sample digests differ across processes: {digests}")
    if not all(r["reconciles"] for r in runs):
        problems.append("telemetry attempts != successes + rejects")
    if not all(r["samples"] > 0 for r in runs):
        problems.append("a process emitted no samples")
    context_ms = [min(times) for times in zip(*(r["context_ms"] for r in runs))]
    outcome = Outcome(
        attempted=sum(r["contexts"] for r in runs),
        failed=sum(r["quarantined"] for r in runs),
        metrics={
            "setup_s": median([r["fit_s"] for r in runs]),
            "throughput": runs[0]["samples"] / (sum(context_ms) / 1e3),
            "p50_ms": percentile(context_ms, 0.50),
            "p90_ms": percentile(context_ms, 0.90),
            "peak_rss_mb": median([r["rss_mb"] for r in runs]),
        },
        detail={
            "processes": len(runs),
            "samples_per_process": runs[0]["samples"],
            "generate_s": median([r["generate_s"] for r in runs]),
        },
        problems=problems,
    )
    if trace:
        traced = _repetitions(
            contexts, workdir, seed, True, TRACED_PROCESSES, 0.0
        )
        if {r["digest"] for r in traced} != digests:
            outcome.problems.append("profiling changed the generated samples")
        outcome.layers = _layers(runs, traced)
        outcome.detail.update(_stage_seconds(traced))
        outcome.detail["trace_overhead"] = (
            median([r["generate_s"] for r in traced])
            / outcome.detail["generate_s"] - 1
        )
    return outcome


def _layers(runs: list[dict[str, Any]], traced: list[dict[str, Any]]) -> dict[str, float]:
    layers = zero_layers()
    wall = sum(r["generate_s"] for r in traced)
    for r in traced:
        for path, seconds in r["stages"].items():
            layer = STAGE_LAYERS.get(path.rsplit("/", 1)[-1])
            if layer is not None:
                layers[layer] += seconds / wall
    layers["unattributed_share"] = 1.0 - sum(
        layers[name] for name in STAGE_LAYERS.values()
    )
    layers["pipelines.accept_ratio"] = (
        sum(r["successes"] for r in runs) / sum(r["attempts"] for r in runs)
    )
    layers["fsio.fsyncs_per_unit"] = (
        sum(r["fsyncs"] for r in traced) / sum(r["samples"] for r in traced)
    )
    layers["cpu_ms_per_unit"] = (
        sum(r["cpu_s"] for r in runs) * 1e3 / sum(r["samples"] for r in runs)
    )
    return layers


def _stage_seconds(traced: list[dict[str, Any]]) -> dict[str, float]:
    """Per-process stage self seconds (mean over traced processes)."""
    out: dict[str, float] = {}
    for r in traced:
        for path, seconds in r["stages"].items():
            key = f"stage.{path}_s"
            out[key] = out.get(key, 0.0) + seconds / len(traced)
    return dict(sorted(out.items()))


if __name__ == "__main__":
    if sys.argv[1:2] != ["child"] or len(sys.argv) != 6:
        sys.exit("usage: python -m bench.generate child CONTEXTS CHECKPOINT SEED TRACED")
    print(json.dumps(child(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")))

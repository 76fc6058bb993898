"""The ``ingest`` workload: writes beside reads on the table store.

In one cold ``python -m bench.ingest child`` process:

* **bulk load** (set-up) — create a store, ``add`` :data:`BASE_TABLES`
  tables, ``build_index(workers=2)``, ``Retriever.open``;
  :data:`BULK_LOADS` times, ``setup_s`` is the median;
* **rounds** until ``--seconds`` have passed (at least
  :data:`MIN_ROUNDS`) — restore the bulk-loaded store, ``add`` the same
  :data:`ROUND_TABLES` new tables (one new shard), rebuild the index,
  reopen the retriever and search for a new table, which must rank first
  (add-to-queryable time).  Then :data:`NEW_CHECKS` new tables and
  :data:`OLD_SEARCHES` old ones are searched.

Every round repeats identical work from the same bulk-loaded store, and
on a shared machine noise only ever adds time, so ``throughput`` is the
round's tables over its least add-to-queryable time, and
``p50_ms``/``p90_ms`` are taken over each old question's least search
time.  The traced pass repeats the rounds with ``os.fsync`` wrapped.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any

from bench import procs
from bench.spec import Outcome, zero_layers
from bench.stats import median, percentile
from bench.trace import Tracer, self_times

BASE_TABLES = 4096
ROUND_TABLES = 512
BULK_LOADS = 3
MIN_ROUNDS = 3
NEW_CHECKS = 20
OLD_SEARCHES = 120
INDEX_WORKERS = 2

#: round span name -> per-layer share it is charged to (self time).
SPAN_LAYERS = {
    "round": "unattributed_share",
    "store.add": "store.add_share",
    "store.index.build": "store.index.build_share",
    "store.index.open": "store.index.open_share",
    "store.retrieval.search": "store.retrieval.search_share",
    "fsio.fsync": "fsio.fsync_share",
}


def question_for(context: Any, rng: random.Random) -> str:
    """A question naming one metric cell of a synthetic table, phrased
    like :func:`repro.store.gold_questions`."""
    table = context.table
    metrics = [n for n in table.column_names if n not in ("name", "city")]
    row = rng.randrange(table.n_rows)
    company = table.title.split()[0]
    return (
        f"what is the {metrics[rng.randrange(len(metrics))]} for "
        f"{table.row_name(row)} in the {company} report ?"
    )


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(
    workdir: Path,
    seed: int,
    seconds: float,
    traced: bool,
    *,
    base_tables: int = BASE_TABLES,
    round_tables: int = ROUND_TABLES,
    bulk_loads: int = BULK_LOADS,
    min_rounds: int = MIN_ROUNDS,
    new_checks: int = NEW_CHECKS,
    old_searches: int = OLD_SEARCHES,
) -> dict[str, Any]:
    """Run the bulk loads and rounds in this process; returns readings."""
    from repro.store import Retriever, TableStore, build_index, gold_questions, synth_table_context

    def tables(first: int, count: int) -> list[Any]:
        return [synth_table_context(seed, first + i) for i in range(count)]

    base = tables(0, base_tables)
    setups = []
    for load in range(bulk_loads):
        root = workdir / f"bulk-{load}"
        started = time.perf_counter()
        TableStore.create(root).add(base)
        build_index(root, workers=INDEX_WORKERS)
        Retriever.open(root)
        setups.append(time.perf_counter() - started)
    old = gold_questions(old_searches, corpus_size=base_tables, seed=seed)
    rng = random.Random(f"bench-ingest:{seed}")
    fresh = tables(base_tables, round_tables)
    new = [
        (question_for(fresh[i], rng), fresh[i].uid)
        for i in rng.sample(range(round_tables), min(new_checks, round_tables))
    ]
    tracer = Tracer()
    if traced:
        tracer.wrap(os, "fsync", "fsio.fsync")
    rounds: list[dict[str, Any]] = []
    search_ms: list[list[float]] = []
    problems: list[str] = []
    del base
    started = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
        # every round starts from the same heap: fresh table objects (no
        # memo survives a round), the last round's index freed
        fresh = tables(base_tables, round_tables)
        retriever = None
        gc.collect()
        store_root = workdir / "round"
        shutil.rmtree(store_root, ignore_errors=True)
        shutil.copytree(root, store_root)  # the last bulk-loaded store
        cpu0 = _cpu_s()
        with tracer.span("round"):
            round_start = time.perf_counter()
            with tracer.span("store.add"):
                TableStore.open(store_root).add(fresh)
            add_s = time.perf_counter() - round_start
            with tracer.span("store.index.build"):
                summary = build_index(store_root, workers=INDEX_WORKERS)
            with tracer.span("store.index.open"):
                retriever = Retriever.open(store_root)
            with tracer.span("store.retrieval.search"):
                retriever.search(new[0][0], k=1)
            queryable_s = time.perf_counter() - round_start
        for question, uid in new:
            hits = retriever.search(question, k=1)
            if not hits or hits[0].uid != uid:
                problems.append(f"round {len(rounds)}: new table {uid} not at rank 1")
        times, top1 = [], 0
        for gold in old:
            searched = time.perf_counter()
            hits = retriever.search(gold.question, k=1)
            times.append((time.perf_counter() - searched) * 1e3)
            top1 += bool(hits) and hits[0].uid == gold.uid
        search_ms.append(times)
        if top1 < 0.99 * len(old):
            problems.append(f"round {len(rounds)}: old tables top-1 {top1}/{len(old)}")
        rounds.append({
            "queryable_s": queryable_s,
            "add_s": add_s,
            "cpu_s": _cpu_s() - cpu0,
            "parts_reused": summary["parts_reused"] / summary["shards"],
            "index_bytes": summary["index_bytes"],
        })
    return {
        "setups": setups,
        "rounds": rounds,
        "search_ms": search_ms,
        "problems": problems,
        "operations": len(rounds) * (4 + len(new) + len(old)),
        "tables": round_tables,
        "rss_mb": procs.peak_rss_mb(os.getpid()),
        "spans": tracer.records(),
    }


def _layers(reading: dict[str, Any]) -> dict[str, float]:
    layers = zero_layers()
    spans = reading["spans"]
    rounds = reading["rounds"]
    wall = sum(r["queryable_s"] for r in rounds)
    for span, seconds in zip(spans, self_times(spans)):
        layers[SPAN_LAYERS[span["name"]]] += seconds / wall
    tables = reading["tables"] * len(rounds)
    fsyncs = sum(1 for span in spans if span["name"] == "fsio.fsync")
    layers["fsio.fsyncs_per_unit"] = fsyncs / tables
    layers["cpu_ms_per_unit"] = sum(r["cpu_s"] for r in rounds) * 1e3 / tables
    layers["store.index.parts_reused_ratio"] = median([r["parts_reused"] for r in rounds])
    layers["store.index.bytes"] = rounds[-1]["index_bytes"]
    return layers


def run(workdir: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    def child(traced: bool) -> dict[str, Any]:
        passdir = workdir / ("traced" if traced else "untraced")
        passdir.mkdir()
        # the traced pass needs only the minimum rounds for its shares
        return procs.run_json([
            "-m", "bench.ingest", "child", str(passdir), str(seed),
            "0" if traced else str(seconds), "1" if traced else "0",
        ])

    reading = child(False)
    rounds = reading["rounds"]
    search_ms = [min(times) for times in zip(*reading["search_ms"])]
    outcome = Outcome(
        attempted=reading["operations"],
        failed=0,
        metrics={
            "setup_s": median(reading["setups"]),
            "throughput": reading["tables"] / min(r["queryable_s"] for r in rounds),
            "p50_ms": percentile(search_ms, 0.50),
            "p90_ms": percentile(search_ms, 0.90),
            "peak_rss_mb": reading["rss_mb"],
        },
        detail={
            "rounds": len(rounds),
            "add_to_queryable_s": median([r["queryable_s"] for r in rounds]),
            "store.add_ms_per_table": median([r["add_s"] for r in rounds]) * 1e3 / reading["tables"],
        },
        problems=reading["problems"],
    )
    if trace:
        traced = child(True)
        outcome.problems += traced["problems"]
        outcome.layers = _layers(traced)
        for name in ("store.index.build", "store.index.open"):
            outcome.detail[f"{name}_s"] = median([
                span["end"] - span["start"] for span in traced["spans"] if span["name"] == name
            ])
        outcome.detail["trace_overhead"] = median(
            [r["queryable_s"] for r in traced["rounds"]]
        ) / outcome.detail["add_to_queryable_s"] - 1
    return outcome


if __name__ == "__main__":
    if sys.argv[1:2] != ["child"] or len(sys.argv) != 6:
        sys.exit("usage: python -m bench.ingest child WORKDIR SEED SECONDS TRACED")
    result = measure(Path(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1")
    print(json.dumps(result))

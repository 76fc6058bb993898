"""``BENCHMARK.json``: the metric contract every workload reports against.

The file fixes the workloads, the end-to-end metrics (with their
regression bounds) and the per-layer metrics.  It lists no relation
between the two; :data:`LAYER_TARGETS` does: for each per-layer metric,
the end-to-end metric it should move and the workload on which it moves
it.  Every workload reports *every* metric: a layer the workload never
enters reports the 0 it measured there (a 0 share of its time, a 0
count).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

#: per-layer metric -> (end-to-end metric, workload) it should move.
LAYER_TARGETS: dict[str, tuple[str, str]] = {
    # the whole program
    "cpu_ms_per_unit": ("throughput", "serve_qa_verify"),
    "unattributed_share": ("throughput", "generate"),
    # generation (Algorithm 1)
    "pipelines.accept_ratio": ("throughput", "generate"),
    "sampling.sampler_share": ("throughput", "generate"),
    "sampling.filters_share": ("throughput", "generate"),
    "sampling.labeler_share": ("throughput", "generate"),
    "programs.executor_share": ("throughput", "generate"),
    "tables.columnar_share": ("throughput", "generate"),
    "nlgen.verbalize_share": ("throughput", "generate"),
    "operators.convert_share": ("throughput", "generate"),
    "runtime.checkpoint_share": ("throughput", "generate"),
    "fsio.fsync_share": ("throughput", "generate"),
    "fsio.fsyncs_per_unit": ("throughput", "ingest"),
    # serving
    "serve.http.wire_share": ("p50_ms", "serve_qa_verify"),
    "serve.http.handler_share": ("p50_ms", "serve_qa_verify"),
    "serve.http.parse_share": ("p50_ms", "serve_qa_verify"),
    "sanitize.repair_share": ("p90_ms", "serve_qa_verify"),
    "tables.from_json_share": ("p50_ms", "serve_qa_verify"),
    "serve.backend.dispatch_share": ("p50_ms", "serve_ask"),
    "serve.engine.queue_share": ("p50_ms", "serve_qa_verify"),
    "serve.engine.batch_mean": ("throughput", "serve_qa_verify"),
    "serve.engine.cache_hit_ratio": ("p50_ms", "serve_ask"),
    "models.compute_share": ("throughput", "serve_qa_verify"),
    "serve.pool.hedges_fired": ("p90_ms", "serve_ask"),
    "serve.pool.spills": ("p90_ms", "serve_ask"),
    # the table store
    "store.retrieval.search_share": ("p50_ms", "serve_ask"),
    "store.read_share": ("p90_ms", "serve_ask"),
    "store.gets_per_request": ("p50_ms", "serve_ask"),
    "store.shard_miss_ratio": ("p90_ms", "serve_ask"),
    "store.add_share": ("throughput", "ingest"),
    "store.index.build_share": ("throughput", "ingest"),
    "store.index.open_share": ("throughput", "ingest"),
    "store.index.parts_reused_ratio": ("throughput", "ingest"),
    "store.index.bytes": ("setup_s", "serve_ask"),
}


@dataclass
class Outcome:
    """One workload run: correctness, counts, metrics and human detail."""

    attempted: int
    failed: int
    #: end-to-end metrics, always from the untraced pass.
    metrics: dict[str, float]
    #: per-layer metrics; empty unless the run was traced.
    layers: dict[str, float] = field(default_factory=dict)
    #: extra readings printed for people (per-layer times in ms, …).
    detail: dict[str, Any] = field(default_factory=dict)
    #: every failed correctness gate, one line each.
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def load_spec(path: Path = SPEC_PATH) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict[str, Any], section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0, for a workload to fill in."""
    return {name: 0.0 for name in LAYER_TARGETS}


def validate(spec: dict[str, Any]) -> list[str]:
    """Problems with ``spec`` (empty when it meets the contract)."""
    problems: list[str] = []
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(expected)}")
        return problems
    command = spec["command"]
    if not (1 <= len(command) <= 32) or any(
        not isinstance(part, str) or len(part) > 200
        or part.startswith("/") or ".." in part.split("/")
        for part in command
    ):
        problems.append("command must be 1-32 relative strings")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or any(
        not PATH_RE.match(path) or ".." in path.split("/") for path in paths
    ):
        problems.append("paths must be 1-16 relative directory names")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        problems.append("run_seconds must be a whole number in [1, 60]")
    sections = {
        "workloads": ({"name", "why"}, 2, 8),
        "end_to_end": ({"name", "unit", "better", "bound"}, 1, 16),
        "per_layer": ({"name", "unit", "better"}, 1, 128),
    }
    names: set[str] = set()
    for section, (keys, low, high) in sections.items():
        entries = spec[section]
        if not low <= len(entries) <= high:
            problems.append(f"{section}: {len(entries)} not in [{low}, {high}]")
        for entry in entries:
            if set(entry) != keys:
                problems.append(f"{section}: keys {sorted(entry)}")
                continue
            name = entry["name"]
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in names:
                problems.append(f"{section}: {name!r} used twice")
            names.add(name)
            if section == "workloads":
                why = entry["why"]
                if not why or len(why) > 200 or "\n" in why:
                    problems.append(f"workload {name}: why must be one line")
                continue
            if not UNIT_RE.match(entry["unit"]):
                problems.append(f"{name}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                problems.append(f"{name}: better must be lower or higher")
            if section == "end_to_end" and not (
                isinstance(entry["bound"], (int, float))
                and 0 < entry["bound"] <= 0.25
            ):
                problems.append(f"{name}: bound must be in (0, 0.25]")
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, better lower) is required")
    elif setup[0]["bound"] < max(e["bound"] for e in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    workloads = {entry["name"] for entry in spec["workloads"]}
    layers = {entry["name"] for entry in spec["per_layer"]}
    if layers != set(LAYER_TARGETS):
        problems.append(
            "per_layer and LAYER_TARGETS differ: "
            f"{sorted(layers ^ set(LAYER_TARGETS))}"
        )
    for name, (metric, workload) in LAYER_TARGETS.items():
        if metric not in end_to_end or workload not in workloads:
            problems.append(f"{name}: target {metric}@{workload} is unknown")
    if len(json.dumps(spec).encode("utf-8")) > 64 * 1024:
        problems.append("spec is larger than 64 KiB")
    return problems

"""The ``serve_qa_verify`` and ``serve_ask`` workloads.

Both drive the real ``python -m repro.cli serve`` process over keep-alive
HTTP from this process (:mod:`bench.load`), in phases:

1. **boot** — spawn until the first ``/healthz`` 200;
2. **warm-up** — :data:`WARMUP` requests outside the measured pool;
3. **reference** — open loop at the workload's fixed rate;
4. **capacity** — closed loop over two connections;
5. **drain** — SIGTERM; the server must exit 0 with a final stats line
   that reconciles.

Every one of the :data:`BOOTS` servers (``setup_s`` is their median boot
time) replays the same request schedule from a cold start, and on a
shared machine noise only ever adds time: a request's latency is the
least of its replays (``p50_ms``, ``p90_ms``), ``throughput`` the best
capacity phase.  Afterwards every answer or label must equal what the
same registry models predict in-process for that request.

The traced pass starts one more server through :mod:`bench.traced_serve`
and repeats the warm-up and reference phases.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from bench import procs
from bench.load import HttpIssuer, Reply, Request, closed_loop, due_times, get_json, open_loop
from bench.spec import Outcome, zero_layers
from bench.stats import mean, median, percentile
from bench.trace import load_spans, self_times
from bench.traced_serve import ROOT_SPAN

BOOTS = 3
WARMUP = 16
REFERENCE_SHARE = 0.75
#: a run whose driver process uses more of one core than this is invalid.
DRIVER_CPU_LIMIT = 0.8
BOOT_TIMEOUT_S = 120.0

QA_VERIFY_CONTEXTS = 400
MESSY_FRACTION = 0.2
#: 5120 tables fill 10 shards of 512, more than the store's 8-slot shard cache.
ASK_CORPUS = 5120
ASK_REPEAT = 0.25
GOLD_TOP1 = 0.99

_PORT_RE = re.compile(r"serving on http://[^:]+:(\d+)")
_FINAL_PREFIX = "drained; final stats: "


@dataclass(frozen=True)
class Workload:
    name: str
    #: open-loop reference rate, requests/second.
    rate: float
    #: ``repro serve --replicas`` (0: the in-process engine).
    replicas: int
    #: measured requests available to the reference + capacity phases.
    pool: int


WORKLOADS = {
    "serve_qa_verify": Workload("serve_qa_verify", 20.0, 0, 2400),
    "serve_ask": Workload("serve_ask", 15.0, 2, 1200),
}

#: traced span name -> per-layer share it is charged to (self time).
SPAN_LAYERS = {
    ROOT_SPAN: "serve.http.handler_share",
    "serve.http.parse": "serve.http.parse_share",
    "sanitize": "sanitize.repair_share",
    "tables.from_json": "tables.from_json_share",
    "store.retrieval.search": "store.retrieval.search_share",
    "store.get": "store.read_share",
    "store.read_shard": "store.read_share",
    "store.verify_manifest": "store.read_share",
}


@dataclass
class Inputs:
    registry: Path
    requests: list[Request]
    warmup: list[Request]
    store: Path | None = None
    #: request id -> the table uid its question was written from.
    gold_uid: dict[str, str] = field(default_factory=dict)
    index_bytes: int = 0


def _train_registry(root: Path, tasks: tuple[str, ...]) -> None:
    from repro.datasets import make_feverous, make_wikisql
    from repro.serve import ModelRegistry
    from repro.train.loop import TrainingPlan, train_qa, train_verifier

    registry = ModelRegistry(root)
    if "qa" in tasks:
        gold = list(make_wikisql().train.gold)
        registry.save(train_qa(TrainingPlan.supervised(gold)), "qa")
    if "verify" in tasks:
        gold = list(make_feverous().train.gold)
        registry.save(train_verifier(TrainingPlan.supervised(gold)), "verifier")


def prepare_qa_verify(workdir: Path, seed: int, pool: int) -> Inputs:
    """Distinct inline-table requests: the response cache cannot help."""
    from repro.datasets import make_feverous, make_wikisql
    from repro.serve import TASK_QA, build_workload

    registry = workdir / "registry"
    _train_registry(registry, ("qa", "verify"))
    wiki, fever = make_wikisql().all_contexts, make_feverous().all_contexts
    contexts = [c for pair in zip(wiki, fever) for c in pair][:QA_VERIFY_CONTEXTS]
    wanted = pool + WARMUP
    items = build_workload(
        contexts, wanted + wanted // 4, seed=seed,
        messy_fraction=MESSY_FRACTION, messy_profile="heavy",
        sanitize_messy=True,
    )
    seen: set[tuple[str, str, str]] = set()
    requests: list[Request] = []
    for item in items:
        context = item.context.to_json()
        key = (item.task, item.sentence, json.dumps(context, sort_keys=True))
        if key in seen:
            continue
        seen.add(key)
        rid = f"r{len(requests):05d}"
        field_name = "question" if item.task == TASK_QA else "claim"
        body = {field_name: item.sentence, "context": context, "id": rid}
        if item.sanitize:
            body["sanitize"] = True
        path = "/v1/qa" if item.task == TASK_QA else "/v1/verify"
        requests.append(Request(rid, path, json.dumps(body).encode()))
    if len(requests) < wanted:
        raise RuntimeError(f"only {len(requests)} distinct requests")
    return Inputs(registry, requests[:pool], requests[pool:wanted])


def prepare_ask(workdir: Path, seed: int, pool: int) -> Inputs:
    """Question-only asks over a fresh corpus; a share repeats earlier ones."""
    from repro.store import TableStore, build_index, gold_questions, synth_corpus

    registry = workdir / "registry"
    _train_registry(registry, ("qa",))
    store = workdir / "store"
    TableStore.create(store).add(synth_corpus(ASK_CORPUS, seed=seed))
    summary = build_index(store, workers=2)
    unique = gold_questions(pool + WARMUP, corpus_size=ASK_CORPUS, seed=seed)
    rng = random.Random(f"bench-ask-repeats:{seed}")
    order: list[int] = []
    fresh = iter(range(WARMUP, len(unique)))
    for position in range(pool):
        if position and rng.random() < ASK_REPEAT:
            order.append(order[rng.randrange(position)])
        else:
            order.append(next(fresh))
    order = list(range(WARMUP)) + order
    requests: list[Request] = []
    gold_uid: dict[str, str] = {}
    for position, which in enumerate(order):
        rid = f"r{position:05d}"
        gold_uid[rid] = unique[which].uid
        body = {"question": unique[which].question, "id": rid}
        requests.append(Request(rid, "/v1/ask", json.dumps(body).encode()))
    return Inputs(
        registry, requests[WARMUP:], requests[:WARMUP], store=store,
        gold_uid=gold_uid, index_bytes=summary["index_bytes"],
    )


class Server:
    """One ``repro serve`` process tree, booted until ``/healthz`` is 200."""

    def __init__(self, args: list[str], log: Path):
        self.lines: list[str] = []
        self.port: int | None = None
        self._port_seen = threading.Event()
        started = time.perf_counter()
        with open(log, "a", encoding="utf-8") as stderr:
            self.proc = procs.spawn(
                args, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._await_health(started + BOOT_TIMEOUT_S, log)
        except BaseException:
            procs.stop(self.proc)
            raise
        self.boot_s = time.perf_counter() - started

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            found = _PORT_RE.search(line)
            if found and self.port is None:
                self.port = int(found.group(1))
                self._port_seen.set()
        self._port_seen.set()

    def _await_health(self, deadline: float, log: Path) -> None:
        self._port_seen.wait(max(0.0, deadline - time.perf_counter()))
        while self.port is not None and time.perf_counter() < deadline:
            if get_json(self.port, "/healthz")[0] == 200:
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        tail = log.read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"server did not become healthy: {tail}")

    def pids(self) -> list[int]:
        """The frontend and, in pool mode, every replica process."""
        _, metrics = get_json(self.port, "/metrics")
        replicas = (metrics or {}).get("replicas") or []
        return [self.proc.pid, *(entry["pid"] for entry in replicas)]

    def stop(self) -> tuple[int, dict[str, Any] | None]:
        """Drain; returns the exit code and the final stats snapshot."""
        code = procs.stop(self.proc)
        self._reader.join(10)
        final = None
        for line in self.lines:
            if line.startswith(_FINAL_PREFIX):
                final = json.loads(line[len(_FINAL_PREFIX):])
        return code, final


@dataclass
class Boot:
    """One server process: its boot time, phases and drain."""

    boot_s: float
    #: ``(request, reply)`` of the open-loop reference phase.
    reference: list[tuple[Request, Reply]]
    #: ``(request, reply)`` of the closed-loop capacity phase.
    capacity: list[tuple[Request, Reply]]
    capacity_s: float
    metrics_before: dict[str, Any]
    metrics_after: dict[str, Any]
    server_cpu_s: float
    driver_cpu_share: float
    peak_rss_mb: float
    exit_code: int
    final: dict[str, Any] | None

    def served(self) -> list[tuple[Request, Reply, dict[str, Any]]]:
        return [
            (request, reply, payload)
            for request, reply in self.reference + self.capacity
            if (payload := _ok(reply))
        ]


def drive(server: Server, inputs: Inputs, workload: Workload,
          reference_s: float, capacity_s: float) -> Boot:
    """Warm-up, reference and capacity phases on ``server``, then drain."""
    issuer = HttpIssuer(server.port)
    try:
        closed_loop(inputs.warmup, BOOT_TIMEOUT_S, issuer, threads=1)
        pids = server.pids()
        before = get_json(server.port, "/metrics")[1] or {}
        cpu0 = sum(procs.cpu_seconds(pid) for pid in pids)
        driver0, wall0 = time.process_time(), time.perf_counter()
        due = due_times(workload.rate, reference_s, time.perf_counter() + 0.05)
        reference = open_loop(inputs.requests[:len(due)], due, issuer)
        rest = inputs.requests[len(due):]
        capacity, elapsed = (
            closed_loop(rest, capacity_s, issuer) if capacity_s else ([], 0.0)
        )
        driver_share = (time.process_time() - driver0) / (
            time.perf_counter() - wall0
        )
        after = get_json(server.port, "/metrics")[1] or {}
        cpu = sum(procs.cpu_seconds(pid) for pid in pids) - cpu0
        rss = sum(procs.peak_rss_mb(pid) for pid in pids)
    finally:
        issuer.close()
        code, final = server.stop()
    return Boot(
        server.boot_s,
        [(inputs.requests[r.index], r) for r in reference],
        [(rest[r.index], r) for r in capacity],
        elapsed, before, after, cpu, driver_share, rss, code, final,
    )


def _ok(reply: Reply) -> dict[str, Any] | None:
    payload = reply.payload() if reply.status == 200 else None
    return payload if payload and payload.get("ok") is True else None


def _drain_problems(boot: Boot, what: str) -> list[str]:
    problems = []
    if boot.exit_code != 0:
        problems.append(f"{what}: server exited {boot.exit_code}")
    if not (boot.final or {}).get("reconciles"):
        problems.append(f"{what}: final stats do not reconcile")
    if boot.driver_cpu_share > DRIVER_CPU_LIMIT:
        problems.append(f"{what}: driver used {boot.driver_cpu_share:.0%} of a core")
    return problems


def check_answers(inputs: Inputs, served: list[tuple[Request, Reply, dict[str, Any]]]) -> list[str]:
    """Every served answer/label against in-process predictions of the
    same registry models, computed once per distinct request."""
    from repro.pipelines.samples import ReasoningSample, TaskType
    from repro.sampling.labeler import ClaimLabel
    from repro.serve import ModelRegistry
    from repro.serve.http import parse_request_payload

    problems = []
    by_id: dict[str, list[dict[str, Any]]] = defaultdict(list)
    requests: dict[str, Request] = {}
    for request, _, payload in served:
        if payload.get("id") != request.id:
            problems.append(f"{request.id}: reply carries id {payload.get('id')!r}")
            continue
        by_id[request.id].append(payload)
        requests[request.id] = request
    retriever = None
    if inputs.store is not None:
        from repro.store import Retriever

        retriever = Retriever.open(inputs.store)
    samples: dict[str, list[tuple[str, Any]]] = {"qa": [], "verify": []}
    # fetch in document order so the in-process shard cache is reused
    for rid in sorted(by_id, key=lambda r: (by_id[r][0].get("retrieval") or {}).get("chosen", "")):
        body = json.loads(requests[rid].body)
        if retriever is not None:
            task, sentence = "qa", body["question"]
            context = retriever.fetch(by_id[rid][0]["retrieval"]["chosen"])
        else:
            task = "qa" if requests[rid].path == "/v1/qa" else "verify"
            parsed = parse_request_payload(task, body)
            sentence, context = parsed.sentence, parsed.context
        if task == "qa":
            sample = ReasoningSample(
                uid=rid, task=TaskType.QUESTION_ANSWERING,
                context=context, sentence=sentence, answer=("",),
            )
        else:
            sample = ReasoningSample(
                uid=rid, task=TaskType.FACT_VERIFICATION,
                context=context, sentence=sentence, label=ClaimLabel.UNKNOWN,
            )
        samples[task].append((rid, sample))
    registry = ModelRegistry(inputs.registry)
    for task, name, field_name in (("qa", "qa", "answer"), ("verify", "verifier", "label")):
        if not samples[task]:
            continue
        model = registry.load(name).model
        batch = [sample for _, sample in samples[task]]
        if task == "qa":
            expected = [list(answer) for answer in model.predict_batch(batch)]
        else:
            expected = [label.value for label in model.predict(batch)]
        for (rid, _), want in zip(samples[task], expected):
            for payload in by_id[rid]:
                if payload[field_name] != want:
                    problems.append(f"{rid}: served {payload[field_name]}, in-process {want}")
    if inputs.gold_uid:
        top = [
            payload["retrieval"]["hits"][0]["uid"] == inputs.gold_uid[request.id]
            for request, _, payload in served
        ]
        if sum(top) < GOLD_TOP1 * len(top):
            problems.append(f"top hit is the gold table for {sum(top)}/{len(top)} asks")
    return problems


def _untraced_layers(inputs: Inputs, boots: list[Boot], ask: bool) -> tuple[dict[str, float], dict[str, float]]:
    layers = zero_layers()
    detail: dict[str, float] = {}
    served = [entry for boot in boots for entry in boot.served()]
    reference = [
        (reply, payload) for boot in boots for _, reply in boot.reference
        if (payload := _ok(reply))
    ]

    def delta(*keys: str) -> int:
        total = 0
        for boot in boots:
            after, before = boot.metrics_after, boot.metrics_before
            for key in keys:
                after, before = after.get(key, {}), before.get(key, {})
            total += (after or 0) - (before or 0)
        return total

    layers["serve.engine.batch_mean"] = mean([
        payload["latency"]["batch_size"] for _, _, payload in served
        if not payload.get("cached")
    ])
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    layers["serve.engine.cache_hit_ratio"] = hits / max(1, hits + misses)
    if ask:
        layers["serve.pool.hedges_fired"] = delta("hedges", "fired")
        layers["serve.pool.spills"] = delta("spills")
        layers["store.index.bytes"] = inputs.index_bytes
    layers["cpu_ms_per_unit"] = (
        sum(boot.server_cpu_s for boot in boots) * 1e3 / max(1, len(served))
    )
    # readings in milliseconds at the reference rate
    residual = [
        reply.service * 1e3 - payload["latency"]["total_ms"]
        - (payload["retrieval"]["retrieve_ms"] if ask else 0.0)
        for reply, payload in reference
    ]
    detail["serve.pool.residual_p50_ms" if ask else "serve.http.residual_p50_ms"] = (
        percentile(residual, 0.5)
    )
    # back-to-back requests on one keep-alive connection, for comparison
    detail["capacity.service_p50_ms"] = percentile(
        [reply.service * 1e3 for boot in boots for _, reply in boot.capacity], 0.5
    )
    detail["serve.engine.queue_p50_ms"] = percentile(
        [payload["latency"]["queue_ms"] for _, payload in reference], 0.5
    )
    compute: dict[str, list[float]] = defaultdict(list)
    for _, payload in reference:
        if not payload.get("cached"):
            # /v1/ask answers with the QA model
            model = "verify" if payload["task"] == "verify" else "qa"
            compute[model].append(payload["latency"]["compute_ms"])
    for model, times in sorted(compute.items()):
        detail[f"models.{model}.compute_p50_ms"] = percentile(times, 0.5)
    if ask:
        detail["store.retrieval.search_p50_ms"] = percentile(
            [payload["retrieval"]["retrieve_ms"] for _, payload in reference], 0.5
        )
    detail["driver.late_p95_ms"] = percentile(
        [(reply.sent - reply.due) * 1e3 for boot in boots for _, reply in boot.reference],
        0.95,
    )
    detail["driver.cpu_share"] = max(boot.driver_cpu_share for boot in boots)
    return layers, detail


def _span_layers(spans: list[dict[str, Any]], served: list[tuple[Request, Reply, dict[str, Any]]]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-request latency split into layer self times, as shares."""
    selfs = self_times(spans)
    by_request: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span["request_id"] is not None and span["end"] is not None:
            by_request[span["request_id"]].append(index)
    totals: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    parse_ms: list[float] = []
    sanitize_ms: list[float] = []
    miss_ms: list[float] = []
    service = 0.0
    for request, reply, payload in served:
        indices = by_request.get(request.id, [])
        roots = [i for i in indices if spans[i]["name"] == ROOT_SPAN]
        if len(roots) != 1:
            continue
        root = spans[roots[0]]
        service += reply.service
        totals["serve.http.wire_share"] += max(0.0, reply.service - (root["end"] - root["start"]))
        sanitize = 0.0
        for i in indices:
            name = spans[i]["name"]
            counts[name] += 1
            duration = spans[i]["end"] - spans[i]["start"]
            if name == "serve.backend.infer":
                latency = payload.get("latency") or {}
                totals["serve.backend.dispatch_share"] += max(
                    0.0, selfs[i] - latency.get("total_ms", 0.0) / 1e3
                )
                totals["serve.engine.queue_share"] += latency.get("queue_ms", 0.0) / 1e3
                totals["models.compute_share"] += latency.get("compute_ms", 0.0) / 1e3
                continue
            totals[SPAN_LAYERS[name]] += selfs[i]
            if name == "serve.http.parse":
                parse_ms.append(duration * 1e3)
            elif name == "sanitize":
                sanitize += duration
            elif name == "store.verify_manifest":
                parent = spans[i]["parent"]
                if parent is not None and spans[parent]["name"] == "store.read_shard":
                    counts["shard_miss"] += 1
                    miss_ms.append((spans[parent]["end"] - spans[parent]["start"]) * 1e3)
        if sanitize:
            sanitize_ms.append(sanitize * 1e3)
        counts["requests"] += 1
    layers = {name: value / service for name, value in totals.items()}
    layers["store.gets_per_request"] = counts["store.get"] / max(1, counts["requests"])
    layers["store.shard_miss_ratio"] = counts["shard_miss"] / max(1, counts["store.read_shard"])
    detail = {"traced_requests": counts["requests"]}
    for name, values in (
        ("serve.http.parse_p50_ms", parse_ms),
        ("sanitize.repair_p50_ms", sanitize_ms),
        ("store.shard_read_p50_ms", miss_ms),
    ):
        if values:
            detail[name] = percentile(values, 0.5)
    return layers, detail


def _serve_args(inputs: Inputs, workload: Workload) -> list[str]:
    args = ["serve", "--registry", str(inputs.registry), "--port", "0"]
    if inputs.store is not None:
        args += ["--store", str(inputs.store)]
    if workload.replicas:
        args += ["--replicas", str(workload.replicas)]
    return args


def run(name: str, workdir: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    workload = WORKLOADS[name]
    ask = name == "serve_ask"
    inputs = (prepare_ask if ask else prepare_qa_verify)(workdir, seed, workload.pool)
    args = ["-m", "repro.cli", *_serve_args(inputs, workload)]
    log = workdir / "server.log"
    # every boot replays the same schedule, so --seconds is split evenly
    reference_s = seconds * REFERENCE_SHARE / BOOTS
    capacity_s = seconds * (1 - REFERENCE_SHARE) / BOOTS
    boots = [
        drive(Server(args, log), inputs, workload, reference_s, capacity_s)
        for _ in range(BOOTS)
    ]
    problems = [
        problem for number, boot in enumerate(boots)
        for problem in _drain_problems(boot, f"boot {number}")
    ]
    served = [entry for boot in boots for entry in boot.served()]
    problems += check_answers(inputs, served)
    # a request's latency is the least over the boots that replayed it
    least: dict[str, float] = {}
    for boot in boots:
        for request, reply in boot.reference:
            if _ok(reply):
                least[request.id] = min(least.get(request.id, math.inf), reply.latency * 1e3)
    attempted = sum(len(boot.reference) + len(boot.capacity) for boot in boots)
    outcome = Outcome(
        attempted=attempted,
        failed=attempted - len(served),
        metrics={
            "setup_s": median([boot.boot_s for boot in boots]),
            "throughput": max(
                sum(1 for _, reply in boot.capacity if _ok(reply)) / boot.capacity_s
                for boot in boots
            ),
            "p50_ms": percentile(list(least.values()), 0.50),
            "p90_ms": percentile(list(least.values()), 0.90),
            "peak_rss_mb": median([boot.peak_rss_mb for boot in boots]),
        },
        detail={
            "reference_requests": len(boots[0].reference),
            "capacity_requests": median([len(boot.capacity) for boot in boots]),
        },
        problems=problems,
    )
    layers, detail = _untraced_layers(inputs, boots, ask)
    outcome.detail.update(detail)
    if trace:
        spans_path = workdir / "spans.jsonl"
        traced_args = ["-m", "bench.traced_serve", str(spans_path),
                       *_serve_args(inputs, workload)]
        traced = drive(Server(traced_args, log), inputs, workload, reference_s, 0.0)
        outcome.problems += _drain_problems(traced, "traced")
        replies = traced.served()
        if len(replies) != len(traced.reference):
            outcome.problems.append("traced: some requests failed")
        span_layers, span_detail = _span_layers(load_spans(spans_path), replies)
        layers.update(span_layers)
        outcome.detail.update(span_detail)

        def p50(boot: Boot) -> float:
            return percentile([reply.latency for _, reply in boot.reference], 0.5)

        outcome.detail["trace_overhead"] = p50(traced) / median([p50(b) for b in boots]) - 1
        outcome.layers = layers
    return outcome

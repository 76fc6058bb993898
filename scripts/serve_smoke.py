"""End-to-end serving smoke check (run by the CI ``serve-smoke`` job).

Spawns ``repro serve`` as a real subprocess against a registry
directory, then proves the behaviors the serving stack promises:

1. QA and verification both answer over the wire from registry
   artifacts (``POST /v1/qa`` / ``POST /v1/verify``).
2. An overload burst (16 closed-loop clients against ``queue_limit=2``)
   is rejected with typed 429s — never hangs, never transport errors.
3. ``GET /metrics`` reconciles exactly:
   ``accepted == completed + rejected + in_flight``.
4. With ``--reload``: a new model version registered mid-load and
   ``POST /v1/admin/reload`` flips serving to it with zero failed
   (non-429) requests, a still-reconciling ``/metrics``, and
   ``GET /healthz`` answering 200 for the whole cycle.
5. SIGTERM in the middle of a load burst drains in-flight work and
   exits 0, printing final stats that still reconcile.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py REGISTRY_DIR \\
        CONTEXTS_JSONL [--replicas N] [--reload]

``--replicas N`` runs the server's pool with N replica processes
instead of one in-process slot.  Exits non-zero (assertion) on any
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.io import load_contexts
from repro.serve import (
    HttpServeClient,
    ModelRegistry,
    build_workload,
    run_load,
)


def _reload_cycle(
    client: HttpServeClient, registry_dir: str, contexts
) -> None:
    """Register a new default version under load and hot-reload to it."""
    registry = ModelRegistry(registry_dir)
    name = sorted(registry.models())[0]
    old_id = registry.record(name).model_id
    # Re-save the current default as the next version: same weights,
    # new version id — exactly the retrain-and-redeploy drill.
    registry.save(registry.load(name).model, name)
    new_id = registry.record(name).model_id
    assert new_id != old_id, (old_id, new_id)

    box: dict = {}
    loader = threading.Thread(
        target=lambda: box.update(report=run_load(
            client, build_workload(contexts, 80, seed=21), clients=4)))
    # /healthz must answer 200 for the whole reload cycle: the
    # incumbent replica keeps serving while its replacement warms up,
    # so the server is never unroutable.  The client helper returns
    # the parsed body even on 503, and only "draining"/"unavailable"
    # are served as 503 — so asserting the status string is asserting
    # the status code.
    health_stop = threading.Event()
    health_seen: list = []

    def poll_health() -> None:
        while not health_stop.is_set():
            try:
                health_seen.append(client.healthz()["status"])
            except Exception as error:  # transport failure = downtime
                health_seen.append(f"error:{error}")
            time.sleep(0.05)

    poller = threading.Thread(target=poll_health)
    poller.start()
    loader.start()
    time.sleep(0.2)
    try:
        summary = client.reload(timeout=120.0)
    finally:
        loader.join(timeout=120)
        health_stop.set()
        poller.join(timeout=10)
    print("reload:", json.dumps(summary))
    assert summary["ok"] is True, summary
    report = box["report"]
    print("reload load:", json.dumps(report.to_json()))
    assert report.errors == 0, report  # zero non-429 failures
    bad = [s for s in health_seen if s not in ("ok", "degraded")]
    assert health_seen and not bad, (
        f"/healthz dipped during reload: {bad} of {len(health_seen)} polls"
    )
    print(f"healthz stayed 200 across {len(health_seen)} reload-time polls")

    metrics = client.metrics()
    assert metrics["reloads"] == 1, metrics
    assert new_id in metrics["models"].values(), metrics
    assert metrics["reconciles"], metrics
    print(f"reload cycle OK: {old_id} -> {new_id} with zero failures")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("registry_dir")
    parser.add_argument("contexts_path")
    parser.add_argument("--replicas", type=int, default=0)
    parser.add_argument("--reload", action="store_true")
    args = parser.parse_args()

    contexts = load_contexts(args.contexts_path)[:4]
    assert contexts, "no contexts to build a workload from"

    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--registry", args.registry_dir, "--port", "0",
        "--workers", "1", "--max-batch", "8", "--queue-limit", "2",
    ]
    if args.replicas > 0:
        command += ["--replicas", str(args.replicas)]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    port = None
    lines: list[str] = []
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        print("serve:", line, end="")
        if line.startswith("serving on http://"):
            port = int(line.split(":")[2].split()[0])
            break
    assert port is not None, "server never came up:\n" + "".join(lines)

    try:
        client = HttpServeClient(f"http://127.0.0.1:{port}")
        health = client.healthz()
        assert health["status"] == "ok", health

        # Both tasks answer over the wire from the registry artifacts.
        context = contexts[0]
        qa = client.qa(
            f"what is the {context.table.column_names[-1]} for "
            f"{context.table.row_name(0)} ?", context)
        assert qa.ok, qa
        verify = client.verify(
            f"{context.table.row_name(0)} has a value of 123", context)
        assert verify.ok, verify

        # Overload burst: queue_limit=2 against 16 closed-loop clients
        # must produce typed 429 rejections — no hangs, no resets.
        workload = build_workload(contexts, 240, seed=11)
        report = run_load(client, workload, clients=16)
        print("load:", json.dumps(report.to_json()))
        assert report.errors == 0, report
        assert report.rejected > 0, "overload burst produced no 429s"
        assert report.completed + report.rejected == report.sent, report
        # the failure taxonomy must agree with the legacy marginals:
        # every non-success here is a typed 429, nothing else.
        assert report.failures.get("overloaded", 0) == report.rejected, report
        others = {
            kind: count for kind, count in report.failures.items()
            if kind != "overloaded" and count
        }
        assert not others, f"unexpected failure kinds under overload: {others}"

        metrics = client.metrics()
        print("metrics:", json.dumps(metrics))
        assert metrics["reconciles"], metrics
        assert metrics["accepted"] == (
            metrics["completed"] + metrics["rejected"]
            + metrics["in_flight"]
        ), metrics
        # everything this script sent (plus the 2 probes) was accounted
        assert metrics["accepted"] >= report.sent + 2, metrics
        if args.replicas > 0:
            assert len(metrics["replicas"]) == args.replicas, metrics

        # Zero-downtime reload under load (new version, POST reload).
        if args.reload:
            _reload_cycle(client, args.registry_dir, contexts)

        # SIGTERM mid-burst: clean drain, exit 0.
        box: dict = {}
        loader = threading.Thread(
            target=lambda: box.update(report=run_load(
                client, build_workload(contexts, 120, seed=12), clients=4)))
        loader.start()
        time.sleep(0.2)
        process.send_signal(signal.SIGTERM)
        loader.join(timeout=60)
        output = process.communicate(timeout=120)[0]
    finally:
        if process.poll() is None:
            process.kill()

    print(output)
    assert process.returncode == 0, f"exit {process.returncode}"
    assert "draining" in output
    marker = "final stats: "
    stats_line = next(
        line for line in output.splitlines() if marker in line)
    stats = json.loads(stats_line.split(marker, 1)[1])
    assert stats["reconciles"], stats
    assert stats["in_flight"] == 0, stats
    assert stats["accepted"] == stats["completed"] + stats["rejected"], stats
    mode = f"{args.replicas} replicas" if args.replicas else "engine"
    print(f"serve smoke OK ({mode}): overload rejected", report.rejected,
          "of", report.sent, "and the drain reconciled")


if __name__ == "__main__":
    main()

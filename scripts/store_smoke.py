"""End-to-end table-store smoke check (run by the CI ``store-smoke`` job).

Builds a small synthetic corpus with the real CLI (``repro store add``
/ ``build`` / ``verify``), spawns ``repro serve --store`` as a real
subprocess against a registry directory, then proves the behaviors the
store + ask path promises:

1. ``POST /v1/ask`` answers question-only requests over the wire,
   echoing retrieval provenance, and retrieval recall@5 over known
   gold tables meets the benchmark gate (>= 0.9).
2. A vocabulary-disjoint question is a typed ``retrieval_miss`` —
   HTTP 200 with ``ok: false``, never a 5xx.
3. A mixed ``ask_fraction`` loadgen workload completes with zero
   failures, and ``GET /metrics`` reconciles on both layers: the
   pool's ``accepted == completed + rejected + in_flight`` and the
   ask section's ``requests == answered + retrieval_miss``.
4. ``/v1/qa`` and ``/v1/ask`` share one validation path: the same
   malformed fields draw the same 400s naming the same field.
5. SIGTERM drains cleanly (exit 0, reconciling final stats).

Usage::

    PYTHONPATH=src python scripts/store_smoke.py REGISTRY_DIR STORE_DIR \\
        [--corpus N] [--seed S]

Exits non-zero (assertion) on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.serve import HttpServeClient, build_workload, run_load
from repro.serve.registry import TASK_QA
from repro.store import TableStore, gold_questions

RECALL5_GATE = 0.9


def _cli(*args: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args], check=True
    )


def _post_error(base: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0):
            raise AssertionError(f"expected an error from {path}")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("registry_dir")
    parser.add_argument("store_dir")
    parser.add_argument("--corpus", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # 0. Build and audit the corpus with the real CLI surface.
    _cli("store", "add", "--store", args.store_dir,
         "--synth", str(args.corpus), "--seed", str(args.seed))
    _cli("store", "build", "--store", args.store_dir, "--workers", "2")
    _cli("store", "verify", "--store", args.store_dir)

    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--registry", args.registry_dir, "--store", args.store_dir,
            "--port", "0", "--workers", "1", "--max-batch", "8",
        ],
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
        base = f"http://127.0.0.1:{port}"
        client = HttpServeClient(base)
        health = client.healthz()
        assert health["status"] == "ok", health
        assert health["store"] == {"docs": args.corpus}, health

        # 1. Recall over gold questions, through the full ask path.
        gold = gold_questions(
            60, corpus_size=args.corpus, seed=args.seed
        )
        hits_at_5 = answered = 0
        for question in gold:
            response = client.ask(question.question, k=5)
            answered += bool(response.ok)
            uids = [hit["uid"] for hit in response.retrieval["hits"]]
            hits_at_5 += question.uid in uids
            assert response.retrieval["chosen"], response.retrieval
        recall5 = hits_at_5 / len(gold)
        print(f"recall@5 over the wire: {recall5:.3f} "
              f"({answered}/{len(gold)} answered)")
        assert recall5 >= RECALL5_GATE, (
            f"recall@5 {recall5:.3f} below the {RECALL5_GATE} gate"
        )
        assert answered == len(gold)

        # 2. A vocabulary-disjoint question is a typed miss, not a 5xx.
        miss = client.ask("xylophone zebra quartz umbrella")
        assert not miss.ok and miss.error.startswith("retrieval_miss"), miss

        # 3. Mixed workload: half the QA items converted to ask items.
        contexts = [
            TableStore.open(args.store_dir).get(f"t{i:08d}")
            for i in range(8)
        ]
        workload = build_workload(
            contexts, 80, tasks=(TASK_QA,), seed=5, ask_fraction=0.5
        )
        n_ask = sum(item.task == "ask" for item in workload)
        assert 0 < n_ask < len(workload), n_ask
        report = run_load(client, workload, clients=4)
        print("load:", json.dumps(report.to_json()))
        assert report.completed == report.sent, report
        assert not any(report.failures.values()), report

        metrics = client.metrics()
        assert metrics["reconciles"], metrics
        assert metrics["accepted"] == (
            metrics["completed"] + metrics["rejected"]
            + metrics["in_flight"]
        ), metrics
        ask = metrics["ask"]
        assert ask["requests"] == (
            ask["answered"] + ask["retrieval_miss"]
        ), ask
        assert ask["answered"] >= len(gold) + n_ask, ask
        assert ask["retrieval_miss"] >= 1, ask
        print("ask metrics:", json.dumps(ask))

        # 4. Shared validation path: same 400, same field, both routes.
        code, payload = _post_error(base, "/v1/ask", {
            "question": "q ?", "context": {"table": {}},
        })
        assert code == 400 and payload["error"]["field"] == "context", payload
        code, payload = _post_error(base, "/v1/ask", {
            "question": "q ?", "top_k": 0,
        })
        assert code == 400 and payload["error"]["field"] == "top_k", payload
        for path in ("/v1/ask", "/v1/qa"):
            code, payload = _post_error(base, path, {
                "question": "q ?", "sanitize": "yes",
            })
            assert code == 400, (path, payload)
            assert payload["error"]["field"] == "sanitize", (path, payload)

        # 5. Clean drain on SIGTERM.
        process.send_signal(signal.SIGTERM)
        output = process.communicate(timeout=120)[0]
    finally:
        if process.poll() is None:
            process.kill()

    print(output)
    assert process.returncode == 0, f"exit {process.returncode}"
    marker = "final stats: "
    stats_line = next(
        line for line in output.splitlines() if marker in line)
    stats = json.loads(stats_line.split(marker, 1)[1])
    assert stats["reconciles"], stats
    print(f"store smoke OK: recall@5 {recall5:.3f} over {args.corpus} "
          "tables, metrics reconciled, drain clean")


if __name__ == "__main__":
    main()

"""Bench: table-store retrieval — recall and end-to-end ask latency.

A synthetic corpus with known gold tables (:mod:`repro.store.synth`)
is stored, indexed, and queried:

* **recall@{1,5,20}** — does BM25 over the inverted index surface the
  one intended table among ``REPRO_BENCH_CORPUS`` (default 10,000)
  neighbors sharing its column/city vocabulary?
* **latency** — raw ``Retriever.search`` time, and end-to-end
  ``POST /v1/ask`` time over real HTTP (retrieve → fetch → QA) against
  a stub QA backend, so the number isolates the serving+retrieval path
  from model quality.
* **build** — corpus append throughput and parallel index-build time.

Results land in ``benchmarks/BENCH_retrieval.json``; the recall gate
(recall@5 >= 0.9) is enforced under ``REPRO_BENCH_ENFORCE=1``, which is
how the CI ``store-smoke`` job runs this module.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.serve import make_server, serve_in_thread, HttpServeClient
from repro.serve.engine import InferenceResponse, Timing
from repro.serve.registry import TASK_QA
from repro.serve.stats import nearest_rank_percentiles
from repro.store import (
    Retriever,
    TableStore,
    build_index,
    gold_questions,
    synth_corpus,
)

_HERE = Path(__file__).resolve().parent
BENCH_PATH = _HERE / "BENCH_retrieval.json"

CORPUS_SIZE = int(os.environ.get("REPRO_BENCH_CORPUS", "10000"))
N_QUESTIONS = 200
N_ASK = 100
SEED = 0

#: the enforced retrieval-quality gate (the ISSUE's acceptance bar).
RECALL5_GATE = 0.9

RESULTS: dict[str, dict] = {}


def _enforcing() -> bool:
    return bool(os.environ.get("REPRO_BENCH_ENFORCE"))


class _StubQABackend:
    """Answers instantly: ask latency then measures serving+retrieval."""

    def infer(self, task, sentence, context, *, deadline_s=None,
              request_id=None, timeout=None):
        assert task == TASK_QA
        return InferenceResponse(
            id=request_id or "bench", task=task, ok=True,
            answer=(context.table.cell(0, context.table.column_names[1]).raw,),
            label=None, error=None, cached=False, model="stub-qa",
            timing=Timing(0.0, 0.0, 0.0, 1),
        )

    def note_sanitize(self, report):  # pragma: no cover - not exercised
        pass

    def stats(self):
        return {"models": {TASK_QA: "stub-qa"}, "uptime_s": 0.0,
                "draining": False}

    def health(self):
        return {"status": "ok", "models": {TASK_QA: "stub-qa"}}


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-store") / "corpus"
    started = time.perf_counter()
    store = TableStore.create(root)
    store.add(synth_corpus(CORPUS_SIZE, seed=SEED))
    add_s = time.perf_counter() - started
    summary = build_index(root, workers=4)
    RESULTS["build"] = {
        "corpus_size": CORPUS_SIZE,
        "add_s": round(add_s, 2),
        "add_tables_per_s": round(CORPUS_SIZE / add_s, 1),
        "index_build_s": summary["build_s"],
        "index_workers": summary["workers"],
        "index_bytes": summary["index_bytes"],
        "terms": summary["terms"],
        "shards": summary["shards"],
    }
    print(
        f"\nstored {CORPUS_SIZE} tables in {add_s:.1f}s, indexed "
        f"{summary['terms']} terms in {summary['build_s']:.1f}s"
    )
    return root


@pytest.fixture(scope="module")
def gold(store_root):
    return gold_questions(
        N_QUESTIONS, corpus_size=CORPUS_SIZE, seed=SEED
    )


def test_recall_at_k(store_root, gold):
    retriever = Retriever.open(store_root)
    found = {1: 0, 5: 0, 20: 0}
    search_s: list[float] = []
    for question in gold:
        started = time.perf_counter()
        hits = retriever.search(question.question, k=20)
        search_s.append(time.perf_counter() - started)
        uids = [hit.uid for hit in hits]
        for k in found:
            found[k] += question.uid in uids[:k]
    recall = {
        f"recall@{k}": round(count / len(gold), 4)
        for k, count in found.items()
    }
    RESULTS["retrieval"] = {
        "n_questions": len(gold),
        **recall,
        "search_ms": nearest_rank_percentiles(search_s),
    }
    print(f"\n{recall} search p50 "
          f"{RESULTS['retrieval']['search_ms']['p50_ms']:.1f}ms")
    # shape at any corpus size: ranking beats chance by a wide margin
    assert recall["recall@20"] >= recall["recall@5"] >= recall["recall@1"]
    assert recall["recall@20"] > 0.5
    if _enforcing():
        assert recall["recall@5"] >= RECALL5_GATE, (
            f"recall@5 {recall['recall@5']:.3f} fell below the "
            f"{RECALL5_GATE} gate over {CORPUS_SIZE} tables"
        )


def test_end_to_end_ask_latency(store_root, gold):
    server = make_server(
        _StubQABackend(), retriever=Retriever.open(store_root)
    )
    serve_in_thread(server)
    try:
        client = HttpServeClient(f"http://127.0.0.1:{server.port}")
        ask_s: list[float] = []
        answered = 0
        for question in gold[:N_ASK]:
            started = time.perf_counter()
            response = client.ask(question.question, k=5)
            ask_s.append(time.perf_counter() - started)
            answered += bool(response.ok)
    finally:
        server.shutdown()
        server.server_close()
    RESULTS["ask"] = {
        "n_requests": N_ASK,
        "answered": answered,
        "ask_ms": nearest_rank_percentiles(ask_s),
    }
    print(f"\nask p50 {RESULTS['ask']['ask_ms']['p50_ms']:.1f}ms "
          f"p95 {RESULTS['ask']['ask_ms']['p95_ms']:.1f}ms")
    assert answered == N_ASK, "every gold question should retrieve"


def test_write_bench_json():
    """Write BENCH_retrieval.json (runs last in the module)."""
    assert {"build", "retrieval", "ask"} <= set(RESULTS)
    report = {
        "setup": {
            "corpus": f"synthetic, {CORPUS_SIZE} tables, seed {SEED}",
            "questions": N_QUESTIONS,
            "gates": {"recall@5": RECALL5_GATE},
            "qa_backend": "stub (latency isolates retrieval + serving)",
        },
        "results": dict(RESULTS),
    }
    BENCH_PATH.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {BENCH_PATH}")

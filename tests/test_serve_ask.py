"""Tests for ``POST /v1/ask``: retrieval-backed QA over a table store.

Covers the end-to-end route (real HTTP, real store), the shared
request-validation path with ``/v1/qa`` (identical 400s and
``sanitize`` behavior), the ``retrieval_miss`` contract, the /metrics
``ask`` section, and the loadgen's ``ask_fraction`` mixed workloads.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ServeError
from repro.serve import (
    EngineConfig,
    HttpServeClient,
    InferenceEngine,
    ReplicaPool,
    ServeClient,
    TASK_ASK,
    TASK_QA,
    TASK_VERIFY,
    build_workload,
    make_server,
    run_load,
    serve_in_thread,
)
from repro.store import Retriever, TableStore, build_index, gold_questions, synth_corpus

pytestmark = pytest.mark.timeout(300)

CORPUS_SEED = 5
CORPUS_SIZE = 80


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("ask") / "store"
    store = TableStore.create(root, shard_size=32)
    store.add(synth_corpus(CORPUS_SIZE, seed=CORPUS_SEED))
    build_index(root, workers=2)
    return root


@pytest.fixture
def served(tiny_qa_model, tiny_verifier, store_root):
    engine = InferenceEngine(
        {TASK_QA: tiny_qa_model, TASK_VERIFY: tiny_verifier},
        EngineConfig(workers=2, max_batch_size=8),
    )
    engine.start()
    server = make_server(
        ReplicaPool.hosting(engine), retriever=Retriever.open(store_root)
    )
    serve_in_thread(server)
    yield server
    server.shutdown()
    server.server_close()
    engine.stop(drain=True)


def _post(port, path, payload, timeout=30.0):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


def _post_error(port, path, payload):
    try:
        _post(port, path, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))
    raise AssertionError("expected an HTTP error")


def _gold(n=5):
    return gold_questions(n, corpus_size=CORPUS_SIZE, seed=CORPUS_SEED)


class TestAskEndpoint:
    def test_ask_answers_with_provenance(self, served):
        question = _gold()[0]
        status, payload = _post(
            served.port, "/v1/ask", {"question": question.question}
        )
        assert status == 200
        assert payload["ok"]
        assert payload["task"] == TASK_ASK
        retrieval = payload["retrieval"]
        assert retrieval["k"] == 5
        assert retrieval["retrieve_ms"] >= 0
        assert retrieval["chosen"] == retrieval["hits"][0]["doc_id"]
        assert isinstance(retrieval["passage"], str)
        # the gold table wins retrieval on this corpus
        assert retrieval["hits"][0]["uid"] == question.uid
        assert isinstance(payload["answer"], list)

    def test_top_k_bounds_hits(self, served):
        status, payload = _post(
            served.port, "/v1/ask",
            {"question": _gold()[1].question, "top_k": 1},
        )
        assert status == 200
        assert len(payload["retrieval"]["hits"]) == 1

    def test_miss_is_ok_false_with_typed_prefix(self, served):
        status, payload = _post(
            served.port, "/v1/ask", {"question": "zzzz qqqq wwww"}
        )
        assert status == 200
        assert payload["ok"] is False
        assert payload["error"].startswith("retrieval_miss")
        assert payload["retrieval"]["hits"] == []

    def test_ask_without_store_is_501(self, tiny_qa_model):
        engine = InferenceEngine(
            {TASK_QA: tiny_qa_model}, EngineConfig(workers=1)
        )
        engine.start()
        server = make_server(ReplicaPool.hosting(engine))  # no retriever
        serve_in_thread(server)
        try:
            code, payload = _post_error(
                server.port, "/v1/ask", {"question": "anything ?"}
            )
            assert code == 501
            assert "store" in payload["error"]["message"]
        finally:
            server.shutdown()
            server.server_close()
            engine.stop(drain=False)


class TestSharedValidation:
    """/v1/qa and /v1/ask run the same parse path: identical 400s."""

    def test_ask_rejects_supplied_context(self, served, serve_context):
        code, payload = _post_error(served.port, "/v1/ask", {
            "question": "q ?", "context": serve_context.to_json(),
        })
        assert code == 400
        assert payload["error"]["field"] == "context"

    @pytest.mark.parametrize("top_k", [0, 101, True, "3", 2.5])
    def test_ask_rejects_bad_top_k(self, served, top_k):
        code, payload = _post_error(served.port, "/v1/ask", {
            "question": "q ?", "top_k": top_k,
        })
        assert code == 400
        assert payload["error"]["field"] == "top_k"

    def test_qa_rejects_top_k(self, served, serve_context):
        code, payload = _post_error(served.port, "/v1/qa", {
            "question": "q ?", "context": serve_context.to_json(),
            "top_k": 3,
        })
        assert code == 400
        assert payload["error"]["field"] == "top_k"

    def test_missing_question_is_same_400_on_both(
        self, served, serve_context
    ):
        code_ask, payload_ask = _post_error(served.port, "/v1/ask", {})
        code_qa, payload_qa = _post_error(
            served.port, "/v1/qa",
            {"context": serve_context.to_json()},
        )
        assert code_ask == code_qa == 400
        assert (
            payload_ask["error"]["field"]
            == payload_qa["error"]["field"]
            == "question"
        )

    def test_sanitize_flag_validated_identically(
        self, served, serve_context
    ):
        for path, body in (
            ("/v1/ask", {"question": "q ?", "sanitize": "yes"}),
            ("/v1/qa", {"question": "q ?", "sanitize": "yes",
                        "context": serve_context.to_json()}),
        ):
            code, payload = _post_error(served.port, path, body)
            assert code == 400
            assert payload["error"]["field"] == "sanitize"

    def test_sanitize_true_reports_on_ask(self, served):
        status, payload = _post(served.port, "/v1/ask", {
            "question": _gold()[2].question, "sanitize": True,
        })
        assert status == 200
        assert "sanitize" in payload


class TestAskObservability:
    def test_metrics_ask_section_reconciles(self, served):
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        client.ask(_gold()[0].question)
        client.ask("zzzz qqqq wwww")
        metrics = client.metrics()
        ask = metrics["ask"]
        assert ask["requests"] == ask["answered"] + ask["retrieval_miss"]
        assert ask["requests"] >= 2
        assert ask["retrieval_miss"] >= 1
        assert ask["retrieve_ms"]["count"] >= 2

    def test_healthz_reports_store(self, served):
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        health = client.healthz()
        assert health["store"] == {"docs": CORPUS_SIZE}


class TestAskClients:
    def test_http_client_ask(self, served):
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        response = client.ask(_gold()[3].question, k=3)
        assert response.ok
        assert len(response.retrieval["hits"]) == 3
        miss = client.ask("zzzz qqqq wwww")
        assert not miss.ok
        assert miss.error.startswith("retrieval_miss")

    def test_inprocess_client_ask(
        self, tiny_qa_model, tiny_verifier, store_root
    ):
        engine = InferenceEngine(
            {TASK_QA: tiny_qa_model, TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1),
        )
        engine.start()
        try:
            client = ServeClient(
                engine, retriever=Retriever.open(store_root)
            )
            response = client.ask(_gold()[4].question)
            assert response.ok
            assert response.retrieval["hits"]
            bare = ServeClient(engine)
            with pytest.raises(ServeError, match="store"):
                bare.ask("q ?")
        finally:
            engine.stop(drain=False)


class TestAskLoadgen:
    def test_ask_fraction_converts_qa_items(self):
        contexts = list(synth_corpus(10, seed=CORPUS_SEED))
        workload = build_workload(
            contexts, 40, tasks=(TASK_QA,), seed=3, ask_fraction=1.0
        )
        assert all(item.task == TASK_ASK for item in workload)
        assert all(item.context is None for item in workload)

    def test_unconverted_items_are_byte_identical(self):
        contexts = list(synth_corpus(10, seed=CORPUS_SEED))
        plain = build_workload(contexts, 40, seed=3)
        mixed = build_workload(contexts, 40, seed=3, ask_fraction=0.5)
        assert any(item.task == TASK_ASK for item in mixed)
        assert any(item.task != TASK_ASK for item in mixed)
        for before, after in zip(plain, mixed):
            if after.task == TASK_ASK:
                assert before.task == TASK_QA
                assert after.sentence == before.sentence
            else:
                assert after == before

    def test_ask_fraction_validated(self):
        contexts = list(synth_corpus(2, seed=CORPUS_SEED))
        with pytest.raises(ServeError):
            build_workload(contexts, 4, ask_fraction=1.5)

    def test_mixed_load_over_the_wire(self, served, store_root):
        # questions built from the stored tables themselves: every ask
        # retrieves successfully, and the report grows an ask latency
        # bucket alongside qa/verify.
        contexts = [
            TableStore.open(store_root).get(f"t{i:08d}")
            for i in range(8)
        ]
        workload = build_workload(
            contexts, 24, seed=1, ask_fraction=0.5
        )
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        report = run_load(client, workload, clients=4)
        assert report.completed == len(workload)
        assert report.failures["retrieval_miss"] == 0
        assert TASK_ASK in report.latency

    def test_miss_bucket_counted(self, served, serve_context):
        # the players-table vocabulary shares nothing with the synth
        # corpus: every converted ask item is a retrieval miss, and the
        # report files it under its own failure kind.
        workload = build_workload(
            [serve_context], 6, tasks=(TASK_QA,), seed=0,
            ask_fraction=1.0,
        )
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        report = run_load(client, workload, clients=2)
        assert report.completed == 0
        assert report.failures["retrieval_miss"] == len(workload)
        assert report.errors == len(workload)


class TestAskReadsOnce:
    def test_one_store_read_per_ask_and_passage_unchanged(
        self, monkeypatch, tiny_qa_model, store_root
    ):
        retriever = Retriever.open(store_root)
        gets = []
        get = TableStore.get

        def counting_get(store, doc_id):
            gets.append(doc_id)
            return get(store, doc_id)

        monkeypatch.setattr(TableStore, "get", counting_get)
        with InferenceEngine({TASK_QA: tiny_qa_model}) as engine:
            client = ServeClient(engine, retriever=retriever)
            for item in _gold(3):
                gets.clear()
                response = client.ask(item.question)
                assert response.ok, response.error
                chosen = response.retrieval["chosen"]
                assert gets == [chosen]
                # the echoed passage is what Retriever.passage renders
                assert response.retrieval["passage"] == retriever.passage(
                    chosen, max_rows=2
                )

"""Tests for the HTTP frontend, clients, and the CLI serve lifecycle."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import DeadlineExceededError, OverloadedError
from repro.pipelines.samples import ReasoningSample, TaskType
from repro.runtime import RetryPolicy
from repro.serve import (
    EngineConfig,
    HttpServeClient,
    InferenceEngine,
    InferenceRequest,
    ModelRegistry,
    ServeClient,
    TASK_QA,
    TASK_VERIFY,
    build_workload,
    make_server,
    run_load,
    serve_in_thread,
)

pytestmark = pytest.mark.timeout(300)


@pytest.fixture
def served(tiny_qa_model, tiny_verifier):
    engine = InferenceEngine(
        {TASK_QA: tiny_qa_model, TASK_VERIFY: tiny_verifier},
        EngineConfig(workers=2, max_batch_size=8),
    )
    engine.start()
    server = make_server(engine)
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


class TestEndpoints:
    def test_qa_over_the_wire(self, served, tiny_qa_model, serve_context):
        status, payload = _post(served.port, "/v1/qa", {
            "question": "what is the points of bo chen ?",
            "context": serve_context.to_json(),
        })
        assert status == 200
        assert payload["ok"]
        assert payload["task"] == TASK_QA
        assert tuple(payload["answer"]) == tiny_qa_model.predict(
            ReasoningSample(
                uid="x",
                task=TaskType.QUESTION_ANSWERING,
                context=serve_context,
                sentence="what is the points of bo chen ?",
                answer=("",),
            )
        )
        assert "latency" in payload

    def test_verify_over_the_wire(self, served, serve_context):
        status, payload = _post(served.port, "/v1/verify", {
            "claim": "bo chen has a points of 28",
            "context": serve_context.to_json(),
        })
        assert status == 200
        assert payload["ok"]
        assert payload["label"] in ("supported", "refuted", "unknown")

    def test_healthz_and_metrics(self, served, serve_context):
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["models"]) == {TASK_QA, TASK_VERIFY}
        client.qa("what is the points of bo chen ?", serve_context)
        metrics = client.metrics()
        assert metrics["accepted"] >= 1
        assert metrics["reconciles"]
        assert "latency" in metrics and "batches" in metrics

    def test_bad_json_is_400(self, served):
        request = urllib.request.Request(
            f"http://127.0.0.1:{served.port}/v1/qa",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30.0)
        assert caught.value.code == 400

    def test_missing_fields_are_400(self, served, serve_context):
        for payload in (
            {"context": serve_context.to_json()},          # no question
            {"question": "q ?"},                           # no context
            {"question": "q ?", "context": {"bogus": 1}},  # bad context
            {"question": "q ?", "context": serve_context.to_json(),
             "deadline_ms": -5},                           # bad deadline
        ):
            request = urllib.request.Request(
                f"http://127.0.0.1:{served.port}/v1/qa",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30.0)
            assert caught.value.code == 400

    def test_unknown_route_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(
                f"http://127.0.0.1:{served.port}/v1/nope", timeout=30.0
            )
        assert caught.value.code == 404

    def test_listen_backlog_outlives_admission_queue(self, served):
        # Overload must be ruled on by the engine (typed 429), not by
        # the kernel: the stdlib default backlog of 5 resets bursty
        # reconnecting clients before admission control ever runs.
        assert type(served).request_queue_size >= 128


class TestOverloadOverHttp:
    def test_429_with_retry_after(self, tiny_verifier, serve_context):
        # One never-started engine: the queue fills and stays full.
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1, queue_limit=1, cache_size=0),
        )
        server = make_server(engine)
        serve_in_thread(server)
        try:
            engine.submit(InferenceRequest(
                id="hog", task=TASK_VERIFY, sentence="hog claim",
                context=serve_context,
            ))
            client = HttpServeClient(f"http://127.0.0.1:{server.port}")
            with pytest.raises(OverloadedError) as caught:
                client.verify("one too many", serve_context)
            assert caught.value.retry_after > 0
            metrics = client.metrics()
            assert metrics["rejected"] >= 1
            assert metrics["reconciles"]
        finally:
            server.shutdown()
            server.server_close()
            engine.stop(drain=False)

    def test_client_retry_eventually_lands(self, tiny_verifier, serve_context):
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1, queue_limit=1, cache_size=0),
        )
        pending = engine.submit(InferenceRequest(
            id="hog", task=TASK_VERIFY, sentence="hog claim",
            context=serve_context,
        ))
        client = ServeClient(
            engine,
            retry=RetryPolicy(max_attempts=10, backoff_base=0.01),
        )
        with pytest.raises(OverloadedError):
            client.verify("rejected while full", serve_context)
        engine.start()  # capacity appears; the retrying client lands
        pending.result(10.0)
        response = client.verify("now it fits", serve_context)
        assert response.ok
        engine.stop(drain=True)


class TestLoadgen:
    def test_workload_is_deterministic(self, serve_context):
        first = build_workload([serve_context], 16, seed=7)
        second = build_workload([serve_context], 16, seed=7)
        assert [(w.task, w.sentence) for w in first] == [
            (w.task, w.sentence) for w in second
        ]
        assert {w.task for w in first} == {TASK_QA, TASK_VERIFY}

    def test_run_load_reconciles_with_metrics(self, served, serve_context):
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        report = run_load(
            client, build_workload([serve_context], 24, seed=3), clients=3
        )
        assert report.sent == 24
        assert report.completed + report.rejected + report.errors == 24
        assert report.rps > 0
        metrics = client.metrics()
        assert metrics["reconciles"]
        json.dumps(report.to_json())  # report must serialize as-is


class TestCliServeLifecycle:
    """End-to-end: registry on disk, `repro serve` subprocess, SIGTERM."""

    @pytest.fixture
    def registry_dir(self, tmp_path, tiny_qa_model, tiny_verifier):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save(tiny_qa_model, "qa-model", metrics={"em": 1.0})
        registry.save(tiny_verifier, "verifier", metrics={"accuracy": 1.0})
        return tmp_path / "registry"

    def _spawn(self, registry_dir, *extra):
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH", "")])
        )
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--registry", str(registry_dir), "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        port = None
        deadline = time.monotonic() + 60
        lines = []
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            lines.append(line)
            if line.startswith("serving on http://"):
                port = int(line.split(":")[2].split()[0])
                break
        if port is None:
            process.kill()
            raise AssertionError("server never came up:\n" + "".join(lines))
        return process, port

    def test_sigterm_drains_and_exits_zero(self, registry_dir, serve_context):
        process, port = self._spawn(registry_dir)
        try:
            client = HttpServeClient(f"http://127.0.0.1:{port}")
            # prove both tasks answer over the wire from the registry
            assert client.qa(
                "what is the points of bo chen ?", serve_context
            ).ok
            assert client.verify(
                "bo chen has a points of 28", serve_context
            ).ok

            # SIGTERM in the middle of a load burst
            import threading

            workload = build_workload([serve_context], 60, seed=5)
            report_box = {}

            def burst():
                report_box["report"] = run_load(client, workload, clients=3)

            loader = threading.Thread(target=burst)
            loader.start()
            time.sleep(0.2)
            process.send_signal(signal.SIGTERM)
            loader.join(timeout=60)
            output = process.communicate(timeout=60)[0]
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0, output
        assert "draining" in output
        marker = "final stats: "
        stats_line = next(
            line for line in output.splitlines() if marker in line
        )
        stats = json.loads(stats_line.split(marker, 1)[1])
        # every request the engine ever accepted was resolved
        assert stats["reconciles"]
        assert stats["in_flight"] == 0
        assert stats["accepted"] == stats["completed"] + stats["rejected"]


def _post_error(port, path, payload):
    """POST expecting an HTTP error; returns (status, decoded body)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request, timeout=30.0)
    body = json.loads(caught.value.read().decode("utf-8"))
    return caught.value.code, body


class TestStrictValidation:
    """Malformed tables are field-level 400s, never 500s."""

    def _payload(self, serve_context, **table_overrides):
        context = serve_context.to_json()
        context["table"] = {**context["table"], **table_overrides}
        return {"question": "what is the points of bo chen ?",
                "context": context}

    def test_ragged_row_names_the_field(self, served, serve_context):
        payload = self._payload(serve_context)
        payload["context"]["table"]["rows"] = [
            row[:-1] for row in payload["context"]["table"]["rows"]
        ]
        status, body = _post_error(served.port, "/v1/qa", payload)
        assert status == 400
        assert not body["ok"]
        assert body["error"]["field"] == "context.table.rows[0]"
        assert "ragged" in body["error"]["message"]
        assert "sanitize" in body["error"]["message"]  # points at the fix

    def test_duplicate_header_names_the_field(self, served, serve_context):
        payload = self._payload(serve_context)
        columns = payload["context"]["table"]["columns"]
        columns[1]["name"] = columns[0]["name"].upper()  # case-insensitive
        status, body = _post_error(served.port, "/v1/qa", payload)
        assert status == 400
        assert body["error"]["field"] == "context.table.columns[1].name"
        assert "columns[0]" in body["error"]["message"]  # first use cited

    def test_empty_header_names_the_field(self, served, serve_context):
        payload = self._payload(serve_context)
        payload["context"]["table"]["columns"][0]["name"] = "   "
        status, body = _post_error(served.port, "/v1/qa", payload)
        assert status == 400
        assert body["error"]["field"] == "context.table.columns[0].name"

    def test_non_string_cell_names_the_field(self, served, serve_context):
        payload = self._payload(serve_context)
        payload["context"]["table"]["rows"][1][2] = 28
        status, body = _post_error(served.port, "/v1/qa", payload)
        assert status == 400
        assert body["error"]["field"] == "context.table.rows[1][2]"
        assert "int" in body["error"]["message"]

    def test_empty_columns_rejected(self, served, serve_context):
        payload = self._payload(serve_context, columns=[], rows=[])
        status, body = _post_error(served.port, "/v1/qa", payload)
        assert status == 400
        assert body["error"]["field"] == "context.table.columns"

    def test_sanitize_flag_must_be_boolean(self, served, serve_context):
        payload = self._payload(serve_context)
        payload["sanitize"] = "yes"
        status, body = _post_error(served.port, "/v1/qa", payload)
        assert status == 400
        assert body["error"]["field"] == "sanitize"


class TestSanitizeOverHttp:
    def _messy_payload(self, serve_context):
        """Ragged rows + footnoted cells: payload and cell damage."""
        context = serve_context.to_json()
        table = dict(context["table"])
        rows = [list(row) for row in table["rows"]]
        rows[0][2] = rows[0][2] + " [a]"     # footnote marker
        rows[1] = rows[1][:-1]               # ragged: short one cell
        table["rows"] = rows
        context["table"] = table
        return context

    def test_strict_rejects_then_sanitize_repairs(
        self, served, serve_context
    ):
        context = self._messy_payload(serve_context)
        question = "what is the points of bo chen ?"
        status, body = _post_error(
            served.port, "/v1/qa",
            {"question": question, "context": context},
        )
        assert status == 400  # same table, no flag: strict path
        status, payload = _post(served.port, "/v1/qa", {
            "question": question, "context": context, "sanitize": True,
        })
        assert status == 200
        assert payload["ok"]
        report = payload["sanitize"]
        assert report["structure"]["rows_padded"] == 1
        assert report["repairs"]["footnote"] >= 1
        assert report["errors"] == []

    def test_clean_table_reports_no_changes(self, served, serve_context):
        status, payload = _post(served.port, "/v1/qa", {
            "question": "what is the points of bo chen ?",
            "context": serve_context.to_json(),
            "sanitize": True,
        })
        assert status == 200
        assert payload["sanitize"]["structure"] == {}
        assert payload["sanitize"]["cells"].get("repaired", 0) == 0

    def test_metrics_aggregate_sanitize_counters(
        self, served, serve_context
    ):
        context = self._messy_payload(serve_context)
        _post(served.port, "/v1/qa", {
            "question": "what is the points of bo chen ?",
            "context": context, "sanitize": True,
        })
        with urllib.request.urlopen(
            f"http://127.0.0.1:{served.port}/metrics", timeout=30.0
        ) as reply:
            metrics = json.loads(reply.read().decode("utf-8"))
        assert metrics["sanitize"]["requests"] >= 1
        assert metrics["sanitize"]["tables_changed"] >= 1
        assert metrics["sanitize"]["cells_repaired"] >= 1

    def test_in_process_client_sanitizes(self, tiny_qa_model, serve_context):
        from repro.messy import perturb_context

        engine = InferenceEngine(
            {TASK_QA: tiny_qa_model}, EngineConfig(workers=1)
        )
        engine.start()
        try:
            client = ServeClient(engine)
            messy = perturb_context(serve_context, "client:0", "light")
            response = client.qa(
                "what is the points of bo chen ?", messy, sanitize=True
            )
            assert response.ok
            assert response.sanitize is not None
            assert engine.stats()["sanitize"]["requests"] == 1
        finally:
            engine.stop(drain=True)

    def test_overload_still_429_with_sanitize(
        self, tiny_verifier, serve_context
    ):
        # Sanitization must not bypass admission control.
        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier},
            EngineConfig(workers=1, queue_limit=1, cache_size=0),
        )
        server = make_server(engine)
        serve_in_thread(server)
        try:
            engine.submit(InferenceRequest(
                id="hog", task=TASK_VERIFY, sentence="hog claim",
                context=serve_context,
            ))
            client = HttpServeClient(f"http://127.0.0.1:{server.port}")
            with pytest.raises(OverloadedError):
                client.verify("one too many", serve_context, sanitize=True)
            # rejected requests never reach the model: not counted
            assert engine.stats()["sanitize"]["requests"] == 0
        finally:
            server.shutdown()
            server.server_close()
            engine.stop(drain=False)


class TestLoadgenMessy:
    def test_messy_workload_is_deterministic(self, serve_context):
        build = lambda: build_workload(  # noqa: E731
            [serve_context], 16, seed=7,
            messy_fraction=0.5, sanitize_messy=True,
        )
        first, second = build(), build()
        assert [
            (w.task, w.sentence, w.sanitize, w.context.table.column_names)
            for w in first
        ] == [
            (w.task, w.sentence, w.sanitize, w.context.table.column_names)
            for w in second
        ]
        assert any(w.sanitize for w in first)
        assert not all(w.sanitize for w in first)

    def test_clean_share_matches_fraction_zero_run(self, serve_context):
        from repro.tables.serialize import table_to_json

        clean = build_workload([serve_context], 16, seed=7)
        mixed = build_workload(
            [serve_context], 16, seed=7,
            messy_fraction=0.5, sanitize_messy=True,
        )
        # same questions in the same order; only messy contexts swapped
        assert [(w.task, w.sentence) for w in clean] == [
            (w.task, w.sentence) for w in mixed
        ]
        for base, item in zip(clean, mixed):
            if not item.sanitize:
                assert table_to_json(item.context.table) == table_to_json(
                    base.context.table
                )

    def test_messy_without_sanitize_keeps_flag_off(self, serve_context):
        items = build_workload(
            [serve_context], 12, seed=3, messy_fraction=1.0
        )
        assert all(not w.sanitize for w in items)
        assert all(w.context.meta.get("perturb") == "heavy" for w in items)

    def test_bad_fraction_and_profile_fail_fast(self, serve_context):
        from repro.errors import MessyTableError, ServeError

        with pytest.raises(ServeError):
            build_workload([serve_context], 4, messy_fraction=1.5)
        with pytest.raises(MessyTableError):
            build_workload(
                [serve_context], 4,
                messy_fraction=0.5, messy_profile="nope",
            )

    def test_run_load_drives_sanitized_requests(self, served, serve_context):
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        workload = build_workload(
            [serve_context], 12, seed=9,
            messy_fraction=0.5, sanitize_messy=True,
        )
        n_messy = sum(1 for w in workload if w.sanitize)
        assert n_messy >= 1
        report = run_load(client, workload, clients=1)  # closed loop: no 429
        assert report.completed == 12
        assert report.errors == 0
        metrics = client.metrics()
        assert metrics["sanitize"]["requests"] >= n_messy
        assert metrics["reconciles"]


class TestAdminReload:
    def test_reload_without_reloader_is_501(self, served):
        status, body = _post_error(served.port, "/v1/admin/reload", {})
        assert status == 501
        assert body["error"]["type"] == "not_implemented"

    def test_reload_over_http_swaps_engine_model(
        self, tiny_qa_model, tiny_verifier, serve_context, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save(tiny_verifier, "verifier")
        engine = InferenceEngine(
            {TASK_VERIFY: registry.load("verifier")},
            EngineConfig(workers=1),
        )
        engine.start()

        def reloader():
            fresh = registry.load("verifier")
            return {
                "changes": {
                    TASK_VERIFY: engine.swap_model(TASK_VERIFY, fresh)
                }
            }

        server = make_server(engine, reloader=reloader)
        serve_in_thread(server)
        try:
            client = HttpServeClient(f"http://127.0.0.1:{server.port}")
            before = client.verify("bo chen has a points of 28", serve_context)
            assert before.model == "verifier@v0001"
            # register a new version; the reload endpoint picks it up
            registry.save(tiny_verifier, "verifier")
            summary = client.reload()
            assert summary["ok"] is True
            change = summary["reload"]["changes"][TASK_VERIFY]
            assert change["old"] == "verifier@v0001"
            assert change["new"] == "verifier@v0002"
            after = client.verify(
                "a brand new claim after reload", serve_context
            )
            assert after.model == "verifier@v0002"
            metrics = client.metrics()
            assert metrics["reloads"] == 1
            assert metrics["reconciles"]
        finally:
            server.shutdown()
            server.server_close()
            engine.stop(drain=True)

    def test_reload_failure_is_409(self, tiny_verifier, serve_context):
        from repro.errors import ReproError

        engine = InferenceEngine(
            {TASK_VERIFY: tiny_verifier}, EngineConfig(workers=1)
        )
        engine.start()

        def reloader():
            raise ReproError("registry artifact digest mismatch")

        server = make_server(engine, reloader=reloader)
        serve_in_thread(server)
        try:
            status, body = _post_error(server.port, "/v1/admin/reload", {})
            assert status == 409
            assert body["error"]["type"] == "reload_failed"
            # and the server still serves afterwards
            client = HttpServeClient(f"http://127.0.0.1:{server.port}")
            assert client.verify("still serving ?", serve_context).ok
        finally:
            server.shutdown()
            server.server_close()
            engine.stop(drain=True)


class TestPoolOverHttp:
    def test_pool_behind_http_frontend(self, tmp_path, serve_context):
        from repro.serve import PoolConfig, pool_from_registry
        from repro.serve.stub import FixedServiceQA, FixedServiceVerifier

        registry = ModelRegistry(tmp_path / "registry")
        registry.save(FixedServiceQA(0.002), "qa-stub")
        registry.save(FixedServiceVerifier(0.002), "verify-stub")
        pool = pool_from_registry(
            str(tmp_path / "registry"),
            config=PoolConfig(replicas=2, engine=EngineConfig(workers=1)),
        )
        pool.start()
        server = make_server(pool, reloader=lambda: pool.reload())
        serve_in_thread(server)
        try:
            client = HttpServeClient(f"http://127.0.0.1:{server.port}")
            qa = client.qa("what is the points of bo chen ?", serve_context)
            assert qa.ok and qa.model == "qa-stub@v0001"
            verify = client.verify(
                "bo chen has a points of 28", serve_context
            )
            assert verify.ok and verify.model == "verify-stub@v0001"
            metrics = client.metrics()
            assert metrics["completed"] == 2
            assert metrics["reconciles"]
            assert len(metrics["replicas"]) == 2
            # reload over the wire rolls the replicas
            registry.save(FixedServiceQA(0.001), "qa-stub")
            summary = client.reload()
            assert summary["reload"]["new"]["qa"] == "qa-stub@v0002"
            after = client.qa(
                "what is the team of raj patel ?", serve_context
            )
            assert after.model == "qa-stub@v0002"
        finally:
            server.shutdown()
            server.server_close()
            pool.stop(drain=True)


class TestOpenLoopLoadgen:
    def test_open_loop_reports_offered_rate(self, served, serve_context):
        from repro.serve import run_load_open

        client = ServeClient(served.engine)
        workload = build_workload([serve_context], 40, seed=11)
        report = run_load_open(client, workload, rate=200.0, clients=8)
        assert report.mode == "open"
        assert report.offered_rps == 200.0
        assert report.completed + report.rejected + report.errors == 40
        assert report.errors == 0
        payload = report.to_json()
        assert payload["mode"] == "open"
        assert payload["offered_rps"] == 200.0
        # the schedule paces the run: 40 requests at 200/s ≥ 0.2s
        assert report.duration_s >= 0.19

    def test_open_loop_counts_stall_as_latency(self, serve_context):
        """Coordinated omission: a server stall must surface in the
        tail, not silently stretch the arrival schedule."""
        from repro.serve import run_load_open
        from repro.serve.stub import FixedServiceVerifier

        slow = FixedServiceVerifier(0.05)  # 50ms/request, single file
        engine = InferenceEngine(
            {TASK_VERIFY: slow},
            EngineConfig(workers=1, max_batch_size=1, cache_size=0),
        )
        engine.start()
        try:
            client = ServeClient(engine)
            workload = build_workload(
                [serve_context], 20, tasks=(TASK_VERIFY,), seed=3
            )
            # offered 100/s against ~20/s capacity: queueing must show
            report = run_load_open(client, workload, rate=100.0, clients=20)
            assert report.completed == 20
            tail = report.latency["overall"]
            # the last arrival waited ~19 service times; p99 sees it
            assert tail["p99_ms"] > 300.0
            assert tail["p99_ms"] > tail["p50_ms"]
        finally:
            engine.stop(drain=True)

    def test_bad_rate_and_clients_are_typed(self, served, serve_context):
        from repro.errors import ServeError
        from repro.serve import run_load_open

        client = ServeClient(served.engine)
        workload = build_workload([serve_context], 4, seed=1)
        with pytest.raises(ServeError):
            run_load_open(client, workload, rate=0.0)
        with pytest.raises(ServeError):
            run_load_open(client, workload, rate=10.0, clients=0)


class TestDeadlinesOverHttp:
    def test_impossible_deadline_is_504(self, served, serve_context):
        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        # warm the engine so its p50 compute estimate is non-zero —
        # then a microsecond budget is rejected deterministically
        # whichever side of zero the header-to-dispatch shrink lands.
        assert client.qa(
            "what is the points of bo chen ?", serve_context
        ).ok
        with pytest.raises(DeadlineExceededError):
            client.qa(
                "what is the team of raj patel ?", serve_context,
                deadline_s=1e-6,
            )
        metrics = client.metrics()
        assert metrics["deadline_rejected"] >= 1
        assert metrics["reconciles"]

    def test_deadline_header_wins_over_body(self, served, serve_context):
        # body says plenty of time, header says none: header rules.
        request = urllib.request.Request(
            f"http://127.0.0.1:{served.port}/v1/qa",
            data=json.dumps({
                "question": "what is the points of bo chen ?",
                "context": serve_context.to_json(),
                "deadline_ms": 60_000,
            }).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "X-Repro-Deadline-Ms": "0.001",
            },
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30.0)
        assert caught.value.code == 504
        body = json.loads(caught.value.read().decode("utf-8"))
        assert body["error"]["type"] == "deadline"
        assert "remaining_ms" in body["error"]

    def test_malformed_deadline_header_is_400(self, served, serve_context):
        for bad in ("nope", "-3", "0"):
            request = urllib.request.Request(
                f"http://127.0.0.1:{served.port}/v1/qa",
                data=json.dumps({
                    "question": "q ?",
                    "context": serve_context.to_json(),
                }).encode("utf-8"),
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Deadline-Ms": bad,
                },
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30.0)
            assert caught.value.code == 400, bad

    def test_loadgen_classifies_deadline_failures(
        self, served, serve_context
    ):
        from repro.serve import run_load

        client = HttpServeClient(f"http://127.0.0.1:{served.port}")
        assert client.qa(
            "what is the points of bo chen ?", serve_context
        ).ok  # warm, so the estimate gate is live
        workload = build_workload([serve_context], 8, seed=5)

        class TinyDeadlineClient:
            def qa(self, sentence, context, **kwargs):
                return client.qa(sentence, context, deadline_s=1e-6)

            def verify(self, sentence, context, **kwargs):
                return client.verify(sentence, context, deadline_s=1e-6)

        report = run_load(TinyDeadlineClient(), workload, clients=2)
        assert report.completed == 0
        assert report.failures["deadline"] == 8
        assert report.errors == 8  # deadline is a non-429 failure
        payload = report.to_json()
        assert payload["failures"]["deadline"] == 8
        assert payload["failures"]["overloaded"] == 0


class TestPoolHealthz:
    def test_healthz_reports_replica_states(self, tmp_path, serve_context):
        from repro.serve import PoolConfig, pool_from_registry
        from repro.serve.stub import FixedServiceQA, FixedServiceVerifier

        registry = ModelRegistry(tmp_path / "registry")
        registry.save(FixedServiceQA(0.002), "qa-stub")
        registry.save(FixedServiceVerifier(0.002), "verify-stub")
        pool = pool_from_registry(
            str(tmp_path / "registry"),
            config=PoolConfig(replicas=2, engine=EngineConfig(workers=1)),
        )
        pool.start()
        server = make_server(pool)
        serve_in_thread(server)
        try:
            client = HttpServeClient(f"http://127.0.0.1:{server.port}")
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["routable_replicas"] == 2
            states = {e["slot"]: e["state"] for e in health["replicas"]}
            assert states == {0: "ready", 1: "ready"}
        finally:
            server.shutdown()
            server.server_close()
            pool.stop(drain=True)


class TestKeepAliveLatency:
    def test_accepted_socket_has_tcp_nodelay(self, served):
        import socket

        seen = []

        class Probe(served.RequestHandlerClass):
            def setup(self):
                super().setup()
                seen.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ))

        served.RequestHandlerClass = Probe
        with urllib.request.urlopen(
            f"http://127.0.0.1:{served.port}/healthz", timeout=30.0
        ) as reply:
            reply.read()
        assert len(seen) == 1 and seen[0] != 0

    def test_back_to_back_requests_do_not_stall(self, served, serve_context):
        # With Nagle's algorithm on, the body write of each response
        # waits for the client's delayed ACK of the header write: a
        # round trip of 40+ ms however fast the model is.
        import http.client
        import statistics

        body = json.dumps({
            "claim": "bo chen has a points of 28",
            "context": serve_context.to_json(),
        }).encode("utf-8")
        connection = http.client.HTTPConnection(
            "127.0.0.1", served.port, timeout=30.0
        )
        round_trips = []
        try:
            for _ in range(20):
                started = time.monotonic()
                connection.request(
                    "POST", "/v1/verify", body,
                    {"Content-Type": "application/json"},
                )
                reply = connection.getresponse()
                payload = json.loads(reply.read())
                round_trips.append(time.monotonic() - started)
                assert reply.status == 200 and payload["ok"]
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.020, round_trips

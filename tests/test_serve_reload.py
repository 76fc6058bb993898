"""Reload-under-load: a real ``repro serve`` process, sustained HTTP
traffic, and a zero-downtime reload in the middle.

One scenario, run over both transports (the in-process slot and two
replica processes).  The contract under test: while a rolling reload
replaces every replica, a client hammering the server sees **zero
failed (non-429) requests**, responses flip atomically
from the old ``model`` id to the new one (no third value, no
interleaved garbage), and ``/metrics`` still reconciles afterwards.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import HttpServeClient, ModelRegistry, TASK_QA
from repro.serve.stub import FixedServiceQA, FixedServiceVerifier

pytestmark = pytest.mark.timeout(600)


@pytest.fixture
def stub_registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.save(FixedServiceQA(0.002), "qa-stub")
    registry.save(FixedServiceVerifier(0.002), "verify-stub")
    return tmp_path / "registry"


def _spawn_server(registry_dir, *extra):
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
    deadline = time.monotonic() + 120
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


def _reload_under_load(registry_dir, serve_context, *serve_args):
    """Shared body: hammer, reload mid-stream, assert the contract."""
    process, port = _spawn_server(registry_dir, *serve_args)
    try:
        client = HttpServeClient(f"http://127.0.0.1:{port}")
        failures: list[str] = []
        rejected = [0]
        transitions: list[str] = []  # model id per completed request
        stop = threading.Event()
        lock = threading.Lock()

        def hammer(offset: int) -> None:
            from repro.errors import OverloadedError

            i = 0
            while not stop.is_set():
                try:
                    response = client.qa(
                        f"load question {offset} {i} ?", serve_context
                    )
                except OverloadedError:
                    with lock:
                        rejected[0] += 1
                    continue
                except Exception as error:  # transport failure = dropped
                    with lock:
                        failures.append(f"{type(error).__name__}: {error}")
                    continue
                finally:
                    i += 1
                with lock:
                    if not response.ok:
                        failures.append(response.error or "not ok")
                    else:
                        transitions.append(response.model)

        threads = [
            threading.Thread(target=hammer, args=(k,), daemon=True)
            for k in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)  # sustained traffic before the reload…
        ModelRegistry(registry_dir).save(FixedServiceQA(0.001), "qa-stub")
        summary = client.reload(timeout=120.0)
        assert summary["ok"] is True
        # reload() returns only after every old replica drained; give
        # client threads a beat to append their last old-model results,
        # then everything recorded beyond this point must be new-model.
        time.sleep(0.25)
        with lock:
            settle_index = len(transitions)
        time.sleep(0.5)  # …sustained traffic after the flip too
        stop.set()
        for thread in threads:
            thread.join(timeout=60)

        assert failures == [], failures[:5]
        models_seen = set(transitions)
        assert models_seen == {"qa-stub@v0001", "qa-stub@v0002"}
        # the flip is complete: past the settle point, old never recurs
        post_flip = transitions[settle_index:]
        assert post_flip, "no traffic recorded after the reload"
        assert set(post_flip) == {"qa-stub@v0002"}
        metrics = client.metrics()
        assert metrics["reloads"] == 1
        assert metrics["models"][TASK_QA] == "qa-stub@v0002"
        assert metrics["reconciles"]
        assert metrics["completed"] == len(transitions)
        assert metrics["rejected"] == rejected[0]
    finally:
        process.kill()
        process.communicate(timeout=60)
    return transitions


class TestReloadUnderLoad:
    @pytest.mark.parametrize("serve_args", [
        pytest.param(("--replicas", "2", "--workers", "1"), id="replicas"),
        pytest.param((), id="in_process"),
    ])
    def test_reload_drops_nothing(
        self, stub_registry, serve_context, serve_args
    ):
        transitions = _reload_under_load(
            stub_registry, serve_context, *serve_args
        )
        assert len(transitions) >= 20  # the load was actually sustained

"""Online inference: model registry, micro-batching engine, HTTP frontend.

The serving arc of the reproduction — the paper trains TAGOP-style QA
models and FEVEROUS-style verifiers on synthetic data *so they can
answer questions and verify claims over unseen tables*; this package is
the path from a trained model to answers over the wire:

* :mod:`repro.serve.registry` — versioned on-disk artifacts with
  integrity manifests (``save_model`` / ``load_model``).
* :mod:`repro.serve.engine` — one replica's core: admission control,
  micro-batching, per-worker model replicas, response cache,
  drain-then-stop shutdown.
* :mod:`repro.serve.pool` — the serving backend: one in-process slot or
  N pre-fork replica processes (shared nothing) behind deterministic
  routing, with zero-downtime rolling reload, health and accounting.
* :mod:`repro.serve.http` — ``POST /v1/qa``, ``POST /v1/verify``,
  ``POST /v1/ask`` (retrieval-backed QA over a :mod:`repro.store`),
  ``GET /healthz``, ``GET /metrics``, ``POST /v1/admin/reload``;
  in-process and HTTP clients over a pool.
* :mod:`repro.serve.loadgen` — deterministic closed-loop *and*
  open-loop (fixed-rate, coordinated-omission-free) load generation
  for benchmarks and smoke tests.
* :mod:`repro.serve.stats` — the shared nearest-rank percentile
  definition every latency window reports.
* :mod:`repro.serve.chaos` — deterministic serving fault injection
  (slow/hang/crash/corrupt replicas, torn registry reads) carried to
  replica children through the environment.
* :mod:`repro.serve.breaker` — per-replica circuit breakers with
  half-open probe re-admission.
* :mod:`repro.serve.hedge` — the p95-based hedged-dispatch policy.
* :mod:`repro.serve.watch` — the never-dying registry watch loop
  behind ``repro serve --watch-registry``.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.engine import (
    EngineConfig,
    InferenceEngine,
    InferenceRequest,
    InferenceResponse,
    PendingResponse,
    Timing,
    response_from_json,
)
from repro.serve.hedge import HedgePolicy
from repro.serve.http import (
    DEADLINE_HEADER,
    DEFAULT_ASK_TOP_K,
    RETRIEVAL_MISS_PREFIX,
    AskResponse,
    AskStats,
    HttpServeClient,
    ParsedRequest,
    ServeClient,
    ServeHTTPServer,
    execute_ask,
    make_server,
    parse_request_payload,
    serve_in_thread,
)
from repro.serve.loadgen import (
    FAILURE_KINDS,
    LoadReport,
    WorkItem,
    build_workload,
    run_load,
    run_load_open,
)
from repro.serve.pool import (
    PoolConfig,
    ReplicaPool,
    ReplicaSpec,
    pool_from_registry,
)
from repro.serve.registry import (
    TASK_ASK,
    TASK_QA,
    TASK_VERIFY,
    TASKS,
    LoadedModel,
    ModelRecord,
    ModelRegistry,
    load_model,
    model_task,
    save_model,
    schema_fingerprint,
)
from repro.serve.stats import nearest_rank, nearest_rank_percentiles
from repro.serve.watch import RegistryWatcher

__all__ = [
    "AskResponse",
    "AskStats",
    "CircuitBreaker",
    "DEADLINE_HEADER",
    "DEFAULT_ASK_TOP_K",
    "EngineConfig",
    "FAILURE_KINDS",
    "HedgePolicy",
    "HttpServeClient",
    "InferenceEngine",
    "InferenceRequest",
    "InferenceResponse",
    "LoadReport",
    "LoadedModel",
    "ModelRecord",
    "ModelRegistry",
    "ParsedRequest",
    "PendingResponse",
    "PoolConfig",
    "RETRIEVAL_MISS_PREFIX",
    "RegistryWatcher",
    "ReplicaPool",
    "ReplicaSpec",
    "ServeClient",
    "ServeHTTPServer",
    "TASKS",
    "TASK_ASK",
    "TASK_QA",
    "TASK_VERIFY",
    "Timing",
    "WorkItem",
    "build_workload",
    "execute_ask",
    "load_model",
    "make_server",
    "model_task",
    "nearest_rank",
    "nearest_rank_percentiles",
    "parse_request_payload",
    "pool_from_registry",
    "response_from_json",
    "run_load",
    "run_load_open",
    "save_model",
    "schema_fingerprint",
    "serve_in_thread",
]

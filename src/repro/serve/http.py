"""HTTP frontend over the serving backend, plus serve clients.

Endpoints (all JSON):

* ``POST /v1/qa``      — ``{"question": str, "context": {…}}`` →
  ``{"ok": true, "answer": […], "model": "name@v0001", "latency": {…}}``
* ``POST /v1/verify``  — ``{"claim": str, "context": {…}}`` →
  ``{"ok": true, "label": "supported" | "refuted" | "unknown", …}``
* ``POST /v1/ask``     — ``{"question": str}`` (question only, **no**
  ``context``) → the server retrieves the top-k tables from its
  attached store (``repro serve --store``), answers over the best one
  with the QA model, and echoes retrieval provenance:
  ``{"ok": true, "answer": […], "retrieval": {"hits": […], "chosen":
  …, "retrieve_ms": …}}``.  Zero hits is a 200 with ``ok: false`` and
  an error prefixed ``retrieval_miss:`` (the transport and the server
  both worked; the corpus had nothing to say).  Served 501 when the
  server was started without a store.
* ``GET /healthz``     — liveness, per-slot state, which models are loaded.
* ``GET /metrics``     — the backend's stats snapshot (throughput,
  p50/p95/p99 latency, batch sizes, cache hit rate, queue depth,
  rejects; ``accepted == completed + rejected + in_flight``).
* ``POST /v1/admin/reload`` — zero-downtime reload of the registry's
  current default model versions (501 when the server was started
  without a registry-backed reloader).

The backend is always a :class:`~repro.serve.pool.ReplicaPool` — one
in-process slot or N replica processes — so health, reload and
accounting look the same in every deployment.

``context`` is the :meth:`repro.tables.context.TableContext.to_json`
payload.  Adding ``"sanitize": true`` runs the messy-table sanitizer
(:mod:`repro.sanitize`) over the context before inference — ragged rows,
duplicate/empty headers and scalar cells are repaired at the payload
level, the typed table is then cleaned best-effort, and the per-table
``SanitizeReport`` is echoed back under ``"sanitize"`` in the response
(aggregates appear in ``/metrics`` under ``sanitize``).  Without the
flag, validation is strict: every defect is a 400 whose error object
names the offending field (``error.field``).

Status mapping: 400 malformed request, 404 unknown route,
429 + ``Retry-After`` on admission-queue overload, 503 while draining
(or when *no* replica slot is routable), 504 when the
end-to-end deadline budget was rejected up front (``error.type:
"deadline"``), 200 otherwise (a request that failed mid-compute — e.g.
a deadline that expired *after* admission — is a 200 with ``ok: false``
and an ``error`` string: the *transport* worked).

Deadlines: clients send their end-to-end budget either as the
``X-Repro-Deadline-Ms`` header (preferred — the clock starts before
body parsing) or the ``deadline_ms`` body field.  The frontend shrinks
the budget by its own parse/validate time and passes what remains to
the backend, whose admission gate rejects work that can no longer
finish in time.

Two clients share one interface for tests and the load generator:
:class:`ServeClient` calls a backend in-process (no sockets), and
:class:`HttpServeClient` speaks real HTTP via :mod:`urllib`.  Both can
retry overload rejections with the runtime's
:class:`~repro.runtime.retry.RetryPolicy` semantics.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import (
    DeadlineExceededError,
    EngineStoppedError,
    OverloadedError,
    ReproError,
    ServeError,
)
from repro.runtime.retry import RetryPolicy
from repro.sanitize import sanitize_context, sanitize_table_payload
from repro.serve.engine import InferenceResponse, response_from_json
from repro.serve.registry import TASK_ASK, TASK_QA, TASK_VERIFY
from repro.serve.stats import nearest_rank_percentiles
from repro.tables.context import TableContext
from repro.tables.serialize import linearize_table

#: request bodies beyond this are refused (protects the JSON parser).
MAX_BODY_BYTES = 16 << 20

_TASK_ROUTES = {
    "/v1/qa": TASK_QA,
    "/v1/verify": TASK_VERIFY,
    "/v1/ask": TASK_ASK,
}
_SENTENCE_FIELD = {
    TASK_QA: "question",
    TASK_VERIFY: "claim",
    TASK_ASK: "question",
}

#: ``top_k`` bounds for /v1/ask (a request cannot demand the corpus).
MAX_TOP_K = 100

#: request header carrying the end-to-end deadline budget in
#: milliseconds; equivalent to the ``deadline_ms`` body field (the
#: header wins when both are present).  The budget starts shrinking the
#: moment the request line is read: parse/validate time in the frontend
#: comes out of it before the backend ever sees the request.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"


class _BadRequest(ServeError):
    """Maps to HTTP 400; ``field`` names the offending payload path."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


def _validate_context_payload(payload: dict[str, Any]) -> None:
    """Field-level validation of a ``context`` payload.

    ``TableContext.from_json`` is strict but its failures surface as
    deep ``SchemaError``/``KeyError``s with no payload coordinates.
    This pass walks the JSON first so a ragged row or a duplicate
    header comes back as a 400 naming the exact field, never a 500.
    """
    table = payload.get("table")
    if not isinstance(table, dict):
        raise _BadRequest(
            "'context.table' must be a JSON object "
            "(a Table.to_json payload)",
            field="context.table",
        )
    columns = table.get("columns")
    if not isinstance(columns, list) or not columns:
        raise _BadRequest(
            "'context.table.columns' must be a non-empty list",
            field="context.table.columns",
        )
    seen: dict[str, int] = {}
    for index, entry in enumerate(columns):
        path = f"context.table.columns[{index}]"
        if not isinstance(entry, dict):
            raise _BadRequest(f"'{path}' must be an object", field=path)
        name = entry.get("name")
        if not isinstance(name, str) or not name.strip():
            raise _BadRequest(
                f"'{path}.name' must be a non-empty string",
                field=f"{path}.name",
            )
        key = name.strip().lower()
        if key in seen:
            raise _BadRequest(
                f"duplicate column name {name!r} at '{path}' "
                f"(first used at 'context.table.columns[{seen[key]}]')",
                field=f"{path}.name",
            )
        seen[key] = index
    rows = table.get("rows", [])
    if not isinstance(rows, list):
        raise _BadRequest(
            "'context.table.rows' must be a list of rows",
            field="context.table.rows",
        )
    width = len(columns)
    for index, row in enumerate(rows):
        path = f"context.table.rows[{index}]"
        if not isinstance(row, list):
            raise _BadRequest(
                f"'{path}' must be a list of cells", field=path
            )
        if len(row) != width:
            raise _BadRequest(
                f"'{path}' has {len(row)} cells, expected {width} "
                "(ragged rows are rejected; pass \"sanitize\": true to "
                "have the server pad/truncate them)",
                field=path,
            )
        for cell_index, cell in enumerate(row):
            if not isinstance(cell, str):
                raise _BadRequest(
                    f"'{path}[{cell_index}]' must be a string cell, "
                    f"got {type(cell).__name__} (pass \"sanitize\": true "
                    "to have the server coerce scalars)",
                    field=f"{path}[{cell_index}]",
                )
    paragraphs = payload.get("paragraphs", [])
    if not isinstance(paragraphs, list):
        raise _BadRequest(
            "'context.paragraphs' must be a list",
            field="context.paragraphs",
        )
    for index, entry in enumerate(paragraphs):
        path = f"context.paragraphs[{index}]"
        if not isinstance(entry, dict) or not isinstance(
            entry.get("text"), str
        ):
            raise _BadRequest(
                f"'{path}' must be an object with a string 'text' field",
                field=path,
            )


@dataclass(frozen=True)
class ParsedRequest:
    """A validated (and optionally sanitized) inference request."""

    sentence: str
    #: ``None`` for ``/v1/ask`` — the server retrieves the context.
    context: TableContext | None
    deadline_s: float | None
    request_id: str | None
    #: ``SanitizeReport.to_json()`` when the payload asked for
    #: ``"sanitize": true``; ``None`` otherwise.
    sanitize_report: dict[str, Any] | None = None
    #: whether the payload asked for sanitization — for ``/v1/ask`` the
    #: sanitizer runs on the *retrieved* table, so the flag must travel
    #: even though no report exists at parse time.
    sanitize: bool = False
    #: ``/v1/ask`` retrieval depth; ``None`` means the server default.
    top_k: int | None = None


def parse_request_payload(task: str, payload: Any) -> ParsedRequest:
    """Validate a POST body into a :class:`ParsedRequest`.

    The one validation path for all three POST endpoints, so strict
    field-naming 400s and ``"sanitize": true`` behave identically on
    ``/v1/qa``, ``/v1/verify``, and ``/v1/ask``.

    With ``"sanitize": true`` in the payload the table JSON is first
    repaired at the payload level (ragged rows padded, duplicate/empty
    headers renamed, scalar cells coerced — damage a typed ``Table``
    cannot even represent), then validated, then run through
    :func:`repro.sanitize.sanitize_context`; the merged report rides
    along.  Without it, validation is strict and every defect is a 400
    naming the offending field.

    ``/v1/ask`` differences: ``context`` is *forbidden* (the server
    retrieves it; sending one is a 400 naming the field), ``top_k``
    bounds retrieval depth, and sanitization applies to the retrieved
    table downstream (``sanitize_report`` stays ``None`` here).
    """
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    field = _SENTENCE_FIELD[task]
    sentence = payload.get(field)
    if not isinstance(sentence, str) or not sentence.strip():
        raise _BadRequest(
            f"missing or empty {field!r} field", field=field
        )
    sanitize = payload.get("sanitize", False)
    if not isinstance(sanitize, bool):
        raise _BadRequest("'sanitize' must be a boolean", field="sanitize")
    top_k: int | None = None
    if task == TASK_ASK:
        if "context" in payload:
            raise _BadRequest(
                "'/v1/ask' retrieves its own table; remove the "
                "'context' field (use /v1/qa to answer over a "
                "supplied table)",
                field="context",
            )
        raw_top_k = payload.get("top_k")
        if raw_top_k is not None:
            if (
                not isinstance(raw_top_k, int)
                or isinstance(raw_top_k, bool)
                or not 1 <= raw_top_k <= MAX_TOP_K
            ):
                raise _BadRequest(
                    f"'top_k' must be an integer in [1, {MAX_TOP_K}]",
                    field="top_k",
                )
            top_k = raw_top_k
        context: TableContext | None = None
        sanitize_report: dict[str, Any] | None = None
    else:
        if "top_k" in payload:
            raise _BadRequest(
                "'top_k' only applies to /v1/ask", field="top_k"
            )
        context_payload = payload.get("context")
        if not isinstance(context_payload, dict):
            raise _BadRequest(
                "missing 'context' field (a TableContext.to_json payload)",
                field="context",
            )
        payload_fixes: dict[str, int] = {}
        if sanitize:
            table_payload, payload_fixes = sanitize_table_payload(
                context_payload.get("table")
            )
            context_payload = {**context_payload, "table": table_payload}
        _validate_context_payload(context_payload)
        try:
            context = TableContext.from_json(context_payload)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            # validation above should have caught everything; this is the
            # belt-and-braces guard keeping parser changes from becoming
            # 500s
            raise _BadRequest(
                f"malformed context: {error}", field="context"
            ) from error
        sanitize_report = None
        if sanitize:
            context, report = sanitize_context(context)
            report.merge_structure(payload_fixes)
            sanitize_report = report.to_json()
    deadline_ms = payload.get("deadline_ms")
    deadline_s: float | None = None
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            raise _BadRequest(
                "'deadline_ms' must be a positive number",
                field="deadline_ms",
            )
        deadline_s = float(deadline_ms) / 1e3
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise _BadRequest("'id' must be a string", field="id")
    return ParsedRequest(
        sentence=sentence,
        context=context,
        deadline_s=deadline_s,
        request_id=request_id,
        sanitize_report=sanitize_report,
        sanitize=sanitize,
        top_k=top_k,
    )


# -- /v1/ask: retrieval-backed QA --------------------------------------------

#: retrieval depth when the request does not pass ``top_k``.
DEFAULT_ASK_TOP_K = 5

#: the typed error-string prefix for an empty retrieval (the loadgen's
#: ``retrieval_miss`` failure bucket matches on it — a documented
#: contract like ``replica_failed:`` and ``deadline_exceeded:``).
RETRIEVAL_MISS_PREFIX = "retrieval_miss"


class AskStats:
    """Frontend-side accounting for ``/v1/ask`` (shown in /metrics).

    The backend owns inference accounting; retrieval happens before the
    backend ever sees the request, so its counters live here: requests,
    answered, misses, and retrieve-latency percentiles.
    """

    _WINDOW = 2048

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._answered = 0
        self._misses = 0
        self._retrieve_s: list[float] = []

    def note(self, *, hit: bool, retrieve_s: float) -> None:
        with self._lock:
            self._requests += 1
            if hit:
                self._answered += 1
            else:
                self._misses += 1
            self._retrieve_s.append(retrieve_s)
            if len(self._retrieve_s) > self._WINDOW:
                del self._retrieve_s[: -self._WINDOW]

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "requests": self._requests,
                "answered": self._answered,
                "retrieval_miss": self._misses,
                "retrieve_ms": nearest_rank_percentiles(
                    list(self._retrieve_s)
                ),
            }


def execute_ask(
    backend: Any,
    retriever: Any,
    question: str,
    *,
    k: int = DEFAULT_ASK_TOP_K,
    sanitize: bool = False,
    deadline_s: float | None = None,
    request_id: str | None = None,
    ask_stats: AskStats | None = None,
) -> dict[str, Any]:
    """Retrieve → (sanitize) → QA; returns the response payload dict.

    The shared ask pipeline behind both the HTTP handler and the
    in-process :class:`ServeClient`: search the store, answer over the
    best hit with the ``TASK_QA`` model, and echo provenance under
    ``"retrieval"``.  Retrieval time comes out of the deadline budget
    before the backend's admission gate sees what remains.  The backend's
    typed admission errors (overload, deadline, stopped) propagate to
    the caller's usual mapping.
    """
    started = time.monotonic()
    hits = retriever.search(question, k=k)
    retrieve_s = time.monotonic() - started
    if ask_stats is not None:
        ask_stats.note(hit=bool(hits), retrieve_s=retrieve_s)
    retrieval: dict[str, Any] = {
        "k": k,
        "retrieve_ms": round(retrieve_s * 1e3, 3),
        "hits": [hit.to_json() for hit in hits],
    }
    if not hits:
        return {
            "ok": False,
            "task": TASK_ASK,
            "error": (
                f"{RETRIEVAL_MISS_PREFIX}: no stored table matched "
                "the question"
            ),
            "retrieval": retrieval,
        }
    best = hits[0]
    retrieval["chosen"] = best.doc_id
    # one store read per ask: the passage (as ``Retriever.passage``
    # renders it) comes from the context the model answers over.
    context = retriever.fetch(best.doc_id)
    retrieval["passage"] = linearize_table(
        context.table, max_rows=2, style="passage"
    )
    report: dict[str, Any] | None = None
    if sanitize:
        context, report_obj = sanitize_context(context)
        report = report_obj.to_json()
    if deadline_s is not None:
        deadline_s -= time.monotonic() - started
    response = backend.infer(
        TASK_QA, question, context,
        deadline_s=deadline_s, request_id=request_id,
    )
    if report is not None:
        backend.note_sanitize(report)
    payload = response.to_json()
    payload["task"] = TASK_ASK
    payload["retrieval"] = retrieval
    if report is not None:
        payload["sanitize"] = report
    return payload


@dataclass(frozen=True)
class AskResponse:
    """The typed client-side view of a ``/v1/ask`` response."""

    ok: bool
    answer: tuple[str, ...]
    error: str | None
    model: str
    cached: bool
    retrieval: dict[str, Any]
    sanitize: dict[str, Any] | None = None
    latency: dict[str, Any] | None = None

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "AskResponse":
        return AskResponse(
            ok=bool(payload.get("ok")),
            answer=tuple(payload.get("answer") or ()),
            error=(
                payload["error"]
                if isinstance(payload.get("error"), str)
                else None
            ),
            model=payload.get("model", ""),
            cached=bool(payload.get("cached")),
            retrieval=payload.get("retrieval") or {},
            sanitize=payload.get("sanitize"),
            latency=payload.get("latency"),
        )


class ServeRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the backend owned by the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # TCP_NODELAY on every accepted socket.  A response goes out in two
    # writes (headers, then body); with Nagle's algorithm on, the body
    # waits for the client's delayed ACK of the headers, which stalls
    # every back-to-back request on a keep-alive connection by 40+ ms.
    disable_nagle_algorithm = True

    @property
    def backend(self) -> Any:
        return self.server.backend  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing -----------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        error_type: str,
        message: str,
        headers: dict[str, str] | None = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        payload: dict[str, Any] = {
            "ok": False,
            "error": {"type": error_type, "message": message},
        }
        if extra:
            payload["error"].update(extra)
        self._send_json(status, payload, headers)

    # -- GET ----------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            # one slot respawning or breaker-open is degraded, not dead:
            # the service is down only when no slot can take traffic.
            payload = self.backend.health()
            retriever = getattr(self.server, "retriever", None)
            if retriever is not None:
                payload["store"] = {"docs": retriever.doc_count}
            healthy = payload["status"] in ("ok", "degraded")
            self._send_json(200 if healthy else 503, payload)
            return
        if self.path == "/metrics":
            stats = self.backend.stats()
            ask_stats = getattr(self.server, "ask_stats", None)
            if ask_stats is not None:
                stats["ask"] = ask_stats.snapshot()
            self._send_json(200, stats)
            return
        self._send_error_json(404, "not_found", f"no route {self.path!r}")

    # -- POST ---------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/v1/admin/reload":
            self._handle_reload()
            return
        task = _TASK_ROUTES.get(self.path)
        if task is None:
            self._send_error_json(404, "not_found", f"no route {self.path!r}")
            return
        received = time.monotonic()
        header_deadline_s: float | None = None
        raw_deadline = self.headers.get(DEADLINE_HEADER)
        if raw_deadline is not None:
            try:
                header_deadline_ms = float(raw_deadline)
            except ValueError:
                header_deadline_ms = -1.0
            if header_deadline_ms <= 0:
                self._send_error_json(
                    400, "bad_request",
                    f"'{DEADLINE_HEADER}' must be a positive number of "
                    f"milliseconds, got {raw_deadline!r}",
                )
                return
            header_deadline_s = header_deadline_ms / 1e3
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            self._send_error_json(400, "bad_request", "bad Content-Length")
            return
        if length <= 0:
            self._send_error_json(400, "bad_request", "empty request body")
            return
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, "payload_too_large",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
            )
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
            parsed = parse_request_payload(task, payload)
        except json.JSONDecodeError as error:
            self._send_error_json(400, "bad_request", f"invalid JSON: {error}")
            return
        except _BadRequest as error:
            self._send_error_json(
                400, "bad_request", str(error),
                extra={"field": error.field} if error.field else None,
            )
            return
        deadline_s = (
            header_deadline_s
            if header_deadline_s is not None
            else parsed.deadline_s
        )
        if deadline_s is not None:
            # shrink the budget by frontend time already spent; the
            # backend's admission gate receives what *remains*, and a
            # budget that died in parsing is its typed rejection to
            # make (so it is counted, not silently dropped here).
            deadline_s -= time.monotonic() - received
        try:
            if task == TASK_ASK:
                retriever = getattr(self.server, "retriever", None)
                if retriever is None:
                    self._send_error_json(
                        501, "not_implemented",
                        "this server has no table store (start with "
                        "--store to enable /v1/ask)",
                    )
                    return
                ask_payload = execute_ask(
                    self.backend, retriever, parsed.sentence,
                    k=parsed.top_k or DEFAULT_ASK_TOP_K,
                    sanitize=parsed.sanitize,
                    deadline_s=deadline_s,
                    request_id=parsed.request_id,
                    ask_stats=getattr(self.server, "ask_stats", None),
                )
                self._send_json(200, ask_payload)
                return
            response = self.backend.infer(
                task, parsed.sentence, parsed.context,
                deadline_s=deadline_s, request_id=parsed.request_id,
            )
        except OverloadedError as error:
            self._send_error_json(
                429, "overloaded", str(error),
                headers={
                    "Retry-After": str(max(1, math.ceil(error.retry_after)))
                },
                extra={"retry_after_ms": round(error.retry_after * 1e3, 1)},
            )
            return
        except DeadlineExceededError as error:
            self._send_error_json(
                504, "deadline", str(error),
                extra={
                    "remaining_ms": round(error.remaining_s * 1e3, 1),
                    "estimate_ms": (
                        round(error.estimate_s * 1e3, 1)
                        if error.estimate_s is not None else None
                    ),
                },
            )
            return
        except EngineStoppedError as error:
            self._send_error_json(503, "stopping", str(error))
            return
        except ServeError as error:
            self._send_error_json(400, "bad_request", str(error))
            return
        if parsed.sanitize_report is not None:
            # counted only for requests that actually reached the model
            # (a 429/503 did no sanitizer-visible work either way).
            self.backend.note_sanitize(parsed.sanitize_report)
            response = _dc_replace(
                response, sanitize=parsed.sanitize_report
            )
        self._send_json(200, response.to_json())

    def _handle_reload(self) -> None:
        """``POST /v1/admin/reload`` — swap in the registry's defaults.

        Delegates to the server's ``reloader`` callback (wired by the
        CLI to the pool's rolling :meth:`~repro.serve.pool.ReplicaPool.reload`).
        Servers constructed without one answer 501: they have no
        registry to reload from.
        """
        reloader = getattr(self.server, "reloader", None)
        if reloader is None:
            self._send_error_json(
                501, "not_implemented",
                "this server has no reloader (started without a "
                "registry to reload from)",
            )
            return
        # the body is accepted-and-ignored for forward compatibility;
        # drain it so HTTP/1.1 keep-alive framing stays intact.
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except (TypeError, ValueError):
            length = 0
        if length > 0:
            self.rfile.read(min(length, MAX_BODY_BYTES))
        try:
            summary = reloader()
        except ReproError as error:
            self._send_error_json(409, "reload_failed", str(error))
            return
        except Exception as error:  # registry IO, spawn failures, …
            self._send_error_json(
                500, "reload_failed", f"{type(error).__name__}: {error}"
            )
            return
        self._send_json(200, {"ok": True, "reload": summary})


class ServeHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one serving backend."""

    daemon_threads = True
    allow_reuse_address = True
    # Overload must surface as the engine's typed 429, not as kernel-level
    # connection resets: the stdlib default backlog of 5 overflows under a
    # modest burst of reconnecting clients, long before admission control
    # gets to rule on anything.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        backend: Any,
        reloader: Any = None,
        retriever: Any = None,
    ):
        super().__init__(address, ServeRequestHandler)
        self.backend = backend
        self.verbose = False
        #: zero-arg callable performing a model reload and returning a
        #: JSON-compatible summary; ``None`` disables /v1/admin/reload.
        self.reloader = reloader
        #: :class:`repro.store.Retriever` backing ``/v1/ask``; ``None``
        #: turns the route into a 501.
        self.retriever = retriever
        self.ask_stats = AskStats() if retriever is not None else None

    @property
    def port(self) -> int:
        return self.server_address[1]


def make_server(
    backend: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    reloader: Any = None,
    retriever: Any = None,
) -> ServeHTTPServer:
    """Bind a :class:`ServeHTTPServer` (``port=0`` picks a free port).

    ``backend`` is a :class:`~repro.serve.pool.ReplicaPool` (wrap a bare
    engine with :meth:`~repro.serve.pool.ReplicaPool.hosting`).
    ``retriever`` (a :class:`repro.store.Retriever`) enables
    ``POST /v1/ask``.
    """
    return ServeHTTPServer(
        (host, port), backend, reloader=reloader, retriever=retriever
    )


def serve_in_thread(server: ServeHTTPServer) -> threading.Thread:
    """Run ``server.serve_forever`` on a daemon thread (tests, CLI)."""
    thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    return thread


# -- clients -----------------------------------------------------------------


class _BaseClient:
    """Shared retry-on-overload behavior for both client flavors."""

    def __init__(self, retry: RetryPolicy | None = None):
        self.retry = retry

    def _with_retry(self, fn):
        """Retry *only* overload rejections under the runtime's policy.

        Same semantics as :func:`repro.runtime.retry.run_with_retry`
        (attempt budget, capped exponential backoff, never sleeping
        past the deadline), specialized to :class:`OverloadedError` —
        a 429 is the one failure where the server explicitly asked the
        client to come back, and its ``retry_after`` hint floors the
        backoff pause.  Everything else propagates immediately.
        """
        if self.retry is None:
            return fn(1)
        import time as _time

        started = _time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn(attempt)
            except OverloadedError as error:
                if attempt >= self.retry.max_attempts:
                    raise
                pause = max(self.retry.delay(attempt), error.retry_after)
                if self.retry.deadline is not None:
                    remaining = self.retry.deadline - (
                        _time.monotonic() - started
                    )
                    if remaining <= 0 or pause >= remaining:
                        raise
                if pause > 0:
                    _time.sleep(pause)

    # subclasses implement _request(task, …)
    def qa(
        self,
        question: str,
        context: TableContext,
        *,
        deadline_s: float | None = None,
        sanitize: bool = False,
    ) -> InferenceResponse:
        return self._with_retry(
            lambda _attempt: self._request(
                TASK_QA, question, context, deadline_s, sanitize
            )
        )

    def verify(
        self,
        claim: str,
        context: TableContext,
        *,
        deadline_s: float | None = None,
        sanitize: bool = False,
    ) -> InferenceResponse:
        return self._with_retry(
            lambda _attempt: self._request(
                TASK_VERIFY, claim, context, deadline_s, sanitize
            )
        )

    def ask(
        self,
        question: str,
        *,
        k: int = DEFAULT_ASK_TOP_K,
        deadline_s: float | None = None,
        sanitize: bool = False,
    ) -> AskResponse:
        """``/v1/ask``: retrieve the table, then answer the question."""
        return self._with_retry(
            lambda _attempt: self._ask(question, k, deadline_s, sanitize)
        )


class ServeClient(_BaseClient):
    """In-process client: a backend without sockets (tests, loadgen).

    ``backend`` is a :class:`~repro.serve.pool.ReplicaPool`; anything
    with its ``infer`` serves requests that do not ask to sanitize.
    """

    def __init__(
        self,
        backend: Any,
        retry: RetryPolicy | None = None,
        retriever: Any = None,
    ):
        super().__init__(retry)
        self.backend = backend
        self.retriever = retriever

    def _request(
        self,
        task: str,
        sentence: str,
        context: TableContext,
        deadline_s: float | None,
        sanitize: bool = False,
    ) -> InferenceResponse:
        report = None
        if sanitize:
            # same order as the HTTP frontend: sanitize before
            # admission, so the cache is keyed on the sanitized table.
            context, report = sanitize_context(context)
        response = self.backend.infer(
            task, sentence, context, deadline_s=deadline_s
        )
        if report is not None:
            self.backend.note_sanitize(report.to_json())
            response = _dc_replace(response, sanitize=report.to_json())
        return response

    def _ask(
        self,
        question: str,
        k: int,
        deadline_s: float | None,
        sanitize: bool,
    ) -> AskResponse:
        if self.retriever is None:
            raise ServeError(
                "this client has no table store (construct with "
                "retriever=Retriever.open(...))"
            )
        payload = execute_ask(
            self.backend, self.retriever, question,
            k=k, sanitize=sanitize, deadline_s=deadline_s,
        )
        return AskResponse.from_payload(payload)

    def metrics(self) -> dict[str, Any]:
        return self.backend.stats()

    def healthz(self) -> dict[str, Any]:
        return self.backend.health()


class HttpServeClient(_BaseClient):
    """Real-HTTP client over :mod:`urllib` (loadgen, smoke tests)."""

    def __init__(
        self,
        base_url: str,
        retry: RetryPolicy | None = None,
        timeout: float = 30.0,
    ):
        super().__init__(retry)
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _get(self, path: str) -> dict[str, Any]:
        with urllib.request.urlopen(
            self.base_url + path, timeout=self.timeout
        ) as reply:
            return json.loads(reply.read().decode("utf-8"))

    def metrics(self) -> dict[str, Any]:
        return self._get("/metrics")

    def healthz(self) -> dict[str, Any]:
        try:
            return self._get("/healthz")
        except urllib.error.HTTPError as error:
            if error.code == 503:
                return json.loads(error.read().decode("utf-8"))
            raise

    def _request(
        self,
        task: str,
        sentence: str,
        context: TableContext,
        deadline_s: float | None,
        sanitize: bool = False,
    ) -> InferenceResponse:
        body: dict[str, Any] = {
            _SENTENCE_FIELD[task]: sentence,
            "context": context.to_json(),
        }
        if sanitize:
            body["sanitize"] = True
        path = "/v1/qa" if task == TASK_QA else "/v1/verify"
        return response_from_json(self._post_json(path, body, deadline_s))

    def _ask(
        self,
        question: str,
        k: int,
        deadline_s: float | None,
        sanitize: bool,
    ) -> AskResponse:
        body: dict[str, Any] = {"question": question, "top_k": k}
        if sanitize:
            body["sanitize"] = True
        return AskResponse.from_payload(
            self._post_json("/v1/ask", body, deadline_s)
        )

    def _post_json(
        self,
        path: str,
        body: dict[str, Any],
        deadline_s: float | None,
    ) -> dict[str, Any]:
        """POST with the shared typed-error mapping (429/503/504 → raises)."""
        headers = {"Content-Type": "application/json"}
        if deadline_s is not None:
            # carried in the header so the frontend can start the
            # budget clock before it has parsed a single body byte.
            headers[DEADLINE_HEADER] = str(round(deadline_s * 1e3, 3))
        data = json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers=headers,
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as reply:
                payload = json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            if error.code == 429:
                try:
                    retry_after = (
                        json.loads(detail)["error"]["retry_after_ms"] / 1e3
                    )
                except (json.JSONDecodeError, KeyError, TypeError):
                    retry_after = float(
                        error.headers.get("Retry-After", 1) or 1
                    )
                raise OverloadedError(
                    f"server overloaded: {detail}", retry_after=retry_after
                ) from error
            if error.code == 503:
                raise EngineStoppedError(f"server draining: {detail}") from error
            if error.code == 504:
                remaining = 0.0
                estimate = None
                try:
                    info = json.loads(detail)["error"]
                    remaining = (info.get("remaining_ms") or 0.0) / 1e3
                    if info.get("estimate_ms") is not None:
                        estimate = info["estimate_ms"] / 1e3
                except (json.JSONDecodeError, KeyError, TypeError):
                    pass
                raise DeadlineExceededError(
                    f"deadline exceeded: {detail}",
                    remaining_s=remaining,
                    estimate_s=estimate,
                ) from error
            raise ServeError(
                f"HTTP {error.code} from {self.base_url}: {detail}"
            ) from error
        return payload

    def reload(self, timeout: float | None = None) -> dict[str, Any]:
        """``POST /v1/admin/reload``; returns the reload summary."""
        request = urllib.request.Request(
            self.base_url + "/v1/admin/reload",
            data=b"{}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as reply:
                return json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            raise ServeError(
                f"reload failed: HTTP {error.code}: {detail}"
            ) from error



"""Start ``repro serve`` with spans around its layers.

Usage::

    python -m bench.traced_serve SPANS.jsonl serve --registry DIR …

Wraps public functions where the serving code looks them up (for
example ``repro.serve.http.sanitize_context``, not the defining
``repro.sanitize`` module), takes ``ServeRequestHandler.do_POST`` as each
request's root span, tags spans with the request's ``id`` field, then
runs ``repro.cli.main`` unchanged and writes the spans as JSONL once the
SIGTERM drain has returned.  Replica processes of ``--replicas N`` are
not traced; their queue and compute times come from each response's
``latency`` block.
"""

from __future__ import annotations

import functools
import sys

from bench.trace import Tracer, patch

#: the root span of one HTTP request.
ROOT_SPAN = "serve.http"


def install(tracer: Tracer) -> None:
    import repro.serve.http as http
    from repro.serve.engine import InferenceEngine
    from repro.serve.pool import ReplicaPool
    from repro.store import store
    from repro.store.retrieval import Retriever
    from repro.tables.context import TableContext

    def root(function):
        @functools.wraps(function)
        def wrapper(handler, *args, **kwargs):
            tracer.request_id = None
            with tracer.span(ROOT_SPAN):
                return function(handler, *args, **kwargs)
        return wrapper

    def parse(function):
        @functools.wraps(function)
        def wrapper(task, payload):
            if isinstance(payload, dict) and isinstance(payload.get("id"), str):
                tracer.request_id = payload["id"]
            with tracer.span("serve.http.parse"):
                return function(task, payload)
        return wrapper

    patch(http.ServeRequestHandler, "do_POST", root)
    patch(http, "parse_request_payload", parse)
    tracer.wrap(http, "sanitize_table_payload", "sanitize")
    tracer.wrap(http, "sanitize_context", "sanitize")
    tracer.wrap(TableContext, "from_json", "tables.from_json")
    tracer.wrap(Retriever, "search", "store.retrieval.search")
    tracer.wrap(store.TableStore, "get", "store.get")
    tracer.wrap(store.TableStore, "read_shard", "store.read_shard")
    tracer.wrap(store, "verify_manifest", "store.verify_manifest")
    tracer.wrap(InferenceEngine, "infer", "serve.backend.infer")
    tracer.wrap(ReplicaPool, "infer", "serve.backend.infer")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

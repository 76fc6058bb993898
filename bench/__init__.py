"""The repository benchmark: four workloads measured from outside the program.

``generate`` (Algorithm 1 in cold processes), ``serve_qa_verify`` and
``serve_ask`` (the real ``repro serve`` CLI over keep-alive HTTP) and
``ingest`` (table-store writes beside reads).  ``BENCHMARK.json`` at the
repository root fixes the metrics; ``python -m bench`` runs them.  See
``bench/README.md``.
"""

"""The fault-tolerant generation runtime.

UCTR synthesis runs are long, embarrassingly parallel jobs; this package
makes them survive the failures such jobs actually hit:

* :mod:`repro.runtime.retry` — :class:`RetryPolicy`: bounded attempts,
  exponential backoff with *deterministic* jitter (drawn from the run's
  RNG key, so retry schedules never perturb samples), and a per-context
  wall-clock deadline.
* :mod:`repro.runtime.quarantine` — :func:`run_context` wraps Algorithm 1
  on one context; an exhausted failure becomes a structured
  :class:`QuarantineRecord` and zero samples instead of a dead run.
* :mod:`repro.runtime.checkpoint` — append-and-fsync results plus an
  atomically replaced manifest; ``UCTR.generate(resume_from=...)``
  replays completed contexts byte-identically after any crash.
* :mod:`repro.runtime.faults` — the test-only fault-injection harness
  (raise / kill / slow / interrupt, attempt-aware, one-shot sentinels)
  that lets CI exercise every path above deterministically.

The context driver that uses all of this, in-process or on a process
pool, lives in :mod:`repro.parallel`.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointData,
    CheckpointManager,
    load_checkpoint,
    run_fingerprint,
)
from repro.runtime.quarantine import (
    ContextOutcome,
    QuarantineRecord,
    record_quarantine,
    run_context,
    traceback_digest,
)
from repro.runtime.retry import (
    RetryPolicy,
    deterministic_jitter,
    run_with_retry,
)

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointData",
    "CheckpointManager",
    "ContextOutcome",
    "QuarantineRecord",
    "RetryPolicy",
    "deterministic_jitter",
    "load_checkpoint",
    "record_quarantine",
    "run_context",
    "run_fingerprint",
    "run_with_retry",
    "traceback_digest",
]

"""Deterministic fault injection for exercising the runtime in tests.

A :class:`FaultPlan` maps context indices to faults:

``raise``
    raise :class:`FaultInjectedError` inside the context's execution —
    exercises per-context quarantine and (with ``attempts=N``) the
    retry path, since the fault only fires while ``attempt <= N``.
``kill``
    ``os._exit`` the hosting process — exercises worker-death
    detection, pool respawn, and chunk bisection.
``slow``
    sleep ``seconds`` before generating — exercises the per-context
    deadline and the parent-side kill.
``interrupt``
    raise :class:`KeyboardInterrupt` — exercises the SIGINT
    final-checkpoint path without sending a real signal.

The plan travels to worker processes through the ``REPRO_FAULTS``
environment variable (inherited by both ``fork`` and ``spawn``
children), so nothing in the production pickle path changes.  One-shot
faults use an ``once_path`` sentinel file created with ``O_EXCL``: the
first process to claim it injects, every later attempt — in any process
— passes clean.  This is test-only machinery: with the variable unset,
:func:`inject` is a dictionary miss and two attribute reads.

The serving fault plan (:mod:`repro.serve.chaos`) rides the same
machinery: :class:`EnvPlan` is the one environment-variable codec and
:func:`gate_fires` the one gating rule for both families.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ReproError

#: environment variable carrying the JSON-encoded plan to workers.
FAULTS_ENV = "REPRO_FAULTS"


class FaultInjectedError(ReproError):
    """The error raised by ``raise``-kind injected faults."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject for one context index."""

    kind: str  # "raise" | "kill" | "slow" | "interrupt"
    #: inject only while the 1-based attempt number is <= this
    #: (None = every attempt).  ``attempts=1`` makes a transient fault
    #: that a single retry clears.
    attempts: int | None = None
    #: sleep duration for ``slow`` faults.
    seconds: float = 0.0
    #: sentinel file making the fault fire at most once across processes.
    once_path: str | None = None
    #: exit status for ``kill`` faults (visible in pool diagnostics).
    exit_code: int = 66

    KINDS = ("raise", "kill", "slow", "interrupt")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "attempts": self.attempts,
            "seconds": self.seconds,
            "once_path": self.once_path,
            "exit_code": self.exit_code,
        }

    @staticmethod
    def from_json(payload: dict) -> "FaultSpec":
        return FaultSpec(
            kind=payload["kind"],
            attempts=payload.get("attempts"),
            seconds=payload.get("seconds", 0.0),
            once_path=payload.get("once_path"),
            exit_code=payload.get("exit_code", 66),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Context index → fault, JSON-serializable for the environment."""

    specs: dict[int, FaultSpec] = field(default_factory=dict)

    def for_context(self, index: int) -> FaultSpec | None:
        return self.specs.get(index)

    def to_json(self) -> dict:
        return {str(i): spec.to_json() for i, spec in self.specs.items()}

    @staticmethod
    def from_json(payload: dict) -> "FaultPlan":
        return FaultPlan(
            {int(i): FaultSpec.from_json(s) for i, s in payload.items()}
        )


class EnvPlan:
    """A JSON fault plan carried in one environment variable.

    Children inherit the variable, so installing a plan in the parent
    arms every process it later starts.  Parsing is cached on the raw
    value: injector construction and per-context checks parse once.
    """

    def __init__(self, env: str, decode: Callable[[Any], Any]):
        self.env = env
        self._decode = decode
        self._parsed: tuple[str, Any] | None = None

    def install(self, plan: Any) -> None:
        """Activate ``plan`` for this process and all future children."""
        os.environ[self.env] = json.dumps(plan.to_json(), sort_keys=True)

    def clear(self) -> None:
        """Deactivate the plan."""
        os.environ.pop(self.env, None)

    def active(self) -> Any:
        """The currently installed plan, or None."""
        raw = os.environ.get(self.env)
        if not raw:
            return None
        if self._parsed is None or self._parsed[0] != raw:
            self._parsed = (raw, self._decode(json.loads(raw)))
        return self._parsed[1]

    @contextmanager
    def injected(self, plan: Any) -> Iterator[Any]:
        """Install ``plan`` for the duration of a ``with`` block."""
        self.install(plan)
        try:
            yield plan
        finally:
            self.clear()


def claim_once(path: str) -> bool:
    """Atomically claim a one-shot sentinel; True == we fire the fault.

    ``O_EXCL`` makes the claim race-free across processes: exactly one
    claimant — in any worker, replica, or the parent — wins.
    """
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def gate_fires(
    ordinal: int,
    *,
    after: int = 0,
    every: int = 1,
    count: int | None = None,
    once_path: str | None = None,
) -> bool:
    """Whether a fault fires on the ``ordinal``-th (1-based) gated event.

    The one gating rule of every injected fault, generation and serving
    alike: skip the first ``after`` events, then fire on every
    ``every``-th, at most ``count`` times, and — with ``once_path`` —
    only in the one process that claims the sentinel.  An event is a
    context's attempt (generation) or a request (serving).
    """
    eligible = ordinal - after
    if eligible < 1 or (eligible - 1) % every:
        return False
    if count is not None and (eligible - 1) // every >= count:
        return False
    return once_path is None or claim_once(once_path)


_plan = EnvPlan(FAULTS_ENV, FaultPlan.from_json)
install = _plan.install
clear = _plan.clear
active_plan = _plan.active
injected = _plan.injected


# -- corruption faults -------------------------------------------------------
#
# Unlike the execution faults above (which fire *inside* a running
# context), corruption faults damage *files at rest* — the scenario the
# integrity layer (:mod:`repro.validate`) exists to catch.  They are
# deterministic by construction: every parameter is explicit, so a test
# that flips bit 3 of byte 17 today flips bit 3 of byte 17 forever.

CORRUPTION_KINDS = ("bit-flip", "truncate", "manifest-drop")


@dataclass(frozen=True)
class CorruptionSpec:
    """One deterministic act of file damage.

    ``bit-flip``
        XOR one bit (``bit``, 0–7) of the byte at ``offset``.
    ``truncate``
        drop everything from ``offset`` onward (``offset=-n`` keeps all
        but the last ``n`` bytes, the torn-tail shape).
    ``manifest-drop``
        unlink the file's sidecar integrity manifest, leaving the data
        untouched — the "someone cleaned up the wrong file" failure.
    """

    kind: str
    offset: int = 0
    bit: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not 0 <= self.bit <= 7:
            raise ValueError(f"bit must be 0-7, got {self.bit}")


def corrupt_file(path: str | os.PathLike, spec: CorruptionSpec) -> None:
    """Apply ``spec`` to the file at ``path`` (in place, no backup)."""
    if spec.kind == "manifest-drop":
        from repro.validate.manifest import manifest_path

        manifest_path(path).unlink(missing_ok=True)
        return
    data = bytearray(open(path, "rb").read())
    if spec.kind == "truncate":
        remaining = data[:spec.offset] if spec.offset else data[:0]
        with open(path, "wb") as handle:
            handle.write(bytes(remaining))
        return
    offset = spec.offset % len(data) if data else 0
    if not data:
        raise ValueError(f"cannot bit-flip empty file {path}")
    data[offset] ^= 1 << spec.bit
    with open(path, "wb") as handle:
        handle.write(bytes(data))


def inject(index: int, attempt: int = 1) -> None:
    """Fire the installed fault for ``index``, if any.

    Called by the runtime at the top of every context execution attempt.
    No-op unless a plan is installed and names this index.
    """
    plan = active_plan()
    if plan is None:
        return
    spec = plan.for_context(index)
    if spec is None or not gate_fires(
        attempt, count=spec.attempts, once_path=spec.once_path
    ):
        return
    if spec.kind == "slow":
        time.sleep(spec.seconds)
        return
    if spec.kind == "kill":
        os._exit(spec.exit_code)
    if spec.kind == "interrupt":
        raise KeyboardInterrupt(f"injected interrupt at context {index}")
    raise FaultInjectedError(
        f"injected fault at context {index} (attempt {attempt})"
    )

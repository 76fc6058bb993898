"""Deterministic fault injection for the serving stack.

The serving twin of :mod:`repro.runtime.faults`, on the same machinery:
a JSON :class:`ServeFaultPlan` travels to replica children through the
``REPRO_SERVE_FAULTS`` environment variable (an
:class:`~repro.runtime.faults.EnvPlan`), each child learns its own index
from ``REPRO_SERVE_REPLICA``, and every fault is gated by
:func:`~repro.runtime.faults.gate_fires` on its request ordinal.
Because every gate is explicit — replica index, request ordinal, stride,
fire budget, once-sentinel — a chaos test that hangs replica 1 on its
third request does so at any worker count, forever.

Fault kinds and where they fire:

``slow``
    add ``seconds`` of service time per gated request, injected in the
    engine's batch loop (works in both single-engine and replica mode).
``hang``
    the replica child swallows the request and never replies on the
    pipe — the fault hedging and breakers exist for.
``crash``
    the replica child ``os._exit``\\ s mid-request — exercises EOF
    detection, orphan completion, and respawn.
``corrupt``
    the replica child replies with a malformed payload — exercises the
    parent's reply hardening (typed failure, never a crash).
``registry_torn_read``
    a registry read raises :class:`repro.errors.IntegrityError`, the
    torn-read-racing-``save-model`` failure the ``--watch-registry``
    loop must survive.

With the variable unset the whole module costs one dictionary miss at
injector-construction time and nothing per request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import IntegrityError
from repro.runtime.faults import EnvPlan, gate_fires

#: environment variable carrying the JSON-encoded plan to replicas.
SERVE_FAULTS_ENV = "REPRO_SERVE_FAULTS"
#: set inside each replica child to its slot index; unset in the parent
#: and in single-engine mode (where ``replica=None`` specs match).
REPLICA_ENV = "REPRO_SERVE_REPLICA"

#: kinds handled at the replica child's pipe loop.
REPLICA_KINDS = ("hang", "crash", "corrupt")
#: kinds handled inside the engine's batch loop.
ENGINE_KINDS = ("slow",)
#: kinds handled at registry read time.
REGISTRY_KINDS = ("registry_torn_read",)

KINDS = REPLICA_KINDS + ENGINE_KINDS + REGISTRY_KINDS


@dataclass(frozen=True)
class ServeFaultSpec:
    """One serving fault plus the deterministic gate that fires it."""

    kind: str
    #: fire only in the replica with this slot index (None = any
    #: process, including single-engine mode).
    replica: int | None = None
    #: skip the first ``after`` gated requests.
    after: int = 0
    #: then fire every ``every``-th request (1 = every request).
    every: int = 1
    #: total fire budget (None = unlimited).
    count: int | None = None
    #: added service time for ``slow`` faults.
    seconds: float = 0.0
    #: sentinel file making the fault fire at most once across processes.
    once_path: str | None = None
    #: exit status for ``crash`` faults (visible in pool diagnostics).
    exit_code: int = 67

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown serve fault kind {self.kind!r}")
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "replica": self.replica,
            "after": self.after,
            "every": self.every,
            "count": self.count,
            "seconds": self.seconds,
            "once_path": self.once_path,
            "exit_code": self.exit_code,
        }

    @staticmethod
    def from_json(payload: dict) -> "ServeFaultSpec":
        return ServeFaultSpec(
            kind=payload["kind"],
            replica=payload.get("replica"),
            after=payload.get("after", 0),
            every=payload.get("every", 1),
            count=payload.get("count"),
            seconds=payload.get("seconds", 0.0),
            once_path=payload.get("once_path"),
            exit_code=payload.get("exit_code", 67),
        )


@dataclass(frozen=True)
class ServeFaultPlan:
    """An ordered list of fault specs, JSON-serializable for the env."""

    specs: tuple[ServeFaultSpec, ...] = field(default_factory=tuple)

    def to_json(self) -> list:
        return [spec.to_json() for spec in self.specs]

    @staticmethod
    def from_json(payload: list) -> "ServeFaultPlan":
        return ServeFaultPlan(
            tuple(ServeFaultSpec.from_json(s) for s in payload)
        )


_plan = EnvPlan(SERVE_FAULTS_ENV, ServeFaultPlan.from_json)
install = _plan.install
clear = _plan.clear
active_plan = _plan.active
injected = _plan.injected


def current_replica() -> int | None:
    """This process's replica slot index, or None outside a replica."""
    raw = os.environ.get(REPLICA_ENV)
    return int(raw) if raw else None


class ChaosInjector:
    """Per-process fault gate for one family of fault kinds.

    Each call site builds its own injector over the kinds it can
    handle (:func:`replica_injector`, :func:`engine_injector`), so a
    replica child's pipe loop and the engine inside it keep independent
    request counters — the gates compose without coordination.
    """

    def __init__(
        self,
        specs: list[ServeFaultSpec],
        replica: int | None,
    ) -> None:
        self._specs = [
            spec
            for spec in specs
            if spec.replica is None or spec.replica == replica
        ]
        self._seen = [0] * len(self._specs)

    def __bool__(self) -> bool:
        return bool(self._specs)

    def on_request(self) -> ServeFaultSpec | None:
        """Advance every gate by one request; return the first that fires."""
        hit: ServeFaultSpec | None = None
        for i, spec in enumerate(self._specs):
            self._seen[i] += 1
            if hit is None and gate_fires(
                self._seen[i], after=spec.after, every=spec.every,
                count=spec.count, once_path=spec.once_path,
            ):
                hit = spec
        return hit


def replica_injector() -> ChaosInjector | None:
    """Injector for a replica child's pipe loop (hang/crash/corrupt)."""
    return _injector(REPLICA_KINDS)


def engine_injector() -> ChaosInjector | None:
    """Injector for the engine batch loop (slow)."""
    return _injector(ENGINE_KINDS)


def _injector(kinds: tuple[str, ...]) -> ChaosInjector | None:
    plan = active_plan()
    if plan is None:
        return None
    specs = [spec for spec in plan.specs if spec.kind in kinds]
    if not specs:
        return None
    return ChaosInjector(specs, current_replica())


# -- registry torn reads -----------------------------------------------------

_registry_gate: tuple[str, ChaosInjector] | None = None


def maybe_torn_read(source: str) -> None:
    """Raise an injected :class:`IntegrityError` for a registry read.

    Called by :class:`repro.serve.registry.ModelRegistry` on every
    record load.  The injector is process-global (registry reads happen
    from the watch thread and request handlers alike) and rebuilt
    whenever the installed plan changes, so tests can install, clear,
    and reinstall plans freely.
    """
    global _registry_gate
    raw = os.environ.get(SERVE_FAULTS_ENV)
    if not raw:
        _registry_gate = None
        return
    if _registry_gate is None or _registry_gate[0] != raw:
        plan = active_plan()
        assert plan is not None
        specs = [s for s in plan.specs if s.kind in REGISTRY_KINDS]
        _registry_gate = (raw, ChaosInjector(specs, current_replica()))
    gate = _registry_gate[1]
    if not gate:
        return
    spec = gate.on_request()
    if spec is not None:
        raise IntegrityError(
            f"injected torn read (registry record {source})", path=source
        )

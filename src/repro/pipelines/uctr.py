"""The UCTR facade: one object, Algorithm 1 end to end.

Typical use::

    config = UCTRConfig(program_kinds=("logic",), seed=7)
    framework = UCTR(config)
    framework.fit(contexts)          # trains the NL-Generators
    samples = framework.generate(contexts, workers=4)

``fit`` builds the program↔NL parallel corpora on the *unlabeled* tables
and trains one NL-Generator per program kind — the offline equivalent of
fine-tuning BART/GPT-2 on SQUALL / Logic2Text / FinQA.  ``generate``
then runs the enabled pipelines over every context.

Determinism contract
--------------------
Each context is generated from its **own named RNG stream**,
``rng_from_key(pipeline_key, "context", str(index))``, where
``pipeline_key`` is fixed at :meth:`UCTR.fit` time and ``index`` is the
context's position in the ``generate`` call.  Contexts therefore neither
see nor perturb each other's randomness, which is what makes the output
independent of *how* the work is scheduled: ``workers=1`` and
``workers=N`` produce byte-identical sample lists for a fixed seed (the
parallel executor in :mod:`repro.parallel` merges worker results back
into context order).  Telemetry recording draws no randomness either, so
instrumented and bare runs also match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro import profiling
from repro.nlgen.corpus import build_parallel_corpus
from repro.nlgen.model import NLGenerator, NLGeneratorConfig
from repro.pipelines.base import PipelineTools
from repro.pipelines.expansion import ExpansionPipeline
from repro.pipelines.samples import ReasoningSample
from repro.pipelines.splitting import SplittingPipeline
from repro.pipelines.table_only import TableOnlyPipeline
from repro.programs.base import ProgramKind
from repro.rng import make_rng, rng_from_key, spawn, spawn_key
from repro.tables.context import TableContext
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.retry import RetryPolicy


@dataclass(frozen=True)
class UCTRConfig:
    """Configuration of the unified framework.

    ``program_kinds`` selects the DSLs (the paper picks per benchmark:
    logic for FEVEROUS/SEM-TAB-FACTS, SQL for WikiSQL, SQL+arith for
    TAT-QA).  ``use_table_to_text`` / ``use_text_to_table`` toggle the
    joint-evidence operators (both off == the "w/o T2T" ablation).
    """

    program_kinds: tuple[str, ...] = ("logic",)
    use_table_to_text: bool = True
    use_text_to_table: bool = True
    samples_per_context: int = 4
    #: fraction of the per-context budget routed to joint pipelines.
    joint_fraction: float = 0.4
    nl_noise_rate: float = 0.05
    corpus_pairs_per_table: int = 4
    #: corruption profile from :mod:`repro.messy` applied to each context
    #: before generation (None == clean).  Part of the config, so it is
    #: baked into checkpoint fingerprints: a perturbed run can never be
    #: resumed from (or spliced into) a clean run's checkpoint.
    perturb: str | None = None
    seed: int = 0

    def kinds(self) -> tuple[ProgramKind, ...]:
        return tuple(ProgramKind(kind) for kind in self.program_kinds)


@dataclass(frozen=True)
class GenerationState:
    """Everything Algorithm 1 needs for one context, picklable.

    This is the unit :mod:`repro.parallel` ships to worker processes:
    the config, the *fitted* NL-Generators, template overrides, and the
    ``pipeline_key`` that roots every per-context RNG stream.  It is
    deliberately free of open handles and RNG objects so one pickle per
    worker rehydrates the full engine.
    """

    config: UCTRConfig
    generators: dict[ProgramKind, NLGenerator]
    template_overrides: dict[ProgramKind, list] = field(default_factory=dict)
    pipeline_key: str = ""


def generate_for_one_context(
    state: GenerationState,
    index: int,
    context: TableContext,
    telemetry: Telemetry,
) -> list[ReasoningSample]:
    """Algorithm 1 on a single context, on its own RNG stream.

    This module-level function is what :mod:`repro.parallel` runs for
    every context, in a worker process or in this one, which is why
    serial and parallel runs agree sample-for-sample.
    """
    config = state.config
    if config.perturb is not None:
        from repro.messy import perturb_context

        # Perturbation draws from its own named stream (keyed off the
        # pipeline key and the context's position), so enabling it does
        # not shift the generation streams — and the perturbed run is as
        # schedule-independent as the clean one.
        context = perturb_context(
            context, f"{state.pipeline_key}:messy:{index}", config.perturb
        )
    tools = PipelineTools(
        rng=rng_from_key(state.pipeline_key, "context", str(index)),
        generators=dict(state.generators),
        template_overrides=dict(state.template_overrides),
        telemetry=telemetry,
    )
    kinds = config.kinds()
    table_only = TableOnlyPipeline(tools, kinds)
    splitting = (
        SplittingPipeline(tools, kinds) if config.use_table_to_text else None
    )
    expansion = (
        ExpansionPipeline(tools, kinds) if config.use_text_to_table else None
    )
    joint = [p for p in (splitting, expansion) if p is not None]
    per_context = config.samples_per_context
    joint_budget = round(per_context * config.joint_fraction) if joint else 0
    flat_budget = per_context - joint_budget

    out: list[ReasoningSample] = []
    flat_emitted = 0
    try:
        with telemetry.timer("pipeline/table_only"):
            flat = table_only.generate(context, flat_budget)
        flat_emitted += len(flat)
        out.extend(flat)
        remaining = joint_budget
        for position, pipeline in enumerate(joint):
            share = remaining // (len(joint) - position)
            with telemetry.timer(f"pipeline/{pipeline.name}"):
                produced = pipeline.generate(context, share)
            out.extend(produced)
            remaining -= share
            shortfall = share - len(produced)
            if shortfall > 0:
                # Joint generation can fail (no text, unsplittable
                # table); keep the volume up with table-only samples,
                # continuing the uid serial so backfill never collides.
                with telemetry.timer("pipeline/table_only"):
                    backfill = table_only.generate(
                        context, shortfall, start=flat_emitted
                    )
                flat_emitted += len(backfill)
                out.extend(backfill)
    finally:
        # Profile stages flush into this context's sink even on failure
        # — under retry that sink is the attempt's scratch telemetry, so
        # a failed attempt's profile is discarded with its counters.
        profiling.flush_into(telemetry)
    return out


class UCTR:
    """Unsupervised Complex Tabular Reasoning data generator."""

    def __init__(
        self,
        config: UCTRConfig | None = None,
        template_overrides: dict[ProgramKind, list] | None = None,
    ):
        self.config = config or UCTRConfig()
        self._rng = make_rng(self.config.seed)
        self._generators: dict[ProgramKind, NLGenerator] = {}
        self._pipeline_key: str | None = None
        self._template_overrides = dict(template_overrides or {})
        self._last_telemetry: Telemetry | None = None

    # -- training ---------------------------------------------------------
    def fit(self, contexts: list[TableContext]) -> "UCTR":
        """Train the NL-Generators on corpora built from these tables."""
        corpus_rng = spawn(self._rng, "nl-corpus")
        tables = [context.table for context in contexts]
        nl_config = NLGeneratorConfig(noise_rate=self.config.nl_noise_rate)
        # Corpus building executes programs too; the "fit" stage keeps
        # that time distinguishable from generation-phase executor time
        # in a profiled run ("fit/executor" vs "sampler/executor").
        with profiling.stage("fit"):
            for kind in self.config.kinds():
                pairs = build_parallel_corpus(
                    kind,
                    tables,
                    corpus_rng,
                    pairs_per_table=self.config.corpus_pairs_per_table,
                )
                self._generators[kind] = NLGenerator(nl_config).train(pairs)
        self._pipeline_key = spawn_key(self._rng, "pipelines")
        return self

    @property
    def generators(self) -> dict[ProgramKind, NLGenerator]:
        return dict(self._generators)

    @property
    def last_telemetry(self) -> Telemetry | None:
        """The telemetry sink of the most recent ``generate`` call."""
        return self._last_telemetry

    def generation_state(self) -> GenerationState:
        """The picklable engine state (requires :meth:`fit` first)."""
        return GenerationState(
            config=self.config,
            generators=dict(self._generators),
            template_overrides=dict(self._template_overrides),
            pipeline_key=self._require_fitted(),
        )

    # -- generation ---------------------------------------------------------
    def generate(
        self,
        contexts: list[TableContext],
        budget: int | None = None,
        workers: int = 1,
        telemetry: Telemetry | None = None,
        *,
        retry: "RetryPolicy | None" = None,
        checkpoint_dir: "str | Path | None" = None,
        resume_from: "str | Path | None" = None,
        checkpoint_every: int = 16,
        strict_quarantine: bool = False,
        perturb: str | None = None,
    ) -> list[ReasoningSample]:
        """Run Algorithm 1 over every context, fault-tolerantly.

        ``budget`` caps the total number of emitted samples — the first
        ``budget`` in context order; by default every context
        contributes ``samples_per_context``.  Every run goes through
        :func:`repro.parallel.generate_parallel`: ``workers`` > 1 fans
        contexts out to worker processes, ``workers=1`` runs them in
        this process, and the output is byte-identical either way for a
        fixed seed.  Pass a ``telemetry`` sink to accumulate across
        calls; otherwise a fresh one is created and exposed as
        :attr:`last_telemetry`.

        A context whose execution fails — an exception surviving the
        ``retry`` policy, a worker killed under it, a blown deadline —
        is *quarantined*: it contributes zero samples and a structured
        record in ``telemetry.events("quarantine")`` (and the run
        report), and the run continues.  ``strict_quarantine=True``
        raises :class:`~repro.errors.QuarantinedContextError` instead.

        ``perturb`` names a corruption profile from :mod:`repro.messy`
        ("light", "cells", "heavy"...) applied to each context before
        generation — the messy-table training/robustness arm.  It
        overrides ``config.perturb`` for this call and participates in
        the checkpoint fingerprint like any other config field.

        ``checkpoint_dir`` streams every completed context to disk
        (append + fsync, atomically-replaced manifest) so a crashed or
        killed run loses at most the contexts in flight; quarantines are
        filed as they happen.  ``resume_from`` replays a checkpoint:
        completed contexts are loaded byte-identically, previously
        quarantined ones stay quarantined, and only the remainder is
        generated — with a ``budget``, the same samples a fresh run
        emits, whichever contexts the checkpoint holds.  On
        ``KeyboardInterrupt`` a final partial checkpoint is written
        before the interrupt propagates.
        """
        from repro.errors import CheckpointError, QuarantinedContextError
        from repro.parallel import generate_parallel
        from repro.runtime import (
            CheckpointManager,
            ContextOutcome,
            RetryPolicy,
            load_checkpoint,
            record_quarantine,
            run_fingerprint,
        )

        state = self.generation_state()
        if perturb is not None:
            from dataclasses import replace

            state = replace(
                state, config=replace(state.config, perturb=perturb)
            )
        if state.config.perturb is not None:
            from repro.messy import profile_operators

            # Fail fast on an unknown profile name — before the
            # fingerprint is computed and before any worker forks.
            profile_operators(state.config.perturb)
        telemetry = telemetry if telemetry is not None else Telemetry()
        self._last_telemetry = telemetry
        # Flush stages recorded before this run (fit-phase corpus
        # building) into this run's sink exactly once, *before* any
        # worker processes fork — a forked worker inheriting unflushed
        # parent stats would ship a duplicate copy with its first
        # per-context flush.
        profiling.flush_into(telemetry)
        policy = retry if retry is not None else RetryPolicy()
        fingerprint = run_fingerprint(state, contexts)

        done: dict[int, list[ReasoningSample]] = {}
        loaded = None
        if resume_from is not None:
            loaded = load_checkpoint(resume_from)
            if loaded.fingerprint != fingerprint:
                raise CheckpointError(
                    "checkpoint at "
                    f"{resume_from} belongs to a different run "
                    f"({loaded.fingerprint} != {fingerprint}); refusing "
                    "to splice unrelated samples"
                )
            for index, samples in loaded.completed.items():
                if 0 <= index < len(contexts):
                    done[index] = samples
            for record in loaded.quarantined:
                record_quarantine(telemetry, record)
                if 0 <= record.index < len(contexts):
                    done[record.index] = []

        manager = None
        on_outcome = None
        if checkpoint_dir is not None:
            manager = CheckpointManager(
                checkpoint_dir,
                fingerprint=fingerprint,
                total=len(contexts),
                every=checkpoint_every,
            )
            same_dir = resume_from is not None and Path(
                resume_from
            ).resolve() == Path(checkpoint_dir).resolve()
            manager.open(seed_from=loaded if same_dir else None)
            if loaded is not None and not same_dir:
                for index, samples in loaded.completed.items():
                    manager.record(index, samples)
                for record in loaded.quarantined:
                    manager.quarantine(record)

            def on_outcome(outcome: ContextOutcome) -> None:
                if outcome.ok:
                    manager.record(outcome.index, outcome.samples)
                else:
                    manager.quarantine(outcome.quarantine)

        try:
            with telemetry.timer("generate"):
                results = generate_parallel(
                    state, contexts, workers, telemetry,
                    policy=policy, on_outcome=on_outcome, done=done,
                    budget=budget,
                )
        except KeyboardInterrupt:
            if manager is not None:
                manager.finalize(
                    telemetry=telemetry.snapshot(), partial=True
                )
            raise
        if manager is not None:
            manager.finalize(telemetry=telemetry.snapshot(), partial=False)
        out = [sample for produced in results for sample in produced]
        if budget is not None:
            out = out[:budget]
        for sample in out:
            telemetry.emitted(sample.provenance.get("pipeline", "unknown"))
        if strict_quarantine:
            records = telemetry.events("quarantine")
            if records:
                first = records[0]
                raise QuarantinedContextError(
                    index=first.get("index", -1),
                    uid=first.get("uid", ""),
                    reason=first.get("reason", "exception"),
                    detail=first.get("detail", ""),
                )
        return out

    def generate_for_context(
        self,
        context: TableContext,
        budget: int | None = None,
        *,
        context_index: int = 0,
        telemetry: Telemetry | None = None,
    ) -> list[ReasoningSample]:
        """Algorithm 1 on a single context.

        ``context_index`` names the RNG stream: passing the context's
        position in a batch reproduces exactly the samples that
        ``generate`` would emit for it (this is what the parallel
        workers rely on).
        """
        state = self.generation_state()
        telemetry = telemetry if telemetry is not None else Telemetry()
        self._last_telemetry = telemetry
        out = generate_for_one_context(state, context_index, context, telemetry)
        if budget is not None:
            out = out[:budget]
        for sample in out:
            telemetry.emitted(sample.provenance.get("pipeline", "unknown"))
        return out

    def _require_fitted(self) -> str:
        if self._pipeline_key is None:
            raise RuntimeError("call fit() before generate()")
        return self._pipeline_key

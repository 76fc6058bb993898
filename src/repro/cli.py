"""Command-line interface: ``python -m repro.cli <command>`` (or the
``repro`` console script).

Commands:

* ``make-dataset`` — synthesize one of the four benchmarks and write its
  contexts and gold samples to a directory.
* ``generate`` — run the UCTR pipeline over a JSONL file of contexts and
  write the synthetic samples; ``--workers N`` fans contexts out to
  worker processes, ``--report r.json`` writes the telemetry run-report,
  ``--checkpoint-dir d/ [--resume]`` makes the run crash-safe and
  resumable, ``--max-attempts``/``--per-context-timeout`` tune the
  fault-tolerance policy, ``--profile`` prints a hot-path stage-time
  breakdown (and adds it to the report).
* ``stats`` — print Table II-style statistics for a benchmark.
* ``validate`` — audit a persisted samples corpus: verify its integrity
  manifest, load with graceful degradation (``--on-error``), and run the
  semantic re-execution gate; exits 0 only when the corpus is clean.
* ``save-model`` — train a QA model or fact verifier on a samples
  corpus and register the artifact (pickle + integrity manifest) in a
  model registry directory.
* ``models`` — inspect a registry (``repro models list --registry DIR``).
* ``serve`` — serve registered models over HTTP: ``POST /v1/qa``,
  ``POST /v1/verify``, ``GET /healthz``, ``GET /metrics``,
  ``POST /v1/admin/reload``; micro-batched, admission-controlled,
  drains in-flight work on SIGTERM/SIGINT.  ``--replicas N`` scales out
  to N pre-fork replica processes; ``--watch-registry S`` hot-reloads
  (zero downtime) when the registry's default version moves.
* ``experiments`` — alias of :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import UCTR, UCTRConfig
from repro.datasets import (
    benchmark_statistics,
    make_feverous,
    make_semtabfacts,
    make_tatqa,
    make_wikisql,
)
from repro.io import load_contexts, load_samples, save_contexts, save_samples
from repro.tables.context import TableContext
from repro.telemetry import (
    Telemetry,
    build_report,
    render_summary,
    write_report,
)

_BENCHMARKS = {
    "feverous": make_feverous,
    "tatqa": make_tatqa,
    "wikisql": make_wikisql,
    "semtabfacts": make_semtabfacts,
}

#: program kinds the paper prescribes per benchmark (Section V):
#: logical forms for the fact-verification benchmarks, SQL for WikiSQL,
#: SQL + arithmetic for TAT-QA.
_DEFAULT_KINDS = {
    "feverous": ("logic",),
    "semtabfacts": ("logic",),
    "wikisql": ("sql",),
    "tatqa": ("sql", "arith"),
}

_FALLBACK_KINDS = ("logic",)


def _cmd_make_dataset(args: argparse.Namespace) -> int:
    benchmark = _BENCHMARKS[args.benchmark]()
    out = Path(args.out)
    for split_name, split in benchmark.splits.items():
        # Stamp the benchmark name so `generate` can pick the paper's
        # program kinds for these contexts without being told.
        contexts = [
            replace(ctx, meta={**ctx.meta, "benchmark": args.benchmark})
            for ctx in split.contexts
        ]
        stamp = {"benchmark": args.benchmark, "split": split_name}
        n_ctx = save_contexts(
            out / f"{split_name}.contexts.jsonl", contexts, generator=stamp
        )
        n_gold = save_samples(
            out / f"{split_name}.gold.jsonl", split.gold, generator=stamp
        )
        print(f"{split_name}: {n_ctx} contexts, {n_gold} gold samples")
    return 0


def resolve_kinds(
    kinds_arg: str | None,
    benchmark_arg: str | None,
    contexts: list[TableContext],
) -> tuple[str, ...]:
    """Program kinds for a generate run.

    Explicit ``--kinds`` always wins; then ``--benchmark``; then a
    benchmark name detected from the contexts' ``meta`` (stamped by
    ``make-dataset``); finally the logic-only fallback.
    """
    if kinds_arg:
        return tuple(part.strip() for part in kinds_arg.split(",") if part.strip())
    benchmark = benchmark_arg
    if benchmark is None:
        stamped = {ctx.meta.get("benchmark") for ctx in contexts}
        stamped.discard(None)
        if len(stamped) == 1:
            benchmark = stamped.pop()
    return _DEFAULT_KINDS.get(benchmark, _FALLBACK_KINDS)


def _write_generate_report(
    args: argparse.Namespace,
    framework: UCTR,
    n_contexts: int,
    written: int | None,
    *,
    partial: bool = False,
) -> None:
    if not args.report:
        return
    report = build_report(
        framework.last_telemetry,
        seed=args.seed,
        workers=args.workers,
        contexts=n_contexts,
        samples_written=written,
        extra={"partial": True} if partial else None,
    )
    path = write_report(args.report, report)
    print(f"wrote {'partial ' if partial else ''}run report to {path}")
    print(render_summary(report))


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import profiling
    from repro.runtime import RetryPolicy

    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.profile:
        # install() also sets REPRO_PROFILE so worker processes inherit
        # the setting; their stage timers come back with the telemetry
        # snapshots and merge additively.
        profiling.install()
    contexts = load_contexts(args.contexts)
    kinds = resolve_kinds(args.kinds, args.benchmark, contexts)
    framework = UCTR(
        UCTRConfig(
            program_kinds=kinds,
            samples_per_context=args.per_context,
            perturb=args.perturb,
            seed=args.seed,
        )
    )
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        deadline=args.per_context_timeout,
    )
    started = time.perf_counter()
    framework.fit(contexts)
    try:
        samples = framework.generate(
            contexts,
            workers=args.workers,
            retry=policy,
            checkpoint_dir=args.checkpoint_dir,
            resume_from=args.checkpoint_dir if args.resume else None,
            checkpoint_every=args.checkpoint_every,
        )
    except KeyboardInterrupt:
        # UCTR.generate already landed a final partial checkpoint.
        print(
            "\ninterrupted; progress checkpointed"
            + (
                f" in {args.checkpoint_dir} — rerun with --resume "
                "to continue"
                if args.checkpoint_dir
                else " nowhere (no --checkpoint-dir given)"
            )
        )
        _write_generate_report(
            args, framework, len(contexts), None, partial=True
        )
        return 130
    elapsed = time.perf_counter() - started
    written = save_samples(
        args.out,
        samples,
        generator={
            "command": "generate",
            "seed": args.seed,
            "kinds": list(kinds),
            "per_context": args.per_context,
            "perturb": args.perturb,
            "contexts": str(args.contexts),
        },
    )
    rate = written / elapsed if elapsed > 0 else 0.0
    print(
        f"wrote {written} synthetic samples to {args.out} "
        f"(kinds={','.join(kinds)}, workers={args.workers}, "
        f"{rate:.1f} samples/sec)"
    )
    if args.profile:
        # Pick up parent-side stages (e.g. serialization) recorded after
        # the last per-context flush, then print the hot-spot table.
        profiling.flush_into(framework.last_telemetry)
        section = profiling.profile_section(
            framework.last_telemetry.snapshot()["timers"]
        )
        print(profiling.render_profile(section, top=args.profile_top))
    quarantined = framework.last_telemetry.events("quarantine")
    if quarantined:
        print(
            f"quarantined {len(quarantined)} context(s): "
            + ", ".join(
                f"#{entry['index']} ({entry.get('error') or entry['reason']})"
                for entry in quarantined
            )
        )
    _write_generate_report(args, framework, len(contexts), written)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    benchmark = _BENCHMARKS[args.benchmark]()
    stats = benchmark_statistics(benchmark)
    for key, value in stats.as_row().items():
        print(f"{key}: {value}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.errors import FileFormatError, IntegrityError
    from repro.validate import LoadResult, read_manifest, validate_samples

    integrity = "require" if args.require_manifest else "verify"
    try:
        loaded = load_samples(
            args.samples, on_error=args.on_error, integrity=integrity
        )
    except (FileFormatError, IntegrityError) as error:
        print(f"FAIL {args.samples}: {error}", file=sys.stderr)
        return 1
    if isinstance(loaded, LoadResult):
        samples, rejects = loaded.records, loaded.rejects
    else:
        samples, rejects = loaded, []
    integrity_failed = any(r.reason == "integrity" for r in rejects)
    try:
        manifest = read_manifest(args.samples)
    except IntegrityError:
        manifest = None
    if integrity_failed:
        manifest_status = "FAILED"
    elif manifest is None:
        manifest_status = "absent"
    else:
        manifest_status = (
            f"ok (sha256={manifest.data_sha256[:12]}…, "
            f"{manifest.records} records)"
        )
    print(
        f"{args.samples}: {len(samples)} sample(s) loaded, "
        f"{len(rejects)} reject(s), manifest {manifest_status}"
    )
    for reject in rejects:
        print(
            f"  reject {reject.path}:{reject.line_number} "
            f"[{reject.reason}] {reject.detail}"
        )
    telemetry = Telemetry()
    summary = validate_samples(samples, telemetry)
    print(summary.render())
    for verdict in summary.flagged:
        print(
            f"  {verdict.status}: {verdict.uid} "
            f"[{verdict.reason}] {verdict.detail}"
        )
    if args.report:
        report = build_report(
            telemetry,
            extra={
                "validated_path": str(args.samples),
                "samples_loaded": len(samples),
                "rejects": [reject.to_json() for reject in rejects],
            },
        )
        path = write_report(args.report, report)
        print(f"wrote validation report to {path}")
    clean = summary.clean and not rejects
    print("PASS" if clean else "FAIL")
    return 0 if clean else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as experiments_main

    return experiments_main(list(args.rest))


def _cmd_save_model(args: argparse.Namespace) -> int:
    from repro.errors import IntegrityError
    from repro.models.qa import QAConfig
    from repro.models.verifier import VerifierConfig
    from repro.pipelines.samples import TaskType
    from repro.serve import ModelRegistry
    from repro.train.loop import (
        TrainingPlan,
        evaluate_qa,
        evaluate_verifier,
        load_training_samples,
        train_qa,
        train_verifier,
    )
    from repro.validate import read_manifest

    samples, _ = load_training_samples(args.samples, validate=args.validate)
    wanted = (
        TaskType.QUESTION_ANSWERING
        if args.task == "qa"
        else TaskType.FACT_VERIFICATION
    )
    usable = [s for s in samples if s.task is wanted]
    if not usable:
        print(
            f"no {args.task} samples in {args.samples}; nothing to train",
            file=sys.stderr,
        )
        return 1
    plan = TrainingPlan.unsupervised(usable)
    overrides = {"seed": args.seed}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.task == "qa":
        model = train_qa(plan, QAConfig(**overrides))
        scores = evaluate_qa(model, usable)
        metrics = {
            "train_em": scores.em,
            "train_f1": scores.f1,
            "train_denotation": scores.denotation,
        }
    else:
        model = train_verifier(plan, VerifierConfig(**overrides))
        scores = evaluate_verifier(model, usable)
        metrics = {"train_accuracy": scores.accuracy, "train_f1": scores.f1}
    train_corpus = {"path": str(args.samples), "records": len(usable)}
    try:
        manifest = read_manifest(args.samples)
    except IntegrityError:
        manifest = None
    if manifest is not None:
        train_corpus["sha256"] = manifest.data_sha256
    record = ModelRegistry(args.registry).save(
        model, args.name, metrics=metrics, train_corpus=train_corpus
    )
    print(
        f"saved {record.model_id} (task={record.task}, "
        f"{record.artifact_bytes} bytes, "
        f"sha256={record.artifact_sha256[:12]}…) to {record.path}"
    )
    for key, value in sorted(metrics.items()):
        print(f"  {key}: {value:.4f}")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    records = registry.list_records()
    if not records:
        print(f"no models registered in {args.registry}")
        return 0
    default_model = registry.default_model()
    for record in records:
        is_default = (
            record.name == default_model
            and record.version == registry.default_version(record.name)
        )
        metrics = " ".join(
            f"{key}={value:.3f}" for key, value in sorted(record.metrics.items())
        )
        marker = "*" if is_default else " "
        print(
            f"{marker} {record.name:<20} {record.version:<8} "
            f"{record.task:<7} {metrics}"
        )
    return 0


def _iter_context_payloads(paths: list[str]):
    """Yield :class:`TableContext`\\ s from JSONL files of their JSON form."""
    import json

    from repro.tables.context import TableContext

    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield TableContext.from_json(json.loads(line))
                except Exception as error:
                    raise SystemExit(
                        f"{path}:{line_no}: bad table context: {error}"
                    ) from error


def _cmd_store_add(args: argparse.Namespace) -> int:
    from repro.store import DEFAULT_SHARD_SIZE, open_or_create, synth_corpus

    store = open_or_create(
        args.store, shard_size=args.shard_size or DEFAULT_SHARD_SIZE
    )
    added = 0
    if args.synth:
        doc_ids = store.add(synth_corpus(args.synth, seed=args.seed))
        added += len(doc_ids)
    if args.jsonl:
        doc_ids = store.add(_iter_context_payloads(args.jsonl))
        added += len(doc_ids)
    if added == 0:
        print("nothing to add: pass --synth N and/or JSONL files",
              file=sys.stderr)
        return 2
    print(
        f"added {added} tables to {args.store} "
        f"({store.doc_count} total); run `repro store build` to index"
    )
    return 0


def _cmd_store_build(args: argparse.Namespace) -> int:
    from repro.store import build_index

    summary = build_index(args.store, workers=args.workers)
    print(
        f"indexed {summary['docs']} docs / {summary['terms']} terms "
        f"from {summary['shards']} shards in {summary['build_s']:.2f}s "
        f"(parts built {summary['parts_built']}, "
        f"reused {summary['parts_reused']}, workers {summary['workers']})"
    )
    return 0


def _cmd_store_query(args: argparse.Namespace) -> int:
    import json

    from repro.store import Retriever

    retriever = Retriever.open(args.store)
    hits = retriever.search(args.question, k=args.k)
    if not hits:
        print("no hits", file=sys.stderr)
        return 1
    for hit in hits:
        payload = hit.to_json()
        if args.passages:
            payload["passage"] = retriever.passage(hit.doc_id, max_rows=2)
        print(json.dumps(payload, ensure_ascii=False))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.errors import IntegrityError, StoreError
    from repro.store import TableStore, load_index

    store = TableStore.open(args.store)
    report = store.verify()
    print(
        f"store ok: {report['docs']} docs in {report['shards']} shards"
    )
    try:
        index = load_index(args.store, store=store)
    except StoreError as error:
        print(f"index: {error}", file=sys.stderr)
        return 1
    except IntegrityError:
        raise
    print(f"index ok: {index.docs} docs / {len(index.postings)} terms")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal
    import threading

    from repro.serve import (
        EngineConfig,
        HedgePolicy,
        ModelRegistry,
        PoolConfig,
        RegistryWatcher,
        make_server,
        pool_from_registry,
        serve_in_thread,
    )

    registry = ModelRegistry(args.registry)
    names = args.model or sorted(registry.models())
    if not names:
        print(f"no models registered in {args.registry}", file=sys.stderr)
        return 1

    engine_config = EngineConfig(
        workers=args.workers,
        max_batch_size=args.max_batch,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        default_deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms else None
        ),
    )

    # --replicas 0 is one in-process slot; N > 0 spawns N replica
    # processes, which load their models themselves.
    try:
        backend = pool_from_registry(
            args.registry,
            names=names,
            config=PoolConfig(
                replicas=max(1, args.replicas),
                in_process=args.replicas == 0,
                engine=engine_config,
                hedge=None if args.no_hedge else HedgePolicy(),
                breaker_threshold=(
                    0 if args.no_breaker
                    else PoolConfig.breaker_threshold
                ),
            ),
        )
        backend.start()
    except Exception as error:
        print(str(error), file=sys.stderr)
        return 2
    for task, model_id in sorted(backend.stats()["models"].items()):
        print(f"loaded {model_id} for task {task}")
    reloader = backend.reload

    retriever = None
    if args.store:
        from repro.errors import ReproError
        from repro.store import Retriever

        try:
            retriever = Retriever.open(args.store)
        except ReproError as error:
            print(str(error), file=sys.stderr)
            backend.stop(drain=False)
            return 2
        print(
            f"store {args.store}: {retriever.doc_count} tables "
            "behind /v1/ask"
        )

    server = make_server(
        backend, host=args.host, port=args.port, reloader=reloader,
        retriever=retriever,
    )
    mode = (
        f"replicas={args.replicas}" if args.replicas > 0 else "in-process"
    )
    print(
        f"serving on http://{args.host}:{server.port} "
        f"({mode}, workers={args.workers}, max_batch={args.max_batch}, "
        f"queue_limit={args.queue_limit})",
        flush=True,
    )

    stop = threading.Event()

    def _on_signal(signum: int, _frame) -> None:
        print(
            f"received {signal.Signals(signum).name}; draining…", flush=True
        )
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    serve_in_thread(server)

    if args.watch_registry > 0:
        # Poll the registry's default pointers and hot-reload when any
        # served name's default version moves — `repro registry save`
        # followed by nothing else rolls the fleet.  The watcher
        # survives transient IntegrityErrors (a poll racing a
        # save-model mid-write) by design: see repro.serve.watch.
        RegistryWatcher(
            registry, names, reloader, args.watch_registry, stop=stop,
            emit=lambda line: print(line, flush=True),
        ).start()

    # Poll so signals interrupt promptly (Event.wait without a timeout
    # can block signal delivery on some platforms).
    while not stop.wait(0.2):
        pass
    # Order matters for a clean drain: stop accepting connections, then
    # drain the backend, which returns once every request it accepted
    # (including those of still-running handler threads) is booked.
    server.shutdown()
    server.server_close()
    backend.stop(drain=True)
    print("drained; final stats: " + json.dumps(backend.stats()), flush=True)
    return 0


def _package_version() -> str:
    """The installed distribution version, falling back to the source tree.

    The fallback matters for ``PYTHONPATH=src`` runs (tests, CI) where
    the ``repro`` distribution is not pip-installed and
    :func:`importlib.metadata.version` raises ``PackageNotFoundError``.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except Exception:  # PackageNotFoundError or metadata backend issues
        import repro

        return repro.__version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    make_dataset = commands.add_parser(
        "make-dataset", help="synthesize a benchmark to JSONL files"
    )
    make_dataset.add_argument("benchmark", choices=sorted(_BENCHMARKS))
    make_dataset.add_argument("--out", required=True)
    make_dataset.set_defaults(fn=_cmd_make_dataset)

    generate = commands.add_parser(
        "generate", help="run UCTR over a contexts JSONL file"
    )
    generate.add_argument("contexts", help="input contexts .jsonl")
    generate.add_argument("--out", required=True, help="output samples .jsonl")
    generate.add_argument(
        "--kinds", default=None,
        help="comma-separated program kinds (sql,logic,arith); overrides "
             "the per-benchmark defaults",
    )
    generate.add_argument(
        "--benchmark", choices=sorted(_BENCHMARKS), default=None,
        help="pick the paper's program kinds for this benchmark "
             "(auto-detected from make-dataset output when omitted)",
    )
    generate.add_argument("--per-context", type=int, default=8)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--perturb", default=None, metavar="PROFILE",
        help="corrupt each context with this messy-table profile before "
             "generation (light, headers, cells, layout, heavy); "
             "deterministic per seed, baked into checkpoint fingerprints",
    )
    generate.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for generation (1 = serial; output is "
             "identical either way)",
    )
    generate.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a JSON telemetry run-report here",
    )
    generate.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="stream completed contexts here (append+fsync results, "
             "atomic manifest) so a killed run loses nothing finished",
    )
    generate.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-dir: replay completed contexts "
             "byte-identically and generate only the remainder",
    )
    generate.add_argument(
        "--checkpoint-every", type=int, default=16, metavar="N",
        help="manifest flush cadence in contexts (default 16)",
    )
    generate.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="retry budget per context/chunk before quarantine "
             "(default 3)",
    )
    generate.add_argument(
        "--per-context-timeout", type=float, default=None,
        metavar="SECONDS",
        help="wall-clock deadline per context; overruns are killed and "
             "quarantined (default: none)",
    )
    generate.add_argument(
        "--profile", action="store_true",
        help="time the hot-path stages (sampler, executor, filters, "
             "NL-gen, serialization) and print the top hot spots; the "
             "breakdown also lands in the --report profile section",
    )
    generate.add_argument(
        "--profile-top", type=int, default=10, metavar="N",
        help="rows in the --profile hot-spot table (default 10)",
    )
    generate.set_defaults(fn=_cmd_generate)

    stats = commands.add_parser("stats", help="Table II statistics")
    stats.add_argument("benchmark", choices=sorted(_BENCHMARKS))
    stats.set_defaults(fn=_cmd_stats)

    validate = commands.add_parser(
        "validate",
        help="audit a samples corpus: manifest, load contract, and the "
             "semantic re-execution gate",
    )
    validate.add_argument("samples", help="samples .jsonl to audit")
    validate.add_argument(
        "--on-error", choices=("raise", "skip", "collect"),
        default="collect",
        help="bad-record policy while loading (default: collect — "
             "salvage intact records and report the casualties)",
    )
    validate.add_argument(
        "--require-manifest", action="store_true",
        help="fail when the sidecar integrity manifest is missing "
             "(default: verify it only when present)",
    )
    validate.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the validation run-report (schema v4) here",
    )
    validate.set_defaults(fn=_cmd_validate)

    save_model = commands.add_parser(
        "save-model",
        help="train a model on a samples corpus and register the "
             "artifact (pickle + integrity manifest)",
    )
    save_model.add_argument("samples", help="training samples .jsonl")
    save_model.add_argument(
        "--registry", required=True, metavar="DIR",
        help="model registry directory (created if missing)",
    )
    save_model.add_argument(
        "--name", required=True, help="model name in the registry"
    )
    save_model.add_argument(
        "--task", choices=("qa", "verify"), required=True,
        help="which model family to train",
    )
    save_model.add_argument("--seed", type=int, default=0)
    save_model.add_argument(
        "--epochs", type=int, default=None, metavar="N",
        help="override training epochs (default: the model's own)",
    )
    save_model.add_argument(
        "--validate", action="store_true",
        help="run the semantic re-execution gate on the corpus first",
    )
    save_model.set_defaults(fn=_cmd_save_model)

    models = commands.add_parser(
        "models", help="inspect a model registry"
    )
    models_commands = models.add_subparsers(dest="models_command", required=True)
    models_list = models_commands.add_parser(
        "list", help="list registered models (default marked with *)"
    )
    models_list.add_argument("--registry", required=True, metavar="DIR")
    models_list.set_defaults(fn=_cmd_models)

    store = commands.add_parser(
        "store",
        help="manage a table corpus store (shards + inverted index) "
             "behind POST /v1/ask",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    store_add = store_commands.add_parser(
        "add",
        help="append tables to a store (created on first use) from "
             "TableContext JSONL files and/or the synthetic generator",
    )
    store_add.add_argument("--store", required=True, metavar="DIR")
    store_add.add_argument(
        "jsonl", nargs="*",
        help="JSONL files of TableContext.to_json payloads, one per line",
    )
    store_add.add_argument(
        "--synth", type=int, default=0, metavar="N",
        help="also append N deterministic synthetic tables",
    )
    store_add.add_argument(
        "--seed", type=int, default=0,
        help="seed for --synth (default 0)",
    )
    store_add.add_argument(
        "--shard-size", type=int, default=None, metavar="K",
        help="tables per shard when creating a new store",
    )
    store_add.set_defaults(fn=_cmd_store_add)

    store_build = store_commands.add_parser(
        "build",
        help="build (or resume building) the inverted index — "
             "byte-identical output at any worker count",
    )
    store_build.add_argument("--store", required=True, metavar="DIR")
    store_build.add_argument(
        "--workers", type=int, default=1,
        help="parallel per-shard index workers (default 1)",
    )
    store_build.set_defaults(fn=_cmd_store_build)

    store_query = store_commands.add_parser(
        "query", help="rank stored tables against a question (BM25)"
    )
    store_query.add_argument("--store", required=True, metavar="DIR")
    store_query.add_argument("question")
    store_query.add_argument(
        "-k", type=int, default=5, help="hits to print (default 5)"
    )
    store_query.add_argument(
        "--passages", action="store_true",
        help="include a prose snippet of each hit table",
    )
    store_query.set_defaults(fn=_cmd_store_query)

    store_verify = store_commands.add_parser(
        "verify",
        help="audit every shard against its integrity manifests and "
             "check the index is current",
    )
    store_verify.add_argument("--store", required=True, metavar="DIR")
    store_verify.set_defaults(fn=_cmd_store_verify)

    serve = commands.add_parser(
        "serve",
        help="serve registered models over HTTP (micro-batched, "
             "admission-controlled; drains on SIGTERM)",
    )
    serve.add_argument(
        "--registry", required=True, metavar="DIR",
        help="model registry directory",
    )
    serve.add_argument(
        "--model", action="append", default=None, metavar="NAME",
        help="model name to serve (repeatable, one per task; default: "
             "every registered model)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks a free one; default 8080)",
    )
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="micro-batch size cap: an idle worker takes up to this "
             "many queued requests at once and never waits for more "
             "(default 16)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=256,
        help="admission-queue bound; beyond it requests are rejected "
             "with a retry-after hint (default 256)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="response-cache entries, 0 disables (default 1024)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline in milliseconds "
             "(default: none)",
    )
    serve.add_argument(
        "--replicas", type=int, default=0,
        help="serve through N pre-fork replica processes, each with "
             "its own engine and model copies (default 0: single "
             "in-process engine)",
    )
    serve.add_argument(
        "--watch-registry", type=float, default=0.0, metavar="SECONDS",
        help="poll the registry every SECONDS and hot-reload when a "
             "served model's default version changes (default 0: off; "
             "POST /v1/admin/reload always works)",
    )
    serve.add_argument(
        "--no-hedge", action="store_true",
        help="disable hedged dispatch in replica mode (a second probe "
             "to a sibling replica when the first reply is slower than "
             "the recent p95)",
    )
    serve.add_argument(
        "--no-breaker", action="store_true",
        help="disable per-replica circuit breakers in replica mode",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="table corpus store directory; enables POST /v1/ask "
             "(retrieve top-k tables, answer with the QA model)",
    )
    serve.set_defaults(fn=_cmd_serve)

    experiments = commands.add_parser(
        "experiments",
        help="run the experiment harness "
             "(forwards to repro.experiments.runner)",
    )
    experiments.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="arguments for the experiments runner "
             "(e.g. --scale smoke --validate)",
    )
    experiments.set_defaults(fn=_cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "experiments":
        # Forward verbatim: argparse's REMAINDER stops at the first
        # option-like token, which would swallow `--scale` etc.
        from repro.experiments.runner import main as experiments_main

        return experiments_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())

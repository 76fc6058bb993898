"""Command line of the repository benchmark.

``python -m bench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]``
    Run one workload.  The last stdout line is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
    end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
``python -m bench set --seed N --out FILE``
    Run every workload, traced, and write all metrics to FILE with the
    machine's core count, the Python version and the git revision.
``python -m bench compare --parent P.json… --change C.json…``
    Compare paired sets written by ``set`` (see :mod:`bench.compare`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable

from bench import procs
from bench.spec import Outcome, load_spec, metric_units


def _runners() -> dict[str, Callable[..., Outcome]]:
    from bench import generate, ingest, serve

    return {
        "generate": generate.run,
        "serve_qa_verify": partial(serve.run, "serve_qa_verify"),
        "serve_ask": partial(serve.run, "serve_ask"),
        "ingest": ingest.run,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one workload in a scratch directory inside the checkout."""
    procs.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=procs.WORK))
    try:
        return _runners()[name](workdir, seed, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(name: str, outcome: Outcome, spec: dict[str, Any]) -> None:
    """Human-readable lines: every metric by name and unit, then detail."""
    print(f"{name}: correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    for problem in outcome.problems[:20]:
        print(f"  problem: {problem}")
    for section, values in (("end_to_end", outcome.metrics),
                            ("per_layer", outcome.layers)):
        for metric, unit in metric_units(spec, section).items():
            if metric in values:
                print(f"  {metric:<34} {values[metric]:>14.6g} {unit}")
    for key, value in outcome.detail.items():
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value!s:>14}"
        print(f"  {key:<34} {shown}")


def cmd_run(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    section = "per_layer" if args.trace else "end_to_end"
    units = metric_units(spec, section)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    values = outcome.layers if args.trace else outcome.metrics
    if set(values) != set(units):
        raise SystemExit(f"{args.workload} reported the wrong metrics: "
                         f"{sorted(set(values) ^ set(units))}")
    if not all(math.isfinite(value) for value in values.values()):
        raise SystemExit(f"{args.workload} measured a non-finite value: {values}")
    _report(args.workload, outcome, spec)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=procs.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_set(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    record: dict[str, Any] = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "workloads": {},
    }
    started = time.perf_counter()
    for entry in spec["workloads"]:
        outcome = run_workload(entry["name"], args.seed, args.seconds, True)
        _report(entry["name"], outcome, spec)
        record["workloads"][entry["name"]] = {
            "correct": outcome.correct, **dataclasses.asdict(outcome)
        }
    record["wall_s"] = time.perf_counter() - started
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out} in {record['wall_s']:.0f}s")
    return 0


def cmd_compare(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from bench.compare import REGRESSED, compare_sets, render

    rows = compare_sets(spec, args.parent, args.change)
    print(render(rows))
    return 1 if any(row["status"] == REGRESSED for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload")
    run.add_argument("--workload", required=True, choices=workloads)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    full_set = commands.add_parser("set", help="run every workload, traced")
    full_set.add_argument("--out", required=True)
    for sub in (run, full_set):
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--seconds", type=float, default=spec["run_seconds"])
    compare = commands.add_parser("compare", help="compare paired sets")
    compare.add_argument("--parent", nargs="+", required=True)
    compare.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if args.command != "compare" and not (procs.SRC / "repro" / "__init__.py").is_file():
        print(f"no program under {procs.SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # input generation and the offline checks import the program too
    sys.path.insert(0, str(procs.SRC))
    handler = {"run": cmd_run, "set": cmd_set, "compare": cmd_compare}[args.command]
    return handler(args, spec)


if __name__ == "__main__":
    sys.exit(main())

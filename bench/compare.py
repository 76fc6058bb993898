"""Compare sets of runs of two commits, metric by metric and workload by
workload.

The rule, with runs paired parent/change:

* **improved** — over at least :data:`MIN_PAIRS` pairs, the change wins
  at least nine tenths of them (ties count for neither side) and its
  median beats the parent's by more than the parent's interquartile
  range;
* **unresolved** — otherwise, when the parent's interquartile range is
  wider than the metric's bound, unless every change run beats every
  parent run;
* **regressed** — the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
* **within bound** — everything else.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from bench.stats import median, quartiles

IMPROVED = "improved"
UNRESOLVED = "unresolved"
REGRESSED = "regressed"
WITHIN = "within bound"

#: fewer pairs than this never support a claimed gain.
MIN_PAIRS = 10


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> dict[str, Any]:
    """Classify one (metric, workload) pair of paired run values."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs the same number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    parent_median, change_median = median(parent), median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (change_median - parent_median)
    spread = p_q3 - p_q1
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and gain > spread:
        status = IMPROVED
    elif spread > bound * abs(parent_median) and not every_run_better:
        status = UNRESOLVED
    elif -gain > bound * abs(parent_median):
        status = REGRESSED
    else:
        status = WITHIN
    return {
        "parent": (parent_median, p_q1, p_q3),
        "change": (change_median, c_q1, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "status": status,
    }


def _load(paths: Sequence[str]) -> list[dict[str, Any]]:
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]


def compare_sets(
    spec: dict[str, Any], parent_paths: Sequence[str], change_paths: Sequence[str]
) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric)."""
    parents, changes = _load(parent_paths), _load(change_paths)
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(sets: list[dict[str, Any]]) -> list[float]:
                return [s["workloads"][workload]["metrics"][name] for s in sets]

            row = verdict(values(parents), values(changes), metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'wins':>6}  verdict"
    ]
    for row in rows:
        def cell(values: tuple[float, float, float]) -> str:
            return f"{values[0]:.4g} [{values[1]:.4g}, {values[2]:.4g}]"

        lines.append(
            f"{row['workload']:<16} {row['metric']:<12} {cell(row['parent']):>32} "
            f"{cell(row['change']):>32} {row['wins']:>3}/{row['pairs']:<2}  "
            f"{row['status']} (bound {row['bound']:.0%}, {row['unit']})"
        )
    return "\n".join(lines)

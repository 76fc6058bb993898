"""The paired-runs rule behind ``python -m bench compare``."""

import json

import pytest

from bench.compare import IMPROVED, REGRESSED, UNRESOLVED, WITHIN, compare_sets, verdict
from bench.spec import load_spec

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_the_same_numbers_are_within_bound():
    assert verdict(PARENT, PARENT, "lower", 0.1)["status"] == WITHIN


def test_a_clear_win_is_an_improvement():
    faster = [value * 0.8 for value in PARENT]
    row = verdict(PARENT, faster, "lower", 0.1)
    assert row["status"] == IMPROVED and row["wins"] == 10


def test_throughput_wins_when_higher():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "higher", 0.1)["status"] == IMPROVED
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1)["status"] == REGRESSED


def test_fewer_than_ten_pairs_support_no_gain():
    faster = [value * 0.8 for value in PARENT]
    assert verdict(PARENT[:5], faster[:5], "lower", 0.1)["status"] == WITHIN


def test_fewer_than_nine_tenths_of_wins_is_no_improvement():
    change = [value * 0.8 for value in PARENT]
    change[0] = change[1] = 200.0
    assert verdict(PARENT, change, "lower", 0.1)["status"] != IMPROVED


def test_a_small_slowdown_stays_within_bound():
    assert verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1)["status"] == WITHIN


def test_a_noisy_parent_leaves_the_metric_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)["status"] == UNRESOLVED


def test_unequal_sides_are_refused():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:3], "lower", 0.1)


def test_compare_sets_reports_one_row_per_workload_and_metric(tmp_path):
    spec = load_spec()
    metrics = {entry["name"]: 1.0 for entry in spec["end_to_end"]}
    workloads = {entry["name"]: {"metrics": metrics} for entry in spec["workloads"]}
    paths = []
    for index in range(3):
        path = tmp_path / f"set-{index}.json"
        path.write_text(json.dumps({"workloads": workloads}))
        paths.append(str(path))
    rows = compare_sets(spec, paths, paths)
    assert len(rows) == len(spec["workloads"]) * len(spec["end_to_end"])
    assert {row["status"] for row in rows} == {WITHIN}

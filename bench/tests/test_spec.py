"""``BENCHMARK.json`` meets the contract, and the checker catches breaches."""

import copy

import pytest

from bench.spec import LAYER_TARGETS, load_spec, validate


@pytest.fixture
def spec():
    return load_spec()


def test_the_committed_spec_is_valid(spec):
    assert validate(spec) == []


def test_every_layer_metric_targets_a_known_metric_and_workload(spec):
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    workloads = {entry["name"] for entry in spec["workloads"]}
    assert {entry["name"] for entry in spec["per_layer"]} == set(LAYER_TARGETS)
    for metric, workload in LAYER_TARGETS.values():
        assert metric in end_to_end and workload in workloads


def _metric(name, bound=0.1):
    return {"name": name, "unit": "ms", "better": "lower", "bound": bound}


BREACHES = {
    "bad name": lambda s: s["end_to_end"][1].update(name="p50 ms"),
    "bound above 0.25": lambda s: s["end_to_end"][1].update(bound=0.3),
    "long unit": lambda s: s["per_layer"][0].update(unit="x" * 17),
    "untargeted layer metric": lambda s: s["per_layer"].append(
        {"name": "x.y", "unit": "ms", "better": "lower"}
    ),
    "duplicate name": lambda s: s["end_to_end"].append(_metric("p50_ms")),
    "nine workloads": lambda s: s.update(workloads=[
        {"name": f"w{i}", "why": "w"} for i in range(9)
    ]),
    "one workload": lambda s: s.update(workloads=s["workloads"][:1]),
    "seventeen end-to-end metrics": lambda s: s["end_to_end"].extend(
        _metric(f"m{i}") for i in range(17 - len(s["end_to_end"]))
    ),
    "setup_s bound not the largest": lambda s: s["end_to_end"][0].update(bound=0.01),
    "absolute path in command": lambda s: s.update(command=["python3", "/x.py"]),
    "run_seconds above 60": lambda s: s.update(run_seconds=61),
    "extra key": lambda s: s["workloads"][0].update(extra=1),
}


@pytest.mark.parametrize("breach", sorted(BREACHES))
def test_breaches_are_reported(spec, breach):
    broken = copy.deepcopy(spec)
    BREACHES[breach](broken)
    assert validate(broken)

"""The ``ingest`` workload end to end at tiny sizes."""

import pytest

from bench.ingest import SPAN_LAYERS, _layers, measure


def test_ingest_rounds_make_new_tables_queryable(tmp_path):
    reading = measure(
        tmp_path, seed=3, seconds=0.0, traced=True,
        base_tables=48, round_tables=12, bulk_loads=2, min_rounds=2,
        new_checks=4, old_searches=5,
    )
    assert reading["problems"] == []
    assert len(reading["setups"]) == 2
    assert len(reading["rounds"]) == 2
    assert [len(times) for times in reading["search_ms"]] == [5, 5]
    assert {span["name"] for span in reading["spans"]} == set(SPAN_LAYERS)
    layers = _layers(reading)
    shares = sum(layers[name] for name in set(SPAN_LAYERS.values()))
    assert shares == pytest.approx(1.0, abs=0.01)
    assert layers["fsio.fsyncs_per_unit"] > 0

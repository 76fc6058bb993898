"""Span recording and self-time arithmetic."""

import pytest

from bench.trace import Tracer, covered, load_spans, self_times


def _span(start, end, parent=None, name="s"):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "request_id": None}


def test_covered_counts_overlapping_intervals_once():
    assert covered([(1, 2), (1.5, 3), (5, 6)], 0, 4) == pytest.approx(2.0)
    assert covered([(-1, 1), (3, 9)], 0, 4) == pytest.approx(2.0)
    assert covered([], 0, 4) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 10),            # root
        _span(1, 4, parent=0),   # child a
        _span(3, 6, parent=0),   # child b overlaps a (another thread)
        _span(2, 3, parent=1),   # grandchild under a
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    # self times of one tree add up to the root's duration minus overlap
    assert sum(self_times(spans)) == pytest.approx(10.0 + 1.0)


def test_an_unfinished_span_covers_nothing():
    spans = [_span(0, 10), _span(2, None, parent=0)]
    assert self_times(spans) == [10.0, 0.0]


def test_tracer_links_parents_and_tags_request_ids(tmp_path):
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        with tracer.span("parse"):
            tracer.request_id = "r7"
        with tracer.span("infer"):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    spans = load_spans(path)
    assert [s["name"] for s in spans] == ["root", "parse", "infer"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert {s["request_id"] for s in spans} == {"r7"}
    assert self_times(spans) == pytest.approx([6.0 - 1.0 - 2.0, 1.0, 1.0])


def test_wrap_keeps_static_methods_static():
    class Parser:
        @staticmethod
        def parse(text):
            return text.upper()

        def method(self, value):
            return value + 1

    tracer = Tracer()
    tracer.wrap(Parser, "parse", "parse")
    tracer.wrap(Parser, "method", "method")
    assert Parser.parse("a") == "A"
    assert Parser().parse("b") == "B"
    assert Parser().method(1) == 2
    assert [s["name"] for s in tracer.records()] == ["parse", "parse", "method"]

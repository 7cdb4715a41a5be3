"""Tests of the benchmark's own arithmetic, wrappers and metric list.

    python3 -m pytest bench -q
"""

import json
import os
import types

import pytest

from measure import layer_metric_specs
from tracer import Span, Target, Tracer, covered, layer_stats, \
    parallel_efficiency, percentile, self_times, tail_percentile, unattributed
from run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(n, name, start, end, parent=None, error=False):
    return Span(n, name, start, end, parent, 0, error)


@pytest.mark.parametrize("n,expect", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
    (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expect):
    assert tail_percentile(n) == expect


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, "outer", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),   # overlaps a: union is 1..6
        span(4, "leaf", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_stats_busy_skips_nested_same_name():
    spans = [
        span(1, "f", 0.0, 4.0),
        span(2, "f", 1.0, 2.0, parent=1),   # recursion, not counted twice
        span(3, "g", 5.0, 6.0, error=True),
    ]
    st = layer_stats(spans)
    assert st["f"]["calls"] == 2
    assert st["f"]["busy_s"] == pytest.approx(4.0)
    assert st["f"]["self_s"] == pytest.approx(4.0)
    assert st["g"]["errors"] == 1


def test_parallel_efficiency():
    # two workers busy 3 s and 2 s during a 3 s sweep
    assert parallel_efficiency(5.0, 2, 3.0) == pytest.approx(5 / 6)
    assert parallel_efficiency(2.0, 1, 2.0) == pytest.approx(1.0)
    assert parallel_efficiency(1.0, 2, 0.0) == 0.0


def test_unattributed_is_window_minus_top_level_spans():
    spans = [span(1, "top", 1.0, 3.0), span(2, "child", 0.5, 4.0, parent=1)]
    assert unattributed([(0.0, 4.0)], spans) == pytest.approx(2.0)


def _module():
    mod = types.SimpleNamespace()

    def add(a, b=0):
        return a + b

    def boom(x):
        raise KeyError(x)

    class Box:
        @classmethod
        def make(cls, n):
            return [n] * n

        def size(self, k):
            return k * 2

    mod.add, mod.boom, mod.Box = add, boom, Box
    return mod


def test_wrappers_return_result_and_reraise():
    mod = _module()
    originals = (mod.add, mod.boom, mod.Box.__dict__["make"],
                 mod.Box.__dict__["size"])
    tracer = Tracer()
    tracer.install([
        Target("m.add", mod, "add"),
        Target("m.boom", mod, "boom"),
        Target("m.Box.make", mod.Box, "make",
               lambda args, kwargs, r: ("m.entries", len(r))),
        Target("m.Box.size", mod.Box, "size"),
        Target("m.gone", mod, "gone"),
    ])
    result = [1]
    assert mod.add(result, b=[2]) == [1, 2]
    with pytest.raises(KeyError) as info:
        mod.boom("k")
    assert info.value.args == ("k",)
    assert mod.Box.make(3) == [3, 3, 3]
    assert mod.Box().size(4) == 8
    tracer.uninstall()

    assert (mod.add, mod.boom, mod.Box.__dict__["make"],
            mod.Box.__dict__["size"]) == originals
    assert tracer.missing == ["m.gone"]
    st = layer_stats(tracer.spans)
    assert {k: v["calls"] for k, v in st.items()} == \
        {"m.add": 1, "m.boom": 1, "m.Box.make": 1, "m.Box.size": 1}
    assert st["m.boom"]["errors"] == 1 and st["m.add"]["errors"] == 0
    assert tracer.counts["m.entries"] == 3


def test_wrappers_record_parent_spans():
    mod = _module()
    tracer = Tracer()
    tracer.install([Target("m.add", mod, "add")])
    outer = tracer.wrap("outer", lambda: mod.add(1, 2))
    assert outer() == 3
    tracer.uninstall()
    inner, top = tracer.spans
    assert top.name == "outer" and top.parent is None
    assert inner.parent == top.sid
    assert top.start <= inner.start <= inner.end <= top.end


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layer_metric_specs()
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"ops_per_s", "peak_rss_mb", "setup_s"}

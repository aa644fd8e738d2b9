"""Span recording, self-time arithmetic and wrapper restoration."""

from __future__ import annotations

import sys
import types

from perfbench.layers import LAYERS, metric_names
from perfbench.tracing import (
    Counter,
    Layer,
    Recorder,
    _resolve,
    install,
    self_times,
    summarize,
)


def test_self_time_subtracts_children_on_a_nested_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90);
    # a has a grandchild c [15, 25); b has two overlapping children
    # d [55, 70) and e [60, 80) covering [55, 80).
    spans = [
        ("root", 0, 100, -1, 1),
        ("a", 10, 40, 0, 1),
        ("c", 15, 25, 1, 1),
        ("b", 50, 90, 0, 1),
        ("d", 55, 70, 3, 1),
        ("e", 60, 80, 3, 1),
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40 - 25, 15, 20]


def test_self_time_clips_children_to_the_parent_interval():
    # A child overhanging its parent only covers the shared part.
    spans = [("p", 10, 20, -1, 0), ("k", 15, 30, 0, 0)]
    assert self_times(spans) == [5, 15]


def test_summary_sums_self_time_and_root_time_per_name():
    spans = [
        ("outer", 0, 2_000_000, -1, 0),
        ("inner", 500_000, 1_500_000, 0, 0),
        ("outer", 3_000_000, 4_000_000, -1, 1),
    ]
    summary = summarize(spans)
    assert summary["outer"] == {"calls": 2, "self_ms": 2.0, "root_ms": 3.0}
    assert summary["inner"] == {"calls": 1, "self_ms": 1.0, "root_ms": 0.0}


def _toy_module():
    module = types.ModuleType("perfbench_toy")

    def leaf(x):
        return [x] * x

    class Node:
        def outer(self, x):
            return module.leaf(x)

    module.leaf = leaf
    module.Node = Node
    return module


def test_wrappers_record_parents_counts_and_restore(monkeypatch):
    module = _toy_module()
    monkeypatch.setitem(sys.modules, "perfbench_toy", module)
    original_leaf = module.leaf
    original_outer = module.Node.__dict__["outer"]
    recorder = Recorder(trace_id=lambda: 7)
    layers = [
        Layer("toy.outer", ("perfbench_toy:Node.outer",)),
        Layer("toy.leaf", ("perfbench_toy:leaf",),
              Counter(after=lambda args, result, before: {"items": len(result)}),
              ("items",)),
    ]
    patches = install(recorder, layers)
    node = module.Node()
    node.outer(2)  # not recording yet: no spans
    assert recorder.spans == []
    recorder.start()
    assert node.outer(3) == [3, 3, 3]
    recorder.stop()
    patches.restore()

    assert [(name, parent, trace)
            for name, _s, _e, parent, trace in recorder.spans] == [
        ("toy.outer", -1, 7), ("toy.leaf", 0, 7),
    ]
    assert recorder.counts == {("toy.leaf", "items"): 3}
    assert module.leaf is original_leaf
    assert module.Node.__dict__["outer"] is original_outer
    assert patches.unrestored() == []


def test_inherited_method_restore_removes_the_patch():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    module = types.ModuleType("perfbench_toy2")
    module.Child = Child
    sys.modules["perfbench_toy2"] = module
    try:
        patches = install(Recorder(), [Layer("toy.run", ("perfbench_toy2:Child.run",))])
        assert "run" in Child.__dict__
        patches.restore()
        assert "run" not in Child.__dict__
        assert Child().run() == "base"
    finally:
        del sys.modules["perfbench_toy2"]


def test_every_program_layer_wraps_and_restores():
    originals = {}
    for layer in LAYERS:
        for target in layer.targets:
            owner, attr = _resolve(target)
            originals[target] = getattr(owner, attr)
    patches = install(Recorder(), LAYERS)
    try:
        for target in originals:
            owner, attr = _resolve(target)
            assert getattr(owner, attr) is not originals[target], target
    finally:
        patches.restore()
    assert patches.unrestored() == []
    for target, original in originals.items():
        owner, attr = _resolve(target)
        assert getattr(owner, attr) is original, target


def test_metric_names_are_unique_and_within_the_limits():
    names = metric_names()
    assert len(names) == len(set(names))
    assert len(names) <= 128
    assert all(len(name) <= 64 for name in names)

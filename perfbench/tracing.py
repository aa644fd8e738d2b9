"""Span recording from outside the program.

The traced run wraps the public entry points of each layer (listed in
:mod:`perfbench.layers`) with a recorder that keeps one span per call:
name, wall start, wall end, parent span and a trace id.  The program
under test is not edited; wrappers are installed on the classes and
modules before the workload is built (some entry points are captured as
bound methods at construction, e.g. HTTP route handlers) and restored
afterwards.

Self time is computed from the span tree after the run: a span's
duration minus the part of its interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A finished span: (name, start_ns, end_ns, parent index or -1, trace id).
SpanRecord = Tuple[str, int, int, int, int]

_MISSING = object()


class Recorder:
    """In-memory span store plus per-span counts.

    ``trace_id`` is called at each root span's start; the benchmark sets
    it to read the virtual clock, so all spans started under one clock
    tick share a trace id.  Recording is off until :meth:`start`.
    """

    def __init__(self, trace_id: Callable[[], int] = lambda: 0) -> None:
        self.spans: List[Optional[SpanRecord]] = []
        self.counts: Dict[Tuple[str, str], float] = {}
        self.recording = False
        self._stack: List[int] = []
        self.trace_id = trace_id
        self._trace = 0

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def count(self, name: str, metric: str, amount: float) -> None:
        key = (name, metric)
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn, args, kwargs, counter):
        """Run ``fn`` under a span named ``name``."""
        stack = self._stack
        spans = self.spans
        index = len(spans)
        spans.append(None)
        if stack:
            parent = stack[-1]
        else:
            parent = -1
            self._trace = self.trace_id()
        trace = self._trace
        stack.append(index)
        before = counter.before(args) if counter is not None else None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, trace)
        if counter is not None:
            for metric, amount in counter.after(args, result, before).items():
                self.count(name, metric, amount)
        return result

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, trace = span
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "trace": trace,
                }) + "\n")


def _covered(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of ``intervals``."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans: Sequence[SpanRecord]) -> List[int]:
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to the parent's interval before their union is
    taken, so overlapping or overhanging children never make self time
    negative.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _name, start, end, parent, _trace in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _trace) in enumerate(spans):
        kids = children.get(index)
        covered = 0
        if kids:
            clipped = [
                (max(start, s), min(end, e)) for s, e in kids
                if min(end, e) > max(start, s)
            ]
            covered = _covered(clipped)
        result.append(end - start - covered)
    return result


def summarize(spans: Sequence[Optional[SpanRecord]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and ``self_ms``, plus ``root_ms`` — the
    wall time covered by root spans of that name."""
    # Parent indices refer to positions in the full list, so unfinished
    # spans stay in place as zero-length placeholders.
    tree = [span if span is not None else ("", 0, 0, -1, 0) for span in spans]
    selfs = self_times(tree)
    summary: Dict[str, Dict[str, float]] = {}
    for span, own in zip(tree, selfs):
        name, start, end, parent, _trace = span
        if not name:
            continue
        entry = summary.setdefault(name, {"calls": 0, "self_ms": 0.0, "root_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += own / 1e6
        if parent < 0:
            entry["root_ms"] += (end - start) / 1e6
    return summary


@dataclass
class Counter:
    """Counts recorded on a span: ``after(args, result, before)`` returns
    a mapping of metric name to amount; ``before(args)`` snapshots state
    needed for deltas."""

    after: Callable[[tuple, object, object], Dict[str, float]]
    before: Callable[[tuple], object] = lambda args: None


@dataclass
class Layer:
    """One wrapped entry point.

    ``targets`` are ``"module:attribute"`` strings; ``attribute`` is a
    function name or ``Class.method``.  One layer may patch several
    targets — a function imported by name into several modules, or the
    same operation on two classes.
    """

    span: str
    targets: Tuple[str, ...]
    counter: Optional[Counter] = None
    counts: Tuple[str, ...] = field(default=())


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patches:
    """Installed wrappers; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object, object]] = []

    def add(self, owner, attr: str, wrapper) -> None:
        own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, own, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, own, _original in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def unrestored(self) -> List[str]:
        """Targets whose current attribute is not the original."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _own, original in self._saved
            if getattr(owner, attr) is not original
        ]


def _wrap(recorder: Recorder, layer: Layer, fn):
    name = layer.span
    counter = layer.counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.recording:
            return fn(*args, **kwargs)
        return recorder.call(name, fn, args, kwargs, counter)

    return wrapper


def install(recorder: Recorder, layers: Iterable[Layer]) -> Patches:
    """Wrap every layer's targets; returns the handle that restores them."""
    patches = Patches()
    wrapped: Dict[int, object] = {}
    for layer in layers:
        for target in layer.targets:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            # A function imported by name into several modules is one
            # object: wrap it once and patch every binding with that one
            # wrapper, so one call records one span.
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = _wrap(recorder, layer, original)
                wrapped[id(original)] = wrapper
            patches.add(owner, attr, wrapper)
    return patches

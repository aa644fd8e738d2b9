#!/usr/bin/env python3
"""End-to-end benchmark of the TEEMon reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sgx-host --seed 1 --seconds 20 --trace 0

``--seconds`` sizes the measured phase: each workload turns it into a
fixed number of closed-loop steps at its nominal step rate, so a run does
the same work every time (same seed, same inputs, same virtual hours)
and takes about ``--seconds`` on the reference machine (2-vCPU x86 VM,
Python 3.11).

``--trace 0`` builds the workload several times (``setup_s`` is the
median build time), runs a fixed episode on the first and last build and
requires identical TSDB digests, then drives the last build's
closed-loop client through the measured phase and reports the
end-to-end metrics.  ``--trace 1`` drives two identical builds in
lockstep, one plain and one with every layer of :mod:`perfbench.layers`
wrapped, and reports per-layer self time and counts; the two digests
must match, which shows the wrappers perturb nothing.

Every run checks the program's outputs (see ``Workload.checks``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the process exits
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROFILE_ENV = "TEEMON_TEST_PROFILE"
#: Measured steps between two sampled reference checks.
REFERENCE_EVERY = 25
#: Steps per alternating chunk of the traced run.
TRACE_CHUNK = 5
#: Where the traced run writes its spans, relative to the checkout.
SPANS_DIR = ".perfbench"


def _prepare_imports() -> None:
    """Put the checkout's sources on the path, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        sys.exit(2)
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _neutralise_profile() -> Optional[str]:
    """Remove ``TEEMON_TEST_PROFILE`` before the program is imported.

    The variable moves TeemonConfig defaults (shards, WAL, executor
    workers, frame size, tracing); the workloads pin all of those, and
    dropping the variable as well keeps any default this benchmark does
    not know about from shifting either.
    """
    return os.environ.pop(PROFILE_ENV, None)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation); NaN if empty
    (the run then fails its sample-count check)."""
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------
class PhaseTimers:
    """Wall time of every scrape cycle and uplink flush in a phase.

    Installed around the measured phase only, as thin wrappers on the two
    public methods; they record durations and nothing else.
    """

    def __init__(self, workload) -> None:
        from perfbench.tracing import Patches
        from repro.pmag.remote_write import RemoteWriteClient
        from repro.pmag.scrape import ScrapeManager

        self.scrape_ms: List[float] = []
        self.flush_ms: List[float] = []
        self._patches = Patches()
        for owner, attr, sink, objects in (
            (ScrapeManager, "scrape_once", self.scrape_ms,
             workload.timed_scrapers()),
            (RemoteWriteClient, "flush", self.flush_ms,
             workload.uplink_clients()),
        ):
            self._patches.add(owner, attr, _timed(
                getattr(owner, attr), sink, {id(obj) for obj in objects}))

    def restore(self) -> List[str]:
        self._patches.restore()
        return self._patches.unrestored()


def _timed(fn, sink: List[float], owners):
    """``fn`` recording its wall time (ms) into ``sink`` when called on
    one of the objects whose ids are in ``owners``."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if id(args[0]) not in owners:
            return fn(*args, **kwargs)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((clock() - start) * 1e3)

    return wrapper


def drive(workload, steps: int, client=None, between=None,
          meter=None) -> Tuple[float, float]:
    """Step the closed-loop client ``steps`` times; returns (wall
    seconds, virtual seconds).  Each step's wall time also goes to
    ``meter``; ``between(index)`` runs after each step, outside the
    timed region."""
    from perfbench.workloads import Client

    client = client if client is not None else Client()
    clock = time.perf_counter
    wall = 0.0
    virtual_start = workload.clock.now_ns
    for index in range(1, steps + 1):
        start = clock()
        workload.step(client)
        elapsed = clock() - start
        wall += elapsed
        if meter is not None:
            meter.add(elapsed)
        if between is not None:
            between(index)
    if meter is not None:
        meter.close()
    return wall, (workload.clock.now_ns - virtual_start) / 1e9


class Counters:
    """Program counters summed over a workload, for phase deltas."""

    def __init__(self, workload) -> None:
        self.wal_records = sum(w.records_total for w in workload.wal_writers())
        self.disk_bytes = sum(dep.disk.bytes_written for dep in workload.deployments()
                              if dep.wal is not None)
        clients = workload.uplink_clients()
        self.uplink_bytes = sum(c.bytes_shipped for c in clients)
        self.uplink_samples = sum(c.samples_shipped for c in clients)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def operations(workload, client, checks) -> Tuple[int, int]:
    """(attempted, failed) operations: scrapes, uplink frames, queries
    and correctness checks."""
    managers = workload.scrape_managers()
    clients = workload.uplink_clients()
    receivers = [dep.remote_write_receiver for dep in workload.deployments()
                 if dep.remote_write_receiver is not None]
    attempted = (
        sum(m.up_writes for m in managers)
        + sum(c.frames_sent for c in clients)
        + len(client.request_ms)
        + len(checks)
    )
    failed = (
        sum(len(m.down_targets()) + m.timeouts_total + m.samples_dropped
            for m in managers)
        + sum(c.frames_dropped + c.send_failures for c in clients)
        + sum(r.frames_rejected for r in receivers)
        + client.errors
        + sum(1 for check in checks if not check.ok)
    )
    return attempted, failed


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------
def run_end_to_end(cls, seed: int, seconds: float):
    from perfbench.speed import Meter
    from perfbench.workloads import Check, Client

    setup_times: List[float] = []
    raw_setup_times: List[float] = []
    digests: List[str] = []
    workload = None
    for build in range(cls.setups):
        workload = None
        gc.collect()
        meter = Meter()
        meter.start()
        workload = cls(seed, lap=meter.lap)
        meter.lap()
        meter.close()
        setup_times.append(meter.normalised)
        raw_setup_times.append(meter.raw)
        if build in (0, cls.setups - 1):
            # The same fixed episode on the first and last build:
            # determinism witness, and warm-up for the measured phase.
            drive(workload, steps=cls.check_steps)
            digests.append(workload.digest())
    checks = [Check("same-seed digest identical across builds",
                    len(set(digests)) == 1, ", ".join(d[:12] for d in digests))]

    before = Counters(workload)
    client = Client()
    timers = PhaseTimers(workload)

    def between(index: int) -> None:
        if index % REFERENCE_EVERY == 0:
            workload.reference_check()

    meter = Meter((timers.scrape_ms, client.request_ms, timers.flush_ms))
    try:
        wall, virtual = drive(workload, cls.measured_steps(seconds),
                              client=client, between=between, meter=meter)
    finally:
        unrestored = timers.restore()
    scrape_ms = meter.scaled(timers.scrape_ms)
    query_ms = meter.scaled(client.request_ms)
    flush_ms = meter.scaled(timers.flush_ms)
    checks.append(Check("timers restored", not unrestored, ", ".join(unrestored)))
    checks.append(Check(
        "every timed operation measured",
        bool(timers.scrape_ms) and bool(client.request_ms)
        and bool(timers.flush_ms) == bool(workload.uplink_clients()),
        f"{len(timers.scrape_ms)} scrapes, {len(client.request_ms)} queries, "
        f"{len(timers.flush_ms)} flushes",
    ))
    if not workload.reference_checks:
        workload.reference_check()
    after = Counters(workload)
    checks.extend(workload.checks())

    engines = workload.engines()
    stored = sum(e.sample_count() + e.storage_stats()["samples_compacted_total"]
                 for e in engines)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s_per_vhour": (meter.normalised / (virtual / 3600.0), "s"),
        "scrape_cycle_ms_p50": (percentile(scrape_ms, 50), "ms"),
        "scrape_cycle_ms_p95": (percentile(scrape_ms, 95), "ms"),
        "query_ms_p50": (percentile(query_ms, 50), "ms"),
        "query_ms_p95": (percentile(query_ms, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "tsdb_bytes_per_sample": (
            _ratio(sum(e.memory_bytes() for e in engines), stored), "B"),
        "wal_bytes_per_sample": (
            _ratio(after.disk_bytes - before.disk_bytes,
                   after.wal_records - before.wal_records), "B"),
    }
    # Reported for the humans reading the table; the JSON carries only
    # the metrics BENCHMARK.json declares.
    extra = {
        # p99 does not repeat within a bound on a shared machine (see
        # README); the JSON carries p95 as the tail.
        "scrape_cycle_ms_p99": (percentile(scrape_ms, 99), "ms"),
        "query_ms_p99": (percentile(query_ms, 99), "ms"),
        "raw_setup_s": (statistics.median(raw_setup_times), "s"),
        "raw_wall_s_per_vhour": (wall / (virtual / 3600.0), "s"),
        "raw_scrape_cycle_ms_p50": (percentile(timers.scrape_ms, 50), "ms"),
        "raw_query_ms_p50": (percentile(client.request_ms, 50), "ms"),
        "speed_factor": (meter.normalised / wall, "1"),
        "scrape_cycles": (len(timers.scrape_ms), "count"),
        "queries": (len(client.request_ms), "count"),
        "virtual_hours": (virtual / 3600.0, "h"),
    }
    if flush_ms:
        extra["uplink_flush_ms_p50"] = (percentile(flush_ms, 50), "ms")
        extra["uplink_flush_ms_p99"] = (percentile(flush_ms, 99), "ms")
        extra["uplink_bytes_per_sample"] = (
            _ratio(after.uplink_bytes - before.uplink_bytes,
                   after.uplink_samples - before.uplink_samples), "B")
    attempted, failed = operations(workload, client, checks)
    extra["ops_failed_frac"] = (_ratio(failed, attempted), "1")
    return metrics, extra, checks, attempted, failed


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------
def run_traced(cls, seed: int, seconds: float, workload_name: str):
    from perfbench.layers import LAYERS, QUERY_SHARES, count_unit
    from perfbench.tracing import Recorder, install, summarize
    from perfbench.speed import Meter
    from perfbench.workloads import Check, Client

    plain = cls(seed)
    recorder = Recorder()
    patches = install(recorder, LAYERS)
    try:
        traced = cls(seed)
        recorder.trace_id = lambda: traced.clock.now_ns
        for workload in (plain, traced):
            drive(workload, steps=cls.check_steps)
        # The two builds advance in lockstep, alternating short chunks,
        # so drift in machine speed hits both sides equally.
        client = Client()
        plain_wall = traced_wall = 0.0
        plain_meter, traced_meter = Meter(), Meter()
        done = 0
        # Plain and traced halves together take about ``seconds``.
        trace_steps = max(TRACE_CHUNK, cls.measured_steps(seconds) // 2)
        while done < trace_steps:
            chunk = min(TRACE_CHUNK, trace_steps - done)
            plain_wall += drive(plain, steps=chunk, meter=plain_meter)[0]
            recorder.start()
            traced_wall += drive(traced, steps=chunk, client=client,
                                 meter=traced_meter)[0]
            recorder.stop()
            done += chunk
            if done % REFERENCE_EVERY == 0:
                plain.reference_check()
                traced.reference_check()
        traced_virtual = trace_steps * cls.step_s
    finally:
        patches.restore()
    unrestored = patches.unrestored()
    checks = [
        Check("wrappers restored", not unrestored, ", ".join(unrestored)),
        Check("traced digest == untraced digest",
              traced.clock.now_ns == plain.clock.now_ns
              and traced.digest() == plain.digest()),
    ]
    if not traced.reference_checks:
        traced.reference_check()
    checks.extend(traced.checks())

    os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
    recorder.write(os.path.join(ROOT, SPANS_DIR, f"spans-{workload_name}.jsonl"))

    summary = summarize(recorder.spans)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        entry = summary.get(layer.span, {"calls": 0, "self_ms": 0.0})
        metrics[f"{layer.span}.calls"] = (entry["calls"], "count")
        metrics[f"{layer.span}.self_ms"] = (entry["self_ms"], "ms")
        for count in layer.counts:
            metrics[f"{layer.span}.{count}"] = (
                recorder.counts.get((layer.span, count), 0), count_unit(count))
    for share, span, count in QUERY_SHARES:
        metrics[share] = (_ratio(recorder.counts.get((span, count), 0),
                                 summary.get(span, {}).get("calls", 0)), "1")
    covered_ms = sum(entry["root_ms"] for entry in summary.values())
    metrics["unattributed_share"] = (
        max(0.0, 1.0 - covered_ms / (traced_wall * 1e3)), "1")
    metrics["trace_overhead_ratio"] = (
        traced_meter.normalised / plain_meter.normalised, "1")
    extra = {
        "spans": (len(recorder.spans), "count"),
        "traced_wall_s": (traced_wall, "s"),
        "untraced_wall_s": (plain_wall, "s"),
        "virtual_hours": (traced_virtual / 3600.0, "h"),
    }
    attempted, failed = operations(traced, client, checks)
    return metrics, extra, checks, attempted, failed


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    profile = _neutralise_profile()
    _prepare_imports()
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(sorted(WORKLOADS))}")
    if profile is not None:
        print(f"note: ignored {PROFILE_ENV}={profile!r}; workload configs are pinned")

    if args.trace:
        metrics, extra, checks, attempted, failed = run_traced(
            cls, args.seed, args.seconds, args.workload)
    else:
        metrics, extra, checks, attempted, failed = run_end_to_end(
            cls, args.seed, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<52} {value:>16.6g} {unit}")
    for check in checks:
        if not check.ok:
            print(f"  CHECK FAILED: {check.name} {check.detail}")
    print(f"  checks: {sum(c.ok for c in checks)}/{len(checks)} passed")
    correct = all(check.ok for check in checks) and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

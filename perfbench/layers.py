"""The layers the traced run wraps, and what each should move.

Span names have the form ``<module>.<function>``; the per-layer metrics
are ``<span>.calls``, ``<span>.self_ms`` and ``<span>.<count>`` for the
counts listed on the layer.  ``MOVES`` records, for each span, which
end-to-end metric on which workload a change to that layer should move
(written down before measuring, so a claimed gain can be checked
against it).
"""

from __future__ import annotations

from typing import Dict, Tuple

from perfbench.tracing import Counter, Layer


def _len_result(metric: str) -> Counter:
    return Counter(after=lambda args, result, before: {metric: len(result)})


def _samples_rejected() -> Counter:
    return Counter(after=lambda args, result, before: {
        "samples": len(args[1]), "rejected": len(result),
    })


def _fingerprinted() -> Counter:
    return Counter(after=lambda args, result, before: {
        "samples": sum(len(samples) for _fp, _labels, samples in args[1]),
        "rejected": result,
    })


def _scrape() -> Counter:
    # ``up`` is written once per scraped target, healthy or not.
    return Counter(
        before=lambda args: args[0].up_writes,
        after=lambda args, result, before: {
            "targets": args[0].up_writes - before,
            "failed": len(args[0].down_targets()),
        },
    )


def _wal_append() -> Counter:
    return Counter(
        before=lambda args: args[0].disk.bytes_written,
        after=lambda args, result, before: {
            "records": len(args[1]),
            "bytes": args[0].disk.bytes_written - before,
        },
    )


def _receiver() -> Counter:
    return Counter(
        before=lambda args: (args[0].frames_replayed, args[0].samples_deduped),
        after=lambda args, result, before: {
            "frames_deduped": args[0].frames_replayed - before[0],
            "samples_deduped": args[0].samples_deduped - before[1],
        },
    )


def _client_flush() -> Counter:
    return Counter(
        before=lambda args: args[0].retries_total,
        after=lambda args, result, before: {
            "retries": args[0].retries_total - before,
        },
    )


def _query_path(range_query: bool) -> Counter:
    """Which path served each query: plan-cache hit, and for range
    queries aggregate pushdown or rollup-served windows.  Reads the
    store counters the engine itself keeps."""

    def state(args):
        engine = args[0]
        stats = engine._tsdb.stats  # noqa: SLF001 - the engine's own store
        return (engine.cache_stats().hits, stats.pushdown_reads_total,
                stats.downsampled_reads_total)

    def after(args, result, before):
        hits, pushdown, rollup = state(args)
        counts = {"plan_cache_hits": int(hits > before[0])}
        if range_query:
            counts["pushdown"] = int(pushdown > before[1])
            counts["rollup"] = int(rollup > before[2])
        return counts

    return Counter(after=after, before=state)


LAYERS: Tuple[Layer, ...] = (
    # Substrate: the simulated kernel and the eBPF programs on its hooks.
    Layer("frameworks.emit_slice",
          ("repro.frameworks.base:SgxFramework.emit_slice",)),
    Layer("simkernel.hook_fire", ("repro.simkernel.hooks:HookRegistry.fire",)),
    Layer("ebpf.vm_run", ("repro.ebpf.vm:Vm.run",)),
    # Exporters and the transport.
    Layer("exporters.serve", (
        "repro.exporters.base:Exporter._serve",
        "repro.exporters.teemon_self:TeemonSelfExporter._serve",
    )),
    Layer("exporters.encode_registry", (
        "repro.exporters.base:encode_registry",
        "repro.exporters.teemon_self:encode_registry",
        "repro.openmetrics.encoder:encode_registry",
        "repro.openmetrics:encode_registry",
    ), _len_result("bytes"), ("bytes",)),
    Layer("orchestration.fleet.serve",
          ("repro.orchestration.fleet:FleetExporter._serve",)),
    Layer("net.http.request", ("repro.net.http:HttpNetwork.request",)),
    # Scrape.
    Layer("pmag.scrape.scrape_once",
          ("repro.pmag.scrape:ScrapeManager.scrape_once",),
          _scrape(), ("targets", "failed")),
    Layer("openmetrics.parse_exposition", (
        "repro.pmag.scrape:parse_exposition",
        "repro.openmetrics.parser:parse_exposition",
        "repro.openmetrics:parse_exposition",
    ), Counter(after=lambda args, result, before: {
        "lines": args[0].count("\n"),
    }), ("lines",)),
    # Storage.
    Layer("pmag.storage.append_batch",
          ("repro.pmag.storage:ShardedTsdb.append_batch",),
          _samples_rejected(), ("samples", "rejected")),
    Layer("pmag.storage.append_fingerprinted",
          ("repro.pmag.storage:ShardedTsdb.append_fingerprinted",),
          _fingerprinted(), ("samples", "rejected")),
    Layer("pmag.tsdb.append_batch", ("repro.pmag.tsdb:Tsdb.append_batch",),
          _samples_rejected(), ("samples", "rejected")),
    Layer("pmag.storage.select", (
        "repro.pmag.storage:ShardedTsdb.select",
        "repro.pmag.storage:ShardedTsdb.select_arrays",
        "repro.pmag.storage:ShardedTsdb.select_rollups",
    ), _len_result("series"), ("series",)),
    Layer("pmag.tsdb.select", (
        "repro.pmag.tsdb:Tsdb.select",
        "repro.pmag.tsdb:Tsdb.select_arrays",
        "repro.pmag.tsdb:Tsdb.select_rollups",
    ), _len_result("series"), ("series",)),
    Layer("pmag.tsdb.enforce_retention",
          ("repro.pmag.tsdb:Tsdb.enforce_retention",)),
    Layer("pmag.tsdb.compact", ("repro.pmag.tsdb:Tsdb.compact",)),
    Layer("pmag.wal.append_many", ("repro.pmag.wal:WalWriter.append_many",),
          _wal_append(), ("records", "bytes")),
    Layer("pmag.wal.flush", ("repro.pmag.wal:WalWriter.flush",)),
    Layer("pmag.wal.checkpoint", ("repro.pmag.wal:WalWriter.checkpoint",)),
    # Remote write.
    Layer("pmag.remote_write.flush",
          ("repro.pmag.remote_write:RemoteWriteClient.flush",),
          _client_flush(), ("retries",)),
    Layer("pmag.remote_write.encode_frame",
          ("repro.pmag.remote_write:encode_frame",),
          _len_result("bytes"), ("bytes",)),
    Layer("pmag.remote_write.decode_frame_blocks",
          ("repro.pmag.remote_write:decode_frame_blocks",)),
    Layer("pmag.remote_write.receiver_handle",
          ("repro.pmag.remote_write:RemoteWriteReceiver.handle",),
          _receiver(), ("frames_deduped", "samples_deduped")),
    # Rules, analysis, queries, dashboards.
    Layer("pmag.rules.evaluate", ("repro.pmag.rules:RuleGroup.evaluate",)),
    Layer("pman.analyze_once", ("repro.pman.analyzer:PmanAnalyzer.analyze_once",)),
    Layer("pmag.query.range_query",
          ("repro.pmag.query.engine:QueryEngine.range_query",),
          _query_path(True), ("plan_cache_hits", "pushdown", "rollup")),
    Layer("pmag.query.instant", ("repro.pmag.query.engine:QueryEngine.instant",),
          _query_path(False), ("plan_cache_hits",)),
    Layer("pmv.render_dashboard", (
        "repro.teemon.session:render_dashboard",
        "repro.pmv.render:render_dashboard",
        "repro.pmv:render_dashboard",
    )),
)

#: Span -> the end-to-end metrics (and workloads) it should move.
MOVES: Dict[str, str] = {
    "frameworks.emit_slice": "wall_s_per_vhour on sgx-host; ~0 elsewhere",
    "simkernel.hook_fire": "wall_s_per_vhour on sgx-host; ~0 elsewhere",
    "ebpf.vm_run": "wall_s_per_vhour on sgx-host; ~0 elsewhere",
    "exporters.serve": "scrape_cycle_ms_p50 on sgx-host and dashboard-reads",
    "exporters.encode_registry": "scrape_cycle_ms_p50 on sgx-host and federated-fleet",
    "orchestration.fleet.serve": "wall_s_per_vhour on federated-fleet",
    "net.http.request": "wall_s_per_vhour on federated-fleet",
    "pmag.scrape.scrape_once": "scrape_cycle_ms_p50/p95 on all workloads",
    "openmetrics.parse_exposition": "scrape_cycle_ms_p50 on sgx-host and federated-fleet",
    "pmag.storage.append_batch": "scrape_cycle_ms_p50 on dashboard-reads",
    "pmag.storage.append_fingerprinted": "wall_s_per_vhour on federated-fleet",
    "pmag.tsdb.append_batch": "scrape_cycle_ms_p50 and wall_s_per_vhour on all workloads",
    "pmag.storage.select": "query_ms_p50/p95 on dashboard-reads",
    "pmag.tsdb.select": "query_ms_p50/p95 on dashboard-reads; remote-write collect on federated-fleet",
    "pmag.tsdb.enforce_retention": "scrape_cycle_ms_p95 on all workloads",
    "pmag.tsdb.compact": "scrape_cycle_ms_p95 on dashboard-reads",
    "pmag.wal.append_many": "wall_s_per_vhour on federated-fleet; wal_bytes_per_sample",
    "pmag.wal.flush": "wall_s_per_vhour on federated-fleet",
    "pmag.wal.checkpoint": "wall_s_per_vhour and scrape_cycle_ms_p95 on dashboard-reads",
    "pmag.remote_write.flush": "uplink flush latency and wall_s_per_vhour on federated-fleet",
    "pmag.remote_write.encode_frame": "uplink flush latency and wall_s_per_vhour on federated-fleet",
    "pmag.remote_write.decode_frame_blocks": "uplink flush latency and wall_s_per_vhour on federated-fleet",
    "pmag.remote_write.receiver_handle": "uplink flush latency and wall_s_per_vhour on federated-fleet",
    "pmag.rules.evaluate": "wall_s_per_vhour on sgx-host and federated-fleet (global tier)",
    "pman.analyze_once": "wall_s_per_vhour on sgx-host and federated-fleet (global tier)",
    "pmag.query.range_query": "query_ms_p50/p95 on dashboard-reads",
    "pmag.query.instant": "query_ms_p50/p95 on dashboard-reads",
    "pmv.render_dashboard": "query_ms_p50/p95 on dashboard-reads and sgx-host",
}

#: Shares derived from query-path counts: (metric, span, count).
QUERY_SHARES = (
    ("pmag.query.range_query.plan_cache_hit_ratio",
     "pmag.query.range_query", "plan_cache_hits"),
    ("pmag.query.range_query.pushdown_share", "pmag.query.range_query", "pushdown"),
    ("pmag.query.range_query.rollup_share", "pmag.query.range_query", "rollup"),
    ("pmag.query.instant.plan_cache_hit_ratio",
     "pmag.query.instant", "plan_cache_hits"),
)


def count_unit(count: str) -> str:
    """Unit of a per-span count."""
    return "B" if count == "bytes" else "count"


def metric_names() -> Tuple[str, ...]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer.span}.calls")
        names.append(f"{layer.span}.self_ms")
        names.extend(f"{layer.span}.{count}" for count in layer.counts)
    names.extend(share for share, _span, _count in QUERY_SHARES)
    names.extend(("unattributed_share", "trace_overhead_ratio"))
    return tuple(names)

"""The three benchmark workloads, driven through public entry points.

Each workload is built from its seed alone and advances only the
virtual clock, so a run is deterministic in *what* it does; the
benchmark measures how long the host takes to do it.  Every config knob
that ``TEEMON_TEST_PROFILE`` would move is pinned explicitly
(:func:`pinned_config`), so a CI leg's environment cannot change the
workload.

A workload object is one built instance: ``step()`` is one iteration of
its closed-loop client (a request plus the virtual think time after
it), ``reference_check()`` compares a sampled query against the simple
per-step evaluator, and ``checks()`` returns the correctness verdicts
evaluated at the end of a run.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.clients import RedisBenchmark
from repro.apps.kvstore import RedisLikeServer
from repro.experiments.common import make_sgx_host
from repro.experiments.fig6_syscalls import (
    BENCH_CONNECTIONS,
    BENCH_PIPELINE,
    _local_calibration,
)
from repro.frameworks.scone import COMMIT_AFTER, SconeRuntime
from repro.net.http import HttpNetwork
from repro.orchestration.fleet import NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.pmag.model import METRIC_NAME_LABEL, Labels, Matcher
from repro.pmv.panels import GraphPanel
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng
from repro.teemon import FederationTopology, TeemonConfig, deploy

#: Config fields whose defaults depend on ``TEEMON_TEST_PROFILE``.  Every
#: workload config sets all of them.
PROFILE_FIELDS = (
    "storage_shards",
    "enable_wal",
    "storage_executor_workers",
    "remote_write_frame_samples",
    "enable_tracing",
    "trace_sampling_probability",
)

SCRAPE_INTERVAL_S = 5.0


def pinned_config(**overrides) -> TeemonConfig:
    """A :class:`TeemonConfig` with every profile-dependent field pinned."""
    values = dict(
        storage_shards=1,
        enable_wal=False,
        storage_executor_workers=0,
        remote_write_frame_samples=500,
        enable_tracing=False,
        trace_sampling_probability=None,
        scrape_interval_s=SCRAPE_INTERVAL_S,
    )
    values.update(overrides)
    config = TeemonConfig(**values)
    for name in PROFILE_FIELDS:
        if getattr(config, name) != values[name]:
            raise RuntimeError(f"config field {name} not pinned")
    return config


@dataclass
class Check:
    """One correctness verdict."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Client:
    """The closed-loop client's requests: the wall time (ms) of each, and
    how many failed."""

    request_ms: List[float] = field(default_factory=list)
    errors: int = 0

    def request(self, fn: Callable[[], object]) -> object:
        """Issue one request (a dashboard render or a query) and time it."""
        start = time.perf_counter()
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            self.errors += 1
            return None
        finally:
            self.request_ms.append((time.perf_counter() - start) * 1e3)


#: Relative tolerance for queries served by aggregate pushdown.  Pushdown
#: answers sum/avg windows from prefix sums, a different summation order
#: than the per-step evaluator, so the two agree to a few ulps rather than
#: bit for bit (the repository's own pushdown tests use integer data for
#: exactly this reason).  Every other path must match bit for bit.
PUSHDOWN_REL_TOL = 1e-12


def _same_value(x: float, y: float, rel_tol: float) -> bool:
    if x == y or (x != x and y != y):
        return True
    return abs(x - y) <= rel_tol * max(abs(x), abs(y))


def _same_series(fast, reference, rel_tol: float = 0.0) -> bool:
    """Equality of two range-query results, bit-exact unless ``rel_tol``."""
    if len(fast) != len(reference):
        return False
    for a, b in zip(fast, reference):
        if a.labels != b.labels or len(a.samples) != len(b.samples):
            return False
        for x, y in zip(a.samples, b.samples):
            if x.time_ns != y.time_ns or not _same_value(x.value, y.value, rel_tol):
                return False
    return True


def digest_engines(engines: Sequence, start_ns: int, end_ns: int) -> str:
    """Content hash of every engine's samples in ``[start_ns, end_ns]``
    plus whole-store series and sample counts."""
    digest = hashlib.sha256()
    pack = struct.Struct("<qd").pack
    for engine in engines:
        digest.update(struct.pack(
            "<qqq", engine.series_count(), engine.sample_count(),
            engine.storage_stats()["samples_compacted_total"],
        ))
        for labels, times, values in engine.select_arrays([], start_ns, end_ns):
            digest.update(repr(labels.items()).encode())
            for t, v in zip(times, values):
                digest.update(pack(t, v))
    return digest.hexdigest()


class Workload:
    """Base: one built workload instance."""

    name = ""
    #: Virtual seconds one :meth:`step` advances.
    step_s = 0.0
    #: Builds per end-to-end run; ``setup_s`` is their median.
    setups = 7
    #: Steps of the fixed episode run on the first and last build.
    check_steps = 0
    #: Nominal closed-loop steps per wall second on the reference
    #: machine; sizes the measured phase from ``--seconds``.
    steps_per_second = 1.0

    @classmethod
    def measured_steps(cls, seconds: float) -> int:
        """Steps of the measured phase for a ``seconds`` budget."""
        return max(1, round(seconds * cls.steps_per_second))

    clock: VirtualClock
    #: Virtual time the monitor started scraping.
    start_ns = 0

    def __init__(self, seed: int, lap: Callable[[], None] = lambda: None) -> None:
        """Build the workload from ``seed``.  A long build calls ``lap``
        between its stages, so set-up time can be measured in segments."""
        self.seed = seed
        self.steps = 0
        self.reference_checks: List[Check] = []

    # -- shape ---------------------------------------------------------
    def deployments(self) -> List:
        raise NotImplementedError

    def scrape_managers(self) -> List:
        return [dep.scrape_manager for dep in self.deployments()]

    def timed_scrapers(self) -> List:
        """Scrape managers whose cycles ``scrape_cycle_ms_*`` reports."""
        return self.scrape_managers()

    def uplink_clients(self) -> List:
        clients = []
        for dep in self.deployments():
            if dep.remote_write_client is not None:
                clients.append(dep.remote_write_client)
                clients.extend(dep.remote_write_mirrors)
        return clients

    def engines(self) -> List:
        return [dep.tsdb for dep in self.deployments()]

    def wal_writers(self) -> List:
        writers = []
        for dep in self.deployments():
            wal = dep.wal
            if wal is None:
                continue
            if hasattr(wal, "shard"):
                writers.extend(wal.shard(i) for i in range(wal.shard_count))
            else:
                writers.append(wal)
        return writers

    # -- driving -------------------------------------------------------
    def step(self, client: Client) -> None:
        raise NotImplementedError

    def reference_check(self) -> None:
        """Compare a sampled query against ``range_query_per_step``."""

    def digest(self) -> str:
        return digest_engines(self.engines(), self.start_ns, self.clock.now_ns)

    def checks(self) -> List[Check]:
        """Correctness verdicts at the end of a run."""
        result = list(self.reference_checks)
        result.append(self._storage_accounting())
        result.extend(self._scrape_expectations())
        return result

    # -- shared checks -------------------------------------------------
    def _compare_range(self, label: str, engine, expr: str,
                       start_ns: int, end_ns: int, step_ns: int) -> None:
        stats = engine._tsdb.stats  # noqa: SLF001 - which path served it
        before = stats.pushdown_reads_total
        fast = engine.range_query(expr, start_ns, end_ns, step_ns)
        pushdown = stats.pushdown_reads_total > before
        reference = engine.range_query_per_step(expr, start_ns, end_ns, step_ns)
        ok = _same_series(fast, reference,
                          PUSHDOWN_REL_TOL if pushdown else 0.0)
        self.reference_checks.append(Check(
            f"range_query == range_query_per_step ({label})", ok,
            "" if ok else (f"{expr} over [{start_ns}, {end_ns}]"
                           f"{' (pushdown)' if pushdown else ''}"),
        ))

    def _compare_dashboard(self, dep, board_name: str) -> None:
        board = dep.dashboards[board_name]
        now = self.clock.now_ns
        for row in board.rows:
            for panel in row.panels:
                if isinstance(panel, GraphPanel):
                    expr = panel.resolved_query(board.variables)
                    self._compare_range(
                        f"{board_name}: {panel.title}", dep.engine, expr,
                        max(0, now - panel.window_ns), now, panel.step_ns,
                    )

    def _storage_accounting(self) -> Check:
        """No sample lost inside storage: every accepted append is either
        a stored raw sample or folded into a rollup."""
        bad = []
        for dep in self.deployments():
            engine = dep.tsdb
            stored = (engine.sample_count()
                      + engine.storage_stats()["samples_compacted_total"])
            if engine.total_appends != stored:
                bad.append(f"{dep.kernel.hostname}: appended "
                           f"{engine.total_appends} stored {stored}")
        return Check("storage keeps every accepted sample", not bad,
                     "; ".join(bad))

    def _expected_targets(self, dep) -> int:
        """Targets each cycle should scrape: the four exporters plus the
        monitor's own telemetry."""
        return 5

    def _scrape_expectations(self) -> List[Check]:
        """Each target is scraped once per interval since the monitor
        started, with nothing failed or dropped."""
        checks = []
        interval_ns = int(SCRAPE_INTERVAL_S * NANOS_PER_SEC)
        for dep in self.deployments():
            manager = dep.scrape_manager
            cycles = (self.clock.now_ns - self.start_ns) // interval_ns
            expected = cycles * self._expected_targets(dep)
            ok = (manager.up_writes == expected
                  and manager.samples_dropped == 0
                  and not manager.down_targets())
            checks.append(Check(
                f"scrape count {dep.kernel.hostname}", ok,
                "" if ok else (f"up writes {manager.up_writes} expected "
                               f"{expected}, dropped {manager.samples_dropped}, "
                               f"down {len(manager.down_targets())}"),
            ))
        return checks


# ---------------------------------------------------------------------------
# sgx-host
# ---------------------------------------------------------------------------
class SgxHost(Workload):
    """The paper's deployment: one SGX host running Redis on SCONE under
    full monitoring (eBPF, WAL, recording rules, alerting, PMAN); one
    client refreshes the ``sgx`` dashboard every 30 virtual seconds."""

    name = "sgx-host"
    step_s = 30.0
    check_steps = 10
    steps_per_second = 15.0

    def __init__(self, seed: int, lap: Callable[[], None] = lambda: None) -> None:
        super().__init__(seed)
        kernel, _driver = make_sgx_host(seed=seed, hostname="sgx-host")
        self.kernel = kernel
        self.clock = kernel.clock
        self.dep = deploy(kernel, pinned_config(
            enable_wal=True,
            enable_alerting=True,
            enable_recording_rules=True,
            enable_anomaly_detection=False,
        ))
        self.runtime = SconeRuntime(
            version=COMMIT_AFTER, calibration=_local_calibration(COMMIT_AFTER)
        )
        self.runtime.setup(kernel, container_id="redis")
        self.server = RedisLikeServer()
        # What redis-benchmark does lazily on its first run, done here so
        # the measured phase never pays it.
        self.server.populate_synthetic(100_000, 64)
        self.runtime.load_working_set(self.server.db_bytes)
        self.bench = RedisBenchmark(
            connections=BENCH_CONNECTIONS, pipeline=BENCH_PIPELINE
        )

    def deployments(self):
        return [self.dep]

    def step(self, client: Client) -> None:
        self.bench.run(
            self.runtime, self.server, duration_s=self.step_s, slice_s=1.0,
            ebpf_active=True, full_monitoring=True,
        )
        client.request(lambda: self.dep.session.render("sgx"))
        self.steps += 1

    def reference_check(self) -> None:
        self._compare_dashboard(self.dep, "sgx")


# ---------------------------------------------------------------------------
# dashboard-reads
# ---------------------------------------------------------------------------
#: History nodes replicating the live host's series (fleet-sized label set).
HISTORY_NODES = 10
HISTORY_S = 4 * 3600
HISTORY_STEP_S = 30
#: Virtual think time after each client request.
DASHBOARD_THINK_S = 1.0
#: Ad-hoc windows: (window seconds, step seconds); ``None`` spans the
#: whole history, and its step is the rollup resolution.
ADHOC_WINDOWS = ((300, 15), (3600, 60), (None, 300))
_COUNTER_SUFFIXES = ("_total", "_bucket", "_count", "_sum")


def _template_series(seed: int) -> List[Labels]:
    """The series one monitored SGX host produces under Redis traffic."""
    kernel, _driver = make_sgx_host(seed=seed, hostname="template")
    dep = deploy(kernel, pinned_config(enable_self_telemetry=False))
    runtime = SconeRuntime(
        version=COMMIT_AFTER, calibration=_local_calibration(COMMIT_AFTER)
    )
    runtime.setup(kernel, container_id="redis")
    RedisBenchmark(connections=BENCH_CONNECTIONS, pipeline=BENCH_PIPELINE).run(
        runtime, RedisLikeServer(), duration_s=10.0, slice_s=1.0,
        ebpf_active=True, full_monitoring=True,
    )
    series = sorted((labels for labels, _ in dep.tsdb.series_items()),
                    key=lambda labels: labels.items())
    dep.shutdown()
    return series


class DashboardReads(Workload):
    """A 4-shard, downsampling store holding hours of fleet history,
    read by one closed-loop client (dashboards plus ad-hoc per-node
    queries) while the live host keeps being scraped."""

    name = "dashboard-reads"
    step_s = DASHBOARD_THINK_S
    setups = 3
    check_steps = 120
    steps_per_second = 300.0

    def __init__(self, seed: int, lap: Callable[[], None] = lambda: None) -> None:
        super().__init__(seed)
        self.rng = random.Random(seed)
        template = _template_series(seed)
        lap()
        kernel, _driver = make_sgx_host(seed=seed, hostname="testbed")
        self.kernel = kernel
        self.clock = kernel.clock
        # History ends where live scraping begins.
        kernel.clock.advance(seconds(HISTORY_S))
        self.start_ns = kernel.clock.now_ns
        self.history_start_ns = 0
        self.dep = deploy(kernel, pinned_config(
            storage_shards=4,
            enable_wal=True,
            downsample_after_s=3600.0,
            block_range_s=1800.0,
            downsample_resolution_s=300.0,
        ))
        self.nodes = [f"node-{index:02d}" for index in range(HISTORY_NODES)]
        self.template_count = len(template)
        self.history_samples, self.history_rejected = self._fill(template, lap)
        self.dep.tsdb.compact(self.clock.now_ns)
        metrics = sorted({labels.metric_name for labels in template})
        self.counters = [m for m in metrics if m.endswith(_COUNTER_SUFFIXES)]
        self.gauges = [m for m in metrics if not m.endswith(_COUNTER_SUFFIXES)]
        self._last_request: Optional[Tuple[str, object]] = None

    def _fill(self, template: Sequence[Labels], lap) -> Tuple[int, int]:
        """Append the seeded history through the public batch path."""
        series = []
        for node in self.nodes:
            for labels in template:
                mapping = dict(labels.items())
                mapping["instance"] = node
                series.append(Labels(mapping))
        counter = [labels.metric_name.endswith(_COUNTER_SUFFIXES)
                   for labels in series]
        rng = random.Random(self.seed * 7919 + 1)
        values = [rng.uniform(0.0, 1000.0) for _ in series]
        appended = rejected = 0
        append_batch = self.dep.tsdb.append_batch
        start = self.history_start_ns
        for tick in range(HISTORY_S // HISTORY_STEP_S):
            time_ns = start + tick * HISTORY_STEP_S * NANOS_PER_SEC + 1
            batch = []
            for index, labels in enumerate(series):
                if counter[index]:
                    values[index] += rng.expovariate(0.05)
                else:
                    values[index] = max(0.0, values[index] + rng.gauss(0.0, 5.0))
                batch.append((labels, time_ns, values[index]))
            rejected += len(append_batch(batch))
            appended += len(batch)
            lap()
        return appended, rejected

    def deployments(self):
        return [self.dep]

    def _adhoc(self) -> Tuple[str, int, int, int]:
        """One ad-hoc query: a per-node selector with distinct matchers,
        or (one in three) a fleet-wide aggregate that shards push down.
        Like a dashboard client, the range is aligned to the step, which
        is what lets full-history windows read the rollups."""
        rng = self.rng
        window_s, step_s = ADHOC_WINDOWS[self.rng.randrange(len(ADHOC_WINDOWS))]
        if rng.random() < 1 / 3:
            metric = rng.choice(self.gauges)
            fn = rng.choice(("avg_over_time", "max_over_time"))
            agg = rng.choice(("sum", "max", "avg"))
            expr = f"{agg} by (instance) ({fn}({metric}[5m]))"
        else:
            node = rng.choice(self.nodes)
            if rng.random() < 0.5:
                metric = rng.choice(self.counters)
                expr = f'rate({metric}{{instance="{node}"}}[5m])'
            else:
                metric = rng.choice(self.gauges)
                fn = rng.choice(("avg_over_time", "max_over_time", "min_over_time"))
                expr = f'{fn}({metric}{{instance="{node}"}}[5m])'
        step_ns = step_s * NANOS_PER_SEC
        end = self.clock.now_ns - self.clock.now_ns % step_ns
        if window_s is None:
            start = self.history_start_ns + step_ns - self.history_start_ns % step_ns
        else:
            start = end - window_s * NANOS_PER_SEC
        return expr, start, end, step_ns

    def step(self, client: Client) -> None:
        slot = self.steps % 8
        if slot in (0, 3, 6):
            board = ("sgx", "docker", "infra")[slot // 3]
            session = self.dep.session
            client.request(lambda: session.render(board))
            self._last_request = ("dashboard", board)
        else:
            query = self._adhoc()
            engine = self.dep.engine
            client.request(lambda: engine.range_query(*query))
            self._last_request = ("adhoc", query)
        self.steps += 1
        self.clock.advance(seconds(self.step_s))

    def reference_check(self) -> None:
        """Re-evaluate the last request with the per-step evaluator where
        raw samples cover its window (rollup-served history has no raw
        reference)."""
        if self._last_request is None:
            return
        kind, what = self._last_request
        if kind == "dashboard":
            self._compare_dashboard(self.dep, what)
            return
        expr, start, end, step_ns = what
        if end - start <= 300 * NANOS_PER_SEC:
            self._compare_range("ad-hoc", self.dep.engine, expr, start, end, step_ns)

    def checks(self) -> List[Check]:
        result = super().checks()
        expected = (HISTORY_NODES * self.template_count
                    * (HISTORY_S // HISTORY_STEP_S))
        ok = self.history_samples == expected and self.history_rejected == 0
        result.append(Check(
            "history ingest count", ok,
            "" if ok else (f"appended {self.history_samples} expected "
                           f"{expected}, rejected {self.history_rejected}"),
        ))
        return result


# ---------------------------------------------------------------------------
# federated-fleet
# ---------------------------------------------------------------------------
REGIONS = 2
NODES_PER_REGION = 8
LEAVES_PER_REGION = 2
#: The metrics of one FleetExporter exposition (one sample each).
FLEET_METRICS = (
    "fleet_exporter_build_info", "sgx_epc_pages_evicted_total",
    "sgx_aexs_total", "ebpf_syscalls_total", "node_cpu_utilization",
)
#: The global fleet view the federated client refreshes.
FLEET_VIEW_RANGE = (
    "sum by (instance) (rate(sgx_epc_pages_evicted_total[1m]))",
    "sum by (instance) (rate(sgx_aexs_total[1m]))",
)
FLEET_VIEW_INSTANT = (
    'sum(up{job="sgx"})',
    "avg(node_cpu_utilization)",
)


class FederatedFleet(Workload):
    """Two regions of SGX nodes: leaves scrape them and ship raw frames
    to WAL-backed region relays, which ship to a 4-shard global tier
    with rules and alerting on; the global fleet view is refreshed every
    10 virtual seconds."""

    name = "federated-fleet"
    step_s = 10.0
    check_steps = 30
    steps_per_second = 15.0

    def __init__(self, seed: int, lap: Callable[[], None] = lambda: None) -> None:
        super().__init__(seed)
        self.clock = clock = VirtualClock()
        rng = DeterministicRng(seed)
        network = HttpNetwork()
        self.fleets = []
        for region in range(REGIONS):
            fleet = NodeFleet(Cluster(clock=clock), network,
                              rng.fork(f"fleet-{region}"),
                              node_prefix=f"r{region}-node")
            fleet.add_nodes(NODES_PER_REGION)
            self.fleets.append(fleet)
        # Seeded EPC-thrash bursts give the global alert rules real work.
        bursts = random.Random(seed)
        for fleet in self.fleets:
            for _ in range(3):
                node = bursts.choice(fleet.node_names())
                begin = bursts.randrange(60, 3600)
                fleet.exporter(node).inject_epc_thrash(
                    seconds(begin), seconds(begin + 60), pages_per_s=2000.0
                )
        quiet = dict(enable_exporters=False, enable_recording_rules=False,
                     enable_anomaly_detection=False, enable_alerting=False)
        leaf = pinned_config(**quiet)
        relay = pinned_config(**quiet, enable_self_telemetry=False,
                              remote_write_receiver=True, enable_wal=True)
        global_tier = pinned_config(
            enable_exporters=False, remote_write_receiver=True,
            storage_shards=4, enable_recording_rules=True,
            enable_alerting=True, enable_anomaly_detection=False,
        )
        topo = FederationTopology(clock, network)
        topo.add("global", global_tier)
        for region in range(REGIONS):
            topo.add(f"region-{region}", relay, uplink="global")
        for region in range(REGIONS):
            for index in range(LEAVES_PER_REGION):
                topo.add(f"leaf-{region}-{index}", leaf,
                         uplink=f"region-{region}")
        self.nodes = topo.build()
        self.leaves = []
        for region, fleet in enumerate(self.fleets):
            for index in range(LEAVES_PER_REGION):
                dep = self.nodes[f"leaf-{region}-{index}"]
                dep.add_discovery(_leaf_discovery(fleet, index))
                self.leaves.append(dep)
        self.relays = [self.nodes[f"region-{r}"] for r in range(REGIONS)]
        self.global_dep = self.nodes["global"]

    def deployments(self):
        return [self.global_dep] + self.relays + self.leaves

    def timed_scrapers(self) -> List:
        # The leaves scrape the fleet; relays and the global tier only
        # write their own meta series each cycle.
        return [dep.scrape_manager for dep in self.leaves]

    def step(self, client: Client) -> None:
        self.clock.advance(seconds(self.step_s))
        session = self.global_dep.session
        for expr in FLEET_VIEW_RANGE:
            client.request(lambda: session.query_range(expr, 300.0, 15.0))
        for expr in FLEET_VIEW_INSTANT:
            client.request(lambda: session.query(expr))
        self.steps += 1

    def reference_check(self) -> None:
        end = self.clock.now_ns
        for expr in FLEET_VIEW_RANGE:
            self._compare_range(
                "global fleet view", self.global_dep.engine, expr,
                max(0, end - 300 * NANOS_PER_SEC), end, 15 * NANOS_PER_SEC,
            )

    def _expected_targets(self, dep) -> int:
        # Leaves scrape their share of the fleet plus their own
        # self-telemetry; relays scrape nothing; the global tier only
        # itself.
        if dep in self.leaves:
            return NODES_PER_REGION // LEAVES_PER_REGION + 1
        return 0 if dep in self.relays else 1

    def checks(self) -> List[Check]:
        result = super().checks()
        # Receiver ledgers: applied + deduped + replay hits == shipped.
        tiers = [
            (relay, [leaf for leaf in self.leaves
                     if leaf.config.remote_write_url
                     == relay.remote_write_receiver.url])
            for relay in self.relays
        ]
        tiers.append((self.global_dep, self.relays))
        for receiver_dep, sending in tiers:
            stats = receiver_dep.remote_write_receiver.stats()
            landed = (stats["samples_applied"] + stats["samples_deduped"]
                      + stats["replay_dedup_hits"])
            shipped = sum(dep.remote_write_client.samples_shipped
                          for dep in sending)
            ok = landed == shipped and shipped > 0
            result.append(Check(
                f"receiver ledger {receiver_dep.kernel.hostname}", ok,
                "" if ok else f"landed {landed} shipped {shipped}",
            ))
        # Every fleet exposition carries a fixed number of samples, and
        # the leaves store each of them exactly once.
        served = sum(fleet.exporter(node).scrapes_served
                     for fleet in self.fleets for node in fleet.node_names())
        stored = 0
        for dep in self.leaves:
            for metric in FLEET_METRICS:
                for _labels, times, _values in dep.tsdb.select_arrays(
                        [Matcher.eq(METRIC_NAME_LABEL, metric)],
                        0, self.clock.now_ns):
                    stored += len(times)
        expected = served * len(FLEET_METRICS)
        ok = stored == expected and served > 0
        result.append(Check(
            "fleet ingest count", ok,
            "" if ok else f"stored {stored} expected {expected}",
        ))
        return result


def _leaf_discovery(fleet: NodeFleet, shard: int):
    """A leaf's share of its region: nodes whose index matches mod the
    leaf count."""
    base = fleet.discovery()

    def discover():
        return [
            target for target in base()
            if int(target.instance.rsplit("-", 1)[1]) % LEAVES_PER_REGION == shard
        ]

    return discover


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (SgxHost, DashboardReads, FederatedFleet)
}

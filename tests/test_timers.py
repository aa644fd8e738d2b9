"""Periodic jobs on the virtual clock: late-bound callbacks, clean teardown.

Every fixed-cadence job (scrapes, rule groups, PMAN analysis, WAL
maintenance, uplink flushes, HA heartbeats, fleet churn) runs on
:meth:`~repro.simkernel.clock.VirtualClock.every`.  These tests pin the
two properties the rest of the suite would not notice losing: a job
looks its method up on every tick, so a wrapper patched onto the class
after ``start()`` still runs; and stopping (or killing) a monitoring
stack leaves no timer of its own on the clock.
"""

import pytest

from repro.net.http import HttpNetwork
from repro.orchestration.fleet import FleetChurner, NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.pmag.alerting import AlertingRule, Receiver, Route
from repro.pmag.query.engine import QueryEngine
from repro.pmag.scrape import ScrapeManager
from repro.pmag.tsdb import Tsdb
from repro.pman.analyzer import PmanAnalyzer
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.teemon import TeemonConfig, deploy, deploy_ha_pair


# ---------------------------------------------------------------------------
# Late binding
# ---------------------------------------------------------------------------
def test_methods_patched_after_start_run_on_the_next_tick(monkeypatch):
    clock = VirtualClock()
    tsdb = Tsdb()
    manager = ScrapeManager(clock, HttpNetwork(), tsdb)
    analyzer = PmanAnalyzer(clock, QueryEngine(tsdb), rules=[],
                            every_ns=manager.interval_ns)
    manager.start()
    analyzer.start()
    calls = []

    def wrap(cls, name):
        original = getattr(cls, name)

        def wrapper(self):
            calls.append(name)
            return original(self)

        monkeypatch.setattr(cls, name, wrapper)

    wrap(ScrapeManager, "scrape_once")
    wrap(PmanAnalyzer, "analyze_once")
    clock.advance(manager.interval_ns)
    assert calls == ["scrape_once", "analyze_once"]
    manager.stop()
    analyzer.stop()


# ---------------------------------------------------------------------------
# Nothing left ticking after stop/kill
# ---------------------------------------------------------------------------
def _stack(seed):
    """An HA pair of full monitors shipping to a receiver, plus a churned
    fleet mid-upgrade; nothing started yet."""
    clock = VirtualClock()
    network = HttpNetwork()
    fleet = NodeFleet(Cluster(clock=clock), network, DeterministicRng(seed))
    fleet.add_nodes(4)
    # Reboots are substrate (they rejoin after the churner stops), so
    # the churner only joins and drains here.
    churner = FleetChurner(fleet, interval_s=10.0, reboot_weight=0.0,
                           min_nodes=2, max_nodes=8)
    receiver = deploy(
        Kernel(seed=seed, hostname="global", clock=clock),
        TeemonConfig(enable_exporters=False, remote_write_receiver=True),
        network=network, start=False,
    )
    pair = deploy_ha_pair(
        [Kernel(seed=seed + index, hostname=f"mon-{index}", clock=clock)
         for index in range(2)],
        TeemonConfig(
            enable_exporters=False,
            downsample_after_s=60.0, block_range_s=30.0,
            downsample_resolution_s=15.0,
            enable_anomaly_detection=True, anomaly_interval_s=10.0,
            enable_alerting=True, alert_eval_interval_s=5.0,
            alert_rules=[AlertingRule(name="Up", expr="up >= 0")],
            alert_route=Route(receiver="hook", group_interval_s=5.0,
                              repeat_interval_s=5.0),
            alert_receivers=[Receiver("hook", url="http://nowhere:80/hook")],
            remote_write_url=receiver.remote_write_receiver.url,
        ),
        network=network, start=False,
    )
    for replica in pair.replicas:
        replica.add_discovery(fleet.discovery())
    return clock, fleet, churner, receiver, pair


def _start(fleet, churner, receiver, pair):
    receiver.start()
    for replica in pair.replicas:
        replica.start()
    pair.start()
    churner.start()
    fleet.rolling_upgrade("v2", batch_size=2, interval_s=5.0)


def _run_until_retry_pending(clock, pair):
    """Advance past warm-up, then until a webhook retry is in flight."""
    clock.advance(seconds(60))
    router = pair.replicas[0].notification_router
    for _ in range(200):
        scheduled = router.counters.get(("hook", "retry"), 0)
        if scheduled > len(router.journal.lines("notify-retry")):
            return
        clock.advance(seconds(0.1))
    pytest.fail("no webhook retry was ever pending")


@pytest.mark.parametrize("teardown", ["stop", "kill"])
def test_stack_leaves_no_timer_behind(teardown):
    clock, fleet, churner, receiver, pair = _stack(seed=5)
    before = clock.pending_count()
    _start(fleet, churner, receiver, pair)
    _run_until_retry_pending(clock, pair)
    assert fleet.upgraded > 0
    assert pair.heartbeats > 0 and churner.events > 0
    replica = pair.replicas[0]
    assert replica.wal is not None
    assert replica.anomaly_detector is not None
    assert replica.remote_write_client.frames_acked > 0

    churner.stop()
    pair.stop()
    for replica in pair.replicas:
        getattr(replica, teardown)()
    getattr(receiver, teardown)()
    assert clock.pending_count() == before

"""Alerting engine units: state machine, routing, silences, conflicts.

Small, direct tests of the alerting building blocks against a bare
TSDB + query engine + virtual clock — no full deployment.  The chaos
and property suites (test_alerting_chaos.py, test_properties_alerting.py)
cover the end-to-end invariants; this module pins the local behaviour
each piece promises.
"""

import pytest

from repro.errors import TsdbError
from repro.net.http import HttpNetwork
from repro.pmag.alerting import (
    AlertJournal,
    AlertingRule,
    Inhibitor,
    InhibitRule,
    NotificationRouter,
    Receiver,
    Route,
    Silence,
    SilenceStore,
    STATE_FIRING,
    STATE_PENDING,
)
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.rules import RecordingRule, RuleGroup
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng


# ---------------------------------------------------------------------------
# Rig helpers
# ---------------------------------------------------------------------------
def make_rig():
    clock = VirtualClock()
    tsdb = Tsdb()
    engine = QueryEngine(tsdb)
    return clock, tsdb, engine


def set_signal(tsdb, clock, value, instance="a"):
    tsdb.append(Labels.of("sig", instance=instance), clock.now_ns, value)


def make_router(clock, **kwargs):
    network = kwargs.pop("network", HttpNetwork())
    receivers = kwargs.pop("receivers", [Receiver("pager")])
    route = kwargs.pop("route", Route(receiver=receivers[0].name))
    journal = kwargs.pop("journal", AlertJournal())
    router = NotificationRouter(
        clock, network, route, receivers,
        rng=DeterministicRng(3), journal=journal, **kwargs,
    )
    return router, journal


def fire(router, clock, name="X", **labels):
    """Push one synthetic pending+firing event pair through the router."""
    from repro.pmag.alerting.state import AlertInstance

    inst = AlertInstance(
        labels=Labels({"alertname": name, **labels}),
        active_since_ns=clock.now_ns, state=STATE_FIRING, value=1.0,
    )
    router.handle([("pending", inst), ("firing", inst)], clock.now_ns)
    return inst


# ---------------------------------------------------------------------------
# State machine
# ---------------------------------------------------------------------------
def test_pending_then_firing_after_for_duration():
    clock, tsdb, engine = make_rig()
    rule = AlertingRule(name="Sig", expr="sig == 1", for_s=30.0)

    set_signal(tsdb, clock, 1.0)
    events = rule.evaluate(engine, tsdb, clock.now_ns)
    assert [kind for kind, _ in events] == ["pending"]
    assert rule.active()[0].state == STATE_PENDING

    clock.advance(seconds(15))
    set_signal(tsdb, clock, 1.0)
    assert rule.evaluate(engine, tsdb, clock.now_ns) == []  # still pending

    clock.advance(seconds(15))
    set_signal(tsdb, clock, 1.0)
    events = rule.evaluate(engine, tsdb, clock.now_ns)
    assert [kind for kind, _ in events] == ["firing"]
    instance = rule.firing()[0]
    assert instance.fired_at_ns - instance.active_since_ns == seconds(30)


def test_for_zero_still_emits_pending_before_firing():
    clock, tsdb, engine = make_rig()
    rule = AlertingRule(name="Sig", expr="sig == 1", for_s=0.0)
    set_signal(tsdb, clock, 1.0)
    events = rule.evaluate(engine, tsdb, clock.now_ns)
    assert [kind for kind, _ in events] == ["pending", "firing"]


def test_firing_resolves_and_pending_expires_when_signal_clears():
    clock, tsdb, engine = make_rig()
    firing_rule = AlertingRule(name="F", expr="sig == 1", for_s=0.0)
    pending_rule = AlertingRule(name="P", expr="sig == 1", for_s=600.0)
    set_signal(tsdb, clock, 1.0)
    firing_rule.evaluate(engine, tsdb, clock.now_ns)
    pending_rule.evaluate(engine, tsdb, clock.now_ns)

    clock.advance(seconds(15))
    set_signal(tsdb, clock, 0.0)  # comparison filters it out
    assert [k for k, _ in firing_rule.evaluate(engine, tsdb, clock.now_ns)] \
        == ["resolved"]
    assert [k for k, _ in pending_rule.evaluate(engine, tsdb, clock.now_ns)] \
        == ["expired"]
    assert firing_rule.active() == [] and pending_rule.active() == []


def test_rule_labels_override_series_labels_and_set_alertname():
    clock, tsdb, engine = make_rig()
    rule = AlertingRule(
        name="Sig", expr="sig == 1", labels={"severity": "page"},
    )
    set_signal(tsdb, clock, 1.0, instance="host-1")
    rule.evaluate(engine, tsdb, clock.now_ns)
    labels = rule.active()[0].labels
    assert labels.get("alertname") == "Sig"
    assert labels.get("severity") == "page"
    assert labels.get("instance") == "host-1"
    assert labels.get("__name__") == ""  # metric name is dropped


def test_restore_rebuilds_active_set_with_original_active_since():
    clock, tsdb, engine = make_rig()
    rule = AlertingRule(name="Sig", expr="sig == 1", for_s=60.0)
    set_signal(tsdb, clock, 1.0)
    rule.evaluate(engine, tsdb, clock.now_ns)
    started_ns = clock.now_ns

    clock.advance(seconds(15))
    set_signal(tsdb, clock, 1.0)
    rule.evaluate(engine, tsdb, clock.now_ns)

    # "Crash": a fresh clone restores from the synthetic series alone.
    clock.advance(seconds(10))
    fresh = rule.clone()
    restored = fresh.restore(tsdb, clock.now_ns, seconds(3600))
    assert len(restored) == 1
    assert restored[0].state == STATE_PENDING
    assert restored[0].active_since_ns == started_ns
    assert restored[0].restored

    # The pre-crash pending time counts toward for_: 60s after the
    # original activation the restored instance fires.
    clock.advance(seconds(35))
    set_signal(tsdb, clock, 1.0)
    events = fresh.evaluate(engine, tsdb, clock.now_ns)
    assert [k for k, _ in events] == ["firing"]


def test_restore_skips_alerts_resolved_before_the_crash():
    clock, tsdb, engine = make_rig()
    rule = AlertingRule(name="Sig", expr="sig == 1", for_s=0.0)
    set_signal(tsdb, clock, 1.0)
    rule.evaluate(engine, tsdb, clock.now_ns)
    clock.advance(seconds(15))
    set_signal(tsdb, clock, 0.0)
    rule.evaluate(engine, tsdb, clock.now_ns)  # resolved + tombstone

    clock.advance(seconds(5))
    fresh = rule.clone()
    assert fresh.restore(tsdb, clock.now_ns, seconds(3600)) == []


def test_restore_marks_firing_alerts_firing():
    clock, tsdb, engine = make_rig()
    rule = AlertingRule(name="Sig", expr="sig == 1", for_s=0.0)
    set_signal(tsdb, clock, 1.0)
    rule.evaluate(engine, tsdb, clock.now_ns)

    clock.advance(seconds(5))
    fresh = rule.clone()
    restored = fresh.restore(tsdb, clock.now_ns, seconds(3600))
    assert [inst.state for inst in restored] == [STATE_FIRING]


# ---------------------------------------------------------------------------
# Silences and inhibition
# ---------------------------------------------------------------------------
def test_silence_covers_matching_labels_within_window():
    silence = Silence(
        match={"alertname": "X"}, start_ns=100, end_ns=200, comment="maint",
    )
    labels = Labels({"alertname": "X", "instance": "a"})
    assert silence.covers(labels, 100)
    assert silence.covers(labels, 199)
    assert not silence.covers(labels, 200)  # end is exclusive
    assert not silence.covers(Labels({"alertname": "Y"}), 150)


def test_silence_validation():
    with pytest.raises(TsdbError):
        Silence(match={}, start_ns=0, end_ns=10)
    with pytest.raises(TsdbError):
        Silence(match={"a": "b"}, start_ns=10, end_ns=10)


def test_inhibitor_suppresses_target_when_source_fires_with_equal_labels():
    inhibitor = Inhibitor([
        InhibitRule(
            source={"alertname": "NodeDown"},
            target={"alertname": "TargetDown"},
            equal=("instance",),
        )
    ])
    firing = [Labels({"alertname": "NodeDown", "instance": "a"})]
    assert inhibitor.is_inhibited(
        Labels({"alertname": "TargetDown", "instance": "a"}), firing
    )
    assert not inhibitor.is_inhibited(
        Labels({"alertname": "TargetDown", "instance": "b"}), firing
    )


def test_inhibitor_never_self_inhibits():
    inhibitor = Inhibitor([
        InhibitRule(source={"severity": "page"}, target={"severity": "page"})
    ])
    labels = Labels({"alertname": "X", "severity": "page"})
    assert not inhibitor.is_inhibited(labels, [labels])


# ---------------------------------------------------------------------------
# Notification router
# ---------------------------------------------------------------------------
def test_journal_only_receiver_delivers_at_group_wait():
    clock = VirtualClock()
    router, journal = make_router(clock, route=Route(
        receiver="pager", group_wait_s=5.0,
    ))
    fire(router, clock)
    assert journal.lines("notify-delivered") == []
    clock.advance(seconds(5))
    delivered = journal.lines("notify-delivered")
    assert len(delivered) == 1 and "firing=1 resolved=0" in delivered[0]


def test_grouping_batches_same_alertname_into_one_notification():
    clock = VirtualClock()
    router, journal = make_router(clock, route=Route(
        receiver="pager", group_wait_s=10.0, group_by=("alertname",),
    ))
    fire(router, clock, name="X", instance="a")
    clock.advance(seconds(2))
    fire(router, clock, name="X", instance="b")
    clock.advance(seconds(8))
    delivered = journal.lines("notify-delivered")
    assert len(delivered) == 1 and "firing=2 resolved=0" in delivered[0]


def test_unchanged_group_is_not_renotified_without_repeat_interval():
    clock = VirtualClock()
    router, journal = make_router(clock)
    fire(router, clock)
    clock.advance(seconds(600))
    assert len(journal.lines("notify-delivered")) == 1


def test_repeat_interval_renotifies_long_running_alert():
    clock = VirtualClock()
    router, journal = make_router(clock, route=Route(
        receiver="pager", repeat_interval_s=120.0,
    ))
    fire(router, clock)
    clock.advance(seconds(350))
    assert len(journal.lines("notify-delivered")) == 3  # t=0, 120, 240


def test_routing_tree_first_matching_child_wins():
    clock = VirtualClock()
    receivers = [Receiver("default"), Receiver("pages"), Receiver("tickets")]
    route = Route(receiver="default", routes=(
        Route(receiver="pages", match=(("severity", "page"),)),
        Route(receiver="tickets", match=(("severity", "ticket"),)),
    ))
    router, journal = make_router(
        clock, receivers=receivers, route=route,
    )
    fire(router, clock, name="A", severity="page")
    fire(router, clock, name="B", severity="misc")
    clock.advance(seconds(1))
    delivered = "\n".join(journal.lines("notify-delivered"))
    assert "pages" in delivered and "default" in delivered
    assert "tickets" not in delivered


def test_routing_tree_continue_also_consults_later_siblings():
    clock = VirtualClock()
    receivers = [Receiver("default"), Receiver("audit"), Receiver("pages")]
    route = Route(receiver="default", routes=(
        Route(receiver="audit", continue_=True),
        Route(receiver="pages", match=(("severity", "page"),)),
    ))
    router, journal = make_router(clock, receivers=receivers, route=route)
    fire(router, clock, name="A", severity="page")
    clock.advance(seconds(1))
    delivered = "\n".join(journal.lines("notify-delivered"))
    assert "audit" in delivered and "pages" in delivered
    assert "default" not in delivered


def test_router_rejects_duplicate_receiver():
    clock = VirtualClock()
    with pytest.raises(TsdbError):
        NotificationRouter(
            clock, HttpNetwork(), Route(receiver="pager"),
            [Receiver("pager"), Receiver("pager")],
        )


def test_router_rejects_route_with_unknown_receiver():
    clock = VirtualClock()
    with pytest.raises(TsdbError):
        NotificationRouter(
            clock, HttpNetwork(), Route(receiver="ghost"), [Receiver("real")],
        )


def test_silenced_alert_is_not_delivered_until_silence_expires():
    clock = VirtualClock()
    silences = SilenceStore([Silence(
        match={"alertname": "X"}, start_ns=0, end_ns=seconds(60),
        comment="maintenance",
    )])
    router, journal = make_router(clock, silences=silences, route=Route(
        receiver="pager", group_interval_s=10.0,
    ))
    fire(router, clock)
    clock.advance(seconds(30))
    assert journal.lines("notify-delivered") == []
    assert any("maintenance" in line
               for line in journal.lines("notify-silenced"))
    # The muted group keeps re-checking; after expiry it delivers.
    clock.advance(seconds(60))
    assert len(journal.lines("notify-delivered")) == 1


def test_resolved_notification_is_sent_even_while_silenced():
    clock = VirtualClock()
    silences = SilenceStore([Silence(
        match={"alertname": "X"}, start_ns=0, end_ns=seconds(600),
    )])
    router, journal = make_router(clock, silences=silences, route=Route(
        receiver="pager", group_interval_s=5.0,
    ))
    instance = fire(router, clock)
    clock.advance(seconds(10))
    assert journal.lines("notify-delivered") == []
    router.handle([("resolved", instance)], clock.now_ns)
    clock.advance(seconds(10))
    delivered = journal.lines("notify-delivered")
    assert len(delivered) == 1 and "firing=0 resolved=1" in delivered[0]


def test_inhibited_alert_is_suppressed_and_counted():
    clock = VirtualClock()
    inhibitor = Inhibitor([InhibitRule(
        source={"alertname": "NodeDown"},
        target={"alertname": "TargetDown"},
        equal=("instance",),
    )])
    router, journal = make_router(clock, inhibitor=inhibitor)
    fire(router, clock, name="NodeDown", instance="a")
    fire(router, clock, name="TargetDown", instance="a")
    clock.advance(seconds(1))
    delivered = "\n".join(journal.lines("notify-delivered"))
    assert "alertname=NodeDown" not in delivered  # subject is the group key
    assert len(journal.lines("notify-inhibited")) == 1
    assert router.counters[("pager", "inhibited")] == 1
    # NodeDown itself still delivered (self-inhibition guard).
    assert len(journal.lines("notify-delivered")) == 1


def test_webhook_receiver_retries_then_succeeds():
    clock = VirtualClock()
    network = HttpNetwork()
    calls = []

    def flaky(body):
        calls.append(body)
        if len(calls) < 3:
            raise RuntimeError("boom")  # becomes a 500
        return "ok"

    endpoint = network.register("hook", 8080, "/n", lambda: "ok")
    endpoint.post_handler = flaky
    router, journal = make_router(
        clock, network=network,
        receivers=[Receiver("hook", url="http://hook:8080/n")],
        route=Route(receiver="hook"),
        max_retries=3,
    )
    fire(router, clock)
    clock.advance(seconds(30))  # cover the jittered backoff
    assert len(calls) == 3
    assert len(journal.lines("notify-delivered")) == 1
    assert router.counters[("hook", "retry")] == 2
    assert router.counters[("hook", "delivered")] == 1


def test_webhook_receiver_posts_one_line_per_grouped_alert():
    clock = VirtualClock()
    network = HttpNetwork()
    inbox = []
    endpoint = network.register("chat", 8080, "/hook", lambda: "")
    endpoint.post_handler = lambda body: (inbox.append(body), "ok")[1]
    router, journal = make_router(
        clock, network=network,
        receivers=[Receiver("chat", url="http://chat:8080/hook")],
        route=Route(receiver="chat", group_interval_s=5.0),
    )
    instance = fire(router, clock, instance="sgx-host")
    clock.advance(seconds(1))
    router.handle([("resolved", instance)], clock.now_ns)
    clock.advance(seconds(10))
    assert inbox == [
        "firing alertname=X,instance=sgx-host",
        "resolved alertname=X,instance=sgx-host",
    ]
    assert router.counters[("chat", "delivered")] == 2


def test_webhook_receiver_fails_after_retry_budget():
    clock = VirtualClock()
    network = HttpNetwork()
    router, journal = make_router(
        clock, network=network,
        receivers=[Receiver("hook", url="http://hook:8080/missing")],
        route=Route(receiver="hook"),
        max_retries=2,
    )
    fire(router, clock)
    clock.advance(seconds(30))
    assert len(journal.lines("notify-failed")) == 1
    assert router.counters[("hook", "retry")] == 2
    assert router.counters[("hook", "failed")] == 1


def test_resolved_notification_is_sent():
    clock = VirtualClock()
    router, journal = make_router(clock, route=Route(
        receiver="pager", group_interval_s=5.0,
    ))
    instance = fire(router, clock)
    clock.advance(seconds(1))
    clock.advance(seconds(10))
    router.handle([("resolved", instance)], clock.now_ns)
    clock.advance(seconds(10))
    delivered = journal.lines("notify-delivered")
    assert any("firing=0 resolved=1" in line for line in delivered)


# ---------------------------------------------------------------------------
# Recording-rule label conflicts (pinned behaviour + visibility)
# ---------------------------------------------------------------------------
def conflict_rig():
    clock, tsdb, engine = make_rig()
    for instance in ("a", "b"):
        tsdb.append(
            Labels.of("reqs", instance=instance, env="prod"),
            clock.now_ns, 1.0,
        )
    return clock, tsdb, engine


def test_static_label_collision_overwrites_and_is_counted():
    clock, tsdb, engine = conflict_rig()
    group = RuleGroup("g", [RecordingRule(
        record="job:reqs:tagged", expr="reqs",
        static_labels={"env": "staging"},  # collides with env=prod
    )])
    group.evaluate(engine, tsdb, clock.now_ns)
    # Pinned: the static label wins on every output series...
    out = tsdb.select_metric("job:reqs:tagged", 0, clock.now_ns + 1)
    assert {s.labels.get("env") for s in out} == {"staging"}
    # ...and every overwrite is visible in the conflict counter.
    assert group.conflicts_total == 2


def test_collapsing_series_onto_one_labelset_keeps_first_and_counts():
    clock, tsdb, engine = conflict_rig()
    group = RuleGroup("g", [RecordingRule(
        record="job:reqs:flat", expr="reqs",
        static_labels={"instance": "all", "env": "prod"},
    )])
    group.evaluate(engine, tsdb, clock.now_ns)
    out = tsdb.select_metric("job:reqs:flat", 0, clock.now_ns + 1)
    assert len(out) == 1  # two inputs collapsed onto one output
    # instance=a/b overwritten (2) + one collapse = 3 conflicts.
    assert group.conflicts_total == 3


def test_conflict_free_rule_counts_nothing():
    clock, tsdb, engine = conflict_rig()
    group = RuleGroup("g", [RecordingRule(
        record="job:reqs:clean", expr="reqs",
        static_labels={"team": "sgx"},
    )])
    group.evaluate(engine, tsdb, clock.now_ns)
    assert group.conflicts_total == 0

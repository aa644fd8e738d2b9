"""Tests for PMAG recording rules and alert routing/silences."""

import pytest

from repro.errors import TsdbError
from repro.net.http import HttpNetwork
from repro.pmag.alerting import (
    AlertJournal,
    NotificationRouter,
    Receiver,
    Route,
    Silence,
    SilenceStore,
    STATE_FIRING,
)
from repro.pmag.alerting.state import AlertInstance
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.rules import RecordingRule, RuleEvaluator, RuleGroup
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng


# ---------------------------------------------------------------------------
# Recording rules
# ---------------------------------------------------------------------------
def _tsdb_with_counter():
    tsdb = Tsdb()
    for step in range(40):
        tsdb.append_sample(
            "syscalls_total", (step + 1) * seconds(5), step * 500.0, name="read"
        )
    return tsdb


def test_recording_rule_name_needs_colon():
    with pytest.raises(TsdbError):
        RecordingRule(record="plainname", expr="x")
    RecordingRule(record="job:syscalls:rate1m", expr="x")


def test_rule_group_records_series():
    tsdb = _tsdb_with_counter()
    engine = QueryEngine(tsdb)
    group = RuleGroup("sgx", [
        RecordingRule("job:syscalls:rate1m", "rate(syscalls_total[1m])"),
    ])
    recorded = group.evaluate(engine, tsdb, now_ns=40 * seconds(5))
    assert recorded == 1
    sample = tsdb.latest("job:syscalls:rate1m")
    assert sample is not None and sample.value == pytest.approx(100.0)


def test_rule_static_labels_attached():
    tsdb = _tsdb_with_counter()
    engine = QueryEngine(tsdb)
    group = RuleGroup("g", [
        RecordingRule("job:x:sum", "sum(syscalls_total)",
                      static_labels={"team": "sgx"}),
    ])
    group.evaluate(engine, tsdb, now_ns=40 * seconds(5))
    series = tsdb.select_metric("job:x:sum", 0, 41 * seconds(5))
    assert series[0].labels.get("team") == "sgx"


def test_bad_rule_does_not_break_group():
    tsdb = _tsdb_with_counter()
    engine = QueryEngine(tsdb)
    group = RuleGroup("g", [
        RecordingRule("job:bad:q", "this is (not a query"),
        RecordingRule("job:good:sum", "sum(syscalls_total)"),
    ])
    recorded = group.evaluate(engine, tsdb, now_ns=40 * seconds(5))
    assert recorded == 1
    assert "job:bad:q" in group.last_error


def test_duplicate_rules_rejected():
    with pytest.raises(TsdbError):
        RuleGroup("g", [
            RecordingRule("a:b", "x"),
            RecordingRule("a:b", "y"),
        ])


def test_evaluator_periodic_on_clock():
    clock = VirtualClock()
    tsdb = Tsdb()
    engine = QueryEngine(tsdb)
    # Live counter advanced by a timer, recorded by the evaluator.
    counter = {"v": 0.0}

    def feed():
        counter["v"] += 500.0
        tsdb.append_sample("c_total", clock.now_ns, counter["v"])
        clock.call_later(seconds(5), feed)

    clock.call_later(seconds(5), feed)
    evaluator = RuleEvaluator(clock, engine, tsdb)
    evaluator.add_group(RuleGroup("g", [
        RecordingRule("job:c:rate", "rate(c_total[1m])"),
    ], interval_ns=seconds(15)))
    evaluator.start()
    clock.advance(seconds(300))
    evaluator.stop()
    series = tsdb.select_metric("job:c:rate", 0, clock.now_ns)
    assert series and len(series[0].samples) > 10
    assert series[0].samples[-1].value == pytest.approx(100.0)
    recorded_at_stop = evaluator.samples_recorded
    clock.advance(seconds(100))
    assert evaluator.samples_recorded == recorded_at_stop


def test_evaluator_duplicate_group_rejected():
    clock = VirtualClock()
    tsdb = Tsdb()
    evaluator = RuleEvaluator(clock, QueryEngine(tsdb), tsdb)
    evaluator.add_group(RuleGroup("g", [RecordingRule("a:b", "x")]))
    with pytest.raises(TsdbError):
        evaluator.add_group(RuleGroup("g", [RecordingRule("c:d", "y")]))


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------
def _router(clock, route, receivers, silences=None):
    journal = AlertJournal()
    router = NotificationRouter(
        clock, HttpNetwork(), route, receivers,
        rng=DeterministicRng(3), journal=journal, silences=silences,
    )
    return router, journal


def _fire(router, clock, **labels):
    inst = AlertInstance(
        labels=Labels({"alertname": "R", **labels}),
        active_since_ns=clock.now_ns, state=STATE_FIRING, value=1.0,
    )
    router.handle([("pending", inst), ("firing", inst)], clock.now_ns)


def test_first_match_wins_without_continue():
    clock = VirtualClock()
    route = Route(receiver="root", routes=(Route(receiver="a"),
                                           Route(receiver="b")))
    router, journal = _router(
        clock, route, [Receiver("root"), Receiver("a"), Receiver("b")],
    )
    _fire(router, clock)
    clock.advance(seconds(1))
    delivered = journal.lines("notify-delivered")
    assert len(delivered) == 1 and " a " in f" {delivered[0]} "
    assert router.counters.get(("a", "delivered")) == 1
    assert ("b", "delivered") not in router.counters
    assert ("root", "delivered") not in router.counters


# ---------------------------------------------------------------------------
# Silences
# ---------------------------------------------------------------------------
def test_silence_suppresses_fire_in_window():
    clock = VirtualClock()
    silences = SilenceStore([Silence(
        match={"instance": "maint-host"},
        start_ns=seconds(100), end_ns=seconds(200),
    )])
    router, journal = _router(
        clock, Route(receiver="all", group_interval_s=10.0),
        [Receiver("all")], silences=silences,
    )
    clock.advance(seconds(150))
    _fire(router, clock, instance="maint-host")
    clock.advance(seconds(1))
    assert journal.lines("notify-delivered") == []
    assert router.counters[("all", "silenced")] == 1
    clock.advance(seconds(60))  # past the window's end at t=200s
    assert len(journal.lines("notify-delivered")) == 1
    assert router.counters[("all", "silenced")] == 1


def test_silence_only_matching_labels():
    store = SilenceStore([Silence(
        match={"instance": "a"}, start_ns=0, end_ns=100,
    )])
    assert store.covering(Labels({"alertname": "R", "instance": "a"}), 50)
    assert store.covering(
        Labels({"alertname": "R", "instance": "b"}), 50
    ) is None


def test_silence_validation():
    with pytest.raises(TsdbError):
        Silence(match={"a": "b"}, start_ns=10, end_ns=10)
    with pytest.raises(TsdbError):
        Silence(match={"a": "b"}, start_ns=10, end_ns=5)
    with pytest.raises(TsdbError):
        Silence(match={}, start_ns=0, end_ns=10)

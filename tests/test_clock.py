"""Virtual clock unit tests."""

import pytest

from repro.errors import SimulationError
from repro.simkernel.clock import (
    NANOS_PER_SEC,
    VirtualClock,
    backoff_ns,
    micros,
    millis,
    seconds,
)
from repro.simkernel.rng import DeterministicRng


def test_starts_at_zero():
    assert VirtualClock().now_ns == 0


def test_starts_at_given_time():
    assert VirtualClock(start_ns=50).now_ns == 50


def test_advance_moves_time():
    clock = VirtualClock()
    clock.advance(1000)
    assert clock.now_ns == 1000


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(300)
    clock.advance(700)
    assert clock.now_ns == 1000


def test_advance_negative_rejected():
    with pytest.raises(SimulationError):
        VirtualClock().advance(-1)


def test_run_until_backwards_rejected():
    clock = VirtualClock(start_ns=100)
    with pytest.raises(SimulationError):
        clock.run_until(50)


def test_conversion_helpers():
    assert seconds(1.5) == 1_500_000_000
    assert millis(2) == 2_000_000
    assert micros(3) == 3_000


def test_now_seconds():
    clock = VirtualClock()
    clock.advance(seconds(2.5))
    assert clock.now_seconds == pytest.approx(2.5)


def test_callback_fires_at_deadline():
    clock = VirtualClock()
    fired = []
    clock.call_at(500, lambda: fired.append(clock.now_ns))
    clock.advance(1000)
    assert fired == [500]


def test_callback_not_fired_early():
    clock = VirtualClock()
    fired = []
    clock.call_at(500, lambda: fired.append(True))
    clock.advance(499)
    assert fired == []
    clock.advance(1)
    assert fired == [True]


def test_call_later_relative():
    clock = VirtualClock()
    clock.advance(100)
    fired = []
    clock.call_later(50, lambda: fired.append(clock.now_ns))
    clock.advance(100)
    assert fired == [150]


def test_call_later_negative_rejected():
    with pytest.raises(SimulationError):
        VirtualClock().call_later(-5, lambda: None)


def test_schedule_in_past_rejected():
    clock = VirtualClock(start_ns=100)
    with pytest.raises(SimulationError):
        clock.call_at(50, lambda: None)


def test_callbacks_fire_in_time_order():
    clock = VirtualClock()
    order = []
    clock.call_at(300, lambda: order.append("c"))
    clock.call_at(100, lambda: order.append("a"))
    clock.call_at(200, lambda: order.append("b"))
    clock.advance(400)
    assert order == ["a", "b", "c"]


def test_same_deadline_fires_in_schedule_order():
    clock = VirtualClock()
    order = []
    clock.call_at(100, lambda: order.append(1))
    clock.call_at(100, lambda: order.append(2))
    clock.call_at(100, lambda: order.append(3))
    clock.advance(100)
    assert order == [1, 2, 3]


def test_callback_can_reschedule_itself():
    clock = VirtualClock()
    fired = []

    def tick():
        fired.append(clock.now_ns)
        if len(fired) < 3:
            clock.call_later(10, tick)

    clock.call_later(10, tick)
    clock.advance(100)
    assert fired == [10, 20, 30]


def test_cancel_prevents_firing():
    clock = VirtualClock()
    fired = []
    handle = clock.call_at(100, lambda: fired.append(True))
    handle.cancel()
    clock.advance(200)
    assert fired == []


def test_cancel_is_idempotent():
    clock = VirtualClock()
    handle = clock.call_at(100, lambda: None)
    handle.cancel()
    handle.cancel()
    clock.advance(200)


def test_pending_count_tracks_cancellation():
    clock = VirtualClock()
    handle = clock.call_at(100, lambda: None)
    clock.call_at(200, lambda: None)
    assert clock.pending_count() == 2
    handle.cancel()
    assert clock.pending_count() == 1
    clock.advance(300)
    assert clock.pending_count() == 0


def test_time_observed_inside_callback_is_deadline():
    clock = VirtualClock()
    seen = []
    clock.call_at(123, lambda: seen.append(clock.now_ns))
    clock.advance(1000)
    assert seen == [123]
    assert clock.now_ns == 1000


def test_nested_scheduling_within_advance_window():
    clock = VirtualClock()
    order = []
    clock.call_at(10, lambda: (order.append("outer"),
                               clock.call_at(20, lambda: order.append("inner"))))
    clock.advance(30)
    assert order == ["outer", "inner"]


# ---------------------------------------------------------------------------
# Periodic timers
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("first_ns, expected", [
    (3, [3, 13, 23, 33]),
    (None, [10, 20, 30]),  # default: one interval from now
])
def test_every_fires_at_first_then_each_interval(first_ns, expected):
    clock = VirtualClock()
    fired = []
    clock.every(10, lambda: fired.append(clock.now_ns), first_ns=first_ns)
    clock.advance(35)
    assert fired == expected


def test_timer_scheduled_by_tick_for_next_instant_runs_first():
    clock = VirtualClock()
    order = []

    def tick():
        order.append(("tick", clock.now_ns))
        clock.call_later(10, lambda: order.append(("one-shot", clock.now_ns)))

    clock.every(10, tick)
    clock.advance(20)
    assert order == [("tick", 10), ("one-shot", 20), ("tick", 20)]


def test_first_armed_periodic_timer_fires_first_at_shared_instant():
    clock = VirtualClock()
    order = []
    clock.every(10, lambda: order.append("a"))
    clock.every(5, lambda: order.append("b"), first_ns=10)
    clock.advance(20)
    assert order == ["a", "b", "b", "a", "b"]


def test_cancel_inside_tick_stops_rearming():
    clock = VirtualClock()
    fired = []

    def tick():
        fired.append(clock.now_ns)
        if len(fired) == 2:
            timer.cancel()

    timer = clock.every(10, tick)
    clock.advance(100)
    assert fired == [10, 20]
    assert clock.pending_count() == 0


def test_cancel_outside_tick_stops_timer():
    clock = VirtualClock()
    fired = []
    timer = clock.every(10, lambda: fired.append(clock.now_ns))
    clock.advance(15)
    timer.cancel()
    timer.cancel()
    clock.advance(100)
    assert fired == [10]
    assert clock.pending_count() == 0


@pytest.mark.parametrize("interval", [0, -1])
def test_every_rejects_non_positive_interval(interval):
    with pytest.raises(SimulationError):
        VirtualClock().every(interval, lambda: None)


# ---------------------------------------------------------------------------
# Backoff
# ---------------------------------------------------------------------------
def _inline_backoff_ns(base_s, attempt, jitter, rng):
    """The formula each retrying client used to carry inline."""
    delay_s = base_s * (2 ** attempt)
    if jitter:
        delay_s *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
    return int(delay_s * NANOS_PER_SEC)


def test_backoff_matches_inline_formula_bit_for_bit():
    shared, inline = DeterministicRng(7), DeterministicRng(7)
    for base_s in (0.05, 0.25, 1.0):
        for attempt in range(6):
            for jitter in (0.0, 0.1, 0.5, 1.0):
                assert backoff_ns(base_s, attempt, jitter, shared) == (
                    _inline_backoff_ns(base_s, attempt, jitter, inline)
                )
    assert shared.random() == inline.random()


def test_backoff_without_jitter_leaves_rng_untouched():
    rng, control = DeterministicRng(11), DeterministicRng(11)
    assert backoff_ns(0.5, 3, 0.0, rng) == 4 * NANOS_PER_SEC
    assert rng.random() == control.random()

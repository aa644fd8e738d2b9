"""Virtual time for the simulated host.

Every component in the reproduction shares one :class:`VirtualClock`.  The
clock counts integer nanoseconds and owns a priority queue of scheduled
callbacks, which makes the whole system a deterministic discrete-event
simulation: time only moves when :meth:`VirtualClock.advance` or
:meth:`VirtualClock.run_until` is called, and callbacks scheduled for the
same instant run in the order they were scheduled.

Periodic jobs (scrapes, rule groups, WAL flushes, uplink flushes, PMAN
analysis) run on :meth:`VirtualClock.every`.  A :class:`PeriodicTimer`
re-arms *after* its callback returns, so any one-shot timer the callback
schedules for the next tick's instant sorts ahead of that tick, and of
two periodic timers due at a shared instant the one armed first fires
first.  Same-seed runs depend on this ordering to stay byte-identical.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.simkernel.rng import DeterministicRng

NANOS_PER_USEC = 1_000
NANOS_PER_MILLI = 1_000_000
NANOS_PER_SEC = 1_000_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(value * NANOS_PER_SEC)


def millis(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(value * NANOS_PER_MILLI)


def micros(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(value * NANOS_PER_USEC)


@dataclass(frozen=True)
class TimerHandle:
    """Handle returned by :meth:`VirtualClock.call_at` for cancellation."""

    deadline_ns: int
    sequence: int
    _clock: "VirtualClock" = field(repr=False, compare=False)

    def cancel(self) -> None:
        """Cancel the timer; a cancelled timer never fires."""
        self._clock._cancel(self)


class VirtualClock:
    """A deterministic nanosecond clock with an event queue.

    The clock never reads wall time.  Two simulations constructed with the
    same seed and driven by the same calls produce identical timelines.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self._now_ns = start_ns
        self._sequence = itertools.count()
        # Heap entries: (deadline, sequence, callback).  A cancelled timer
        # stays in the heap and is skipped on pop.
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        #: ``(deadline, sequence)`` of every live (uncancelled) timer.
        self._entries: Set[Tuple[int, int]] = set()

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now_ns

    @property
    def now_seconds(self) -> float:
        """Current virtual time in (float) seconds."""
        return self._now_ns / NANOS_PER_SEC

    def call_at(self, deadline_ns: int, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run when time reaches ``deadline_ns``."""
        if deadline_ns < self._now_ns:
            raise SimulationError(
                f"cannot schedule in the past: {deadline_ns} < {self._now_ns}"
            )
        seq = next(self._sequence)
        self._entries.add((deadline_ns, seq))
        heapq.heappush(self._queue, (deadline_ns, seq, callback))
        return TimerHandle(deadline_ns, seq, self)

    def call_later(self, delay_ns: int, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.call_at(self._now_ns + delay_ns, callback)

    def every(self, interval_ns: int, fn: Callable[[], None],
              first_ns: Optional[int] = None) -> "PeriodicTimer":
        """Run ``fn`` every ``interval_ns`` until the timer is cancelled.

        The first tick lands ``first_ns`` from now (default: one
        interval).  Each tick re-arms after ``fn`` returns, exactly like
        a callback that ends with ``call_later(interval_ns, itself)``.
        Callers that want patches applied to a method after arming to
        take effect pass ``lambda: obj.method()``, not the bound method.
        """
        if interval_ns <= 0:
            raise SimulationError(f"non-positive interval: {interval_ns}")
        return PeriodicTimer(self, interval_ns, fn,
                             interval_ns if first_ns is None else first_ns)

    def _cancel(self, handle: TimerHandle) -> None:
        self._entries.discard((handle.deadline_ns, handle.sequence))

    def advance(self, delta_ns: int) -> None:
        """Move time forward by ``delta_ns``, firing due callbacks in order."""
        if delta_ns < 0:
            raise SimulationError(f"cannot move time backwards: {delta_ns}")
        self.run_until(self._now_ns + delta_ns)

    def run_until(self, deadline_ns: int) -> None:
        """Move time forward to ``deadline_ns``, firing due callbacks in order.

        Callbacks may schedule further callbacks; any that land at or before
        the deadline fire within this call.
        """
        if deadline_ns < self._now_ns:
            raise SimulationError(
                f"cannot move time backwards: {deadline_ns} < {self._now_ns}"
            )
        while self._queue and self._queue[0][0] <= deadline_ns:
            when, seq, callback = heapq.heappop(self._queue)
            if (when, seq) not in self._entries:
                continue  # cancelled
            self._entries.remove((when, seq))
            self._now_ns = when
            callback()
        self._now_ns = deadline_ns

    def pending_count(self) -> int:
        """Number of timers that are scheduled and not cancelled."""
        return len(self._entries)

    def sleep(self, delta_ns: int) -> None:
        """Alias for :meth:`advance`, reads naturally in driver code."""
        self.advance(delta_ns)


class PeriodicTimer:
    """A callback re-armed every interval; see :meth:`VirtualClock.every`."""

    __slots__ = ("_clock", "_interval_ns", "_fn", "_handle", "_cancelled")

    def __init__(self, clock: VirtualClock, interval_ns: int,
                 fn: Callable[[], None], first_ns: int) -> None:
        self._clock = clock
        self._interval_ns = interval_ns
        self._fn = fn
        self._cancelled = False
        self._handle = clock.call_later(first_ns, self._tick)

    def _tick(self) -> None:
        self._fn()
        if not self._cancelled:
            self._handle = self._clock.call_later(self._interval_ns, self._tick)

    def cancel(self) -> None:
        """Stop the timer; safe to call from inside its own callback."""
        self._cancelled = True
        self._handle.cancel()


def backoff_ns(base_s: float, attempt: int, jitter: float,
               rng: DeterministicRng) -> int:
    """Jittered exponential backoff before retry ``attempt + 1``.

    ``base_s * 2^attempt`` seconds, scaled by a uniform factor in
    ``[1 - jitter, 1 + jitter)`` drawn from ``rng``.  With ``jitter`` 0
    no draw is made, so the stream stays untouched.
    """
    delay_s = base_s * (2 ** attempt)
    if jitter:
        delay_s *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
    return int(delay_s * NANOS_PER_SEC)

"""Machine-speed normalisation by an interleaved calibration probe.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds (co-tenants on the same physical cores).  That
drift slows a fixed pure-Python loop and the workload alike, so the
benchmark times a short fixed loop -- the probe -- at the boundary of
every measured segment and scales the segment's wall time by
``REFERENCE_PROBE_S / probe time``.  The result reads as wall seconds on
a machine where the probe takes exactly ``REFERENCE_PROBE_S``.  On the
reference machine this cut the run-to-run spread of ``sgx-host`` wall
time per virtual hour from 15 % to 2-6 %.

The probe is benchmark code; it touches no program state.  Raw wall
times are printed beside the normalised ones.
"""

from __future__ import annotations

import time
from typing import List, Sequence

#: Probe time that normalised timings refer to.
REFERENCE_PROBE_S = 0.0015
PROBE_ITERATIONS = 20_000
#: Minimum measured wall time between two probes (keeps the probe's own
#: cost near 3 % of a run).
SEGMENT_S = 0.05


def probe() -> float:
    """Wall seconds of one fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Meter:
    """Accumulates measured wall time in segments and normalises each
    segment by the mean of the probes taken at its two ends.

    Operation timings recorded into the ``sinks`` lists during a segment
    get that segment's factor (see :meth:`scaled`).
    """

    def __init__(self, sinks: Sequence[List[float]] = ()) -> None:
        self.raw = 0.0
        self.normalised = 0.0
        self._pending = 0.0
        self._sinks = list(sinks)
        self._factors: List[List[float]] = [[] for _ in self._sinks]
        self._last = probe()
        self._mark = time.perf_counter()

    def start(self) -> None:
        """Start a lap (see :meth:`lap`)."""
        self._mark = time.perf_counter()

    def lap(self) -> None:
        """Count the wall time since the last lap or :meth:`start`; the
        probes this may trigger are not counted."""
        self.add(time.perf_counter() - self._mark)
        self._mark = time.perf_counter()

    def add(self, seconds: float) -> None:
        """Count ``seconds`` of measured wall time."""
        self.raw += seconds
        self._pending += seconds
        if self._pending >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        """End the current segment (no-op when it is empty)."""
        if not self._pending:
            return
        now = probe()
        factor = REFERENCE_PROBE_S / ((self._last + now) / 2)
        self._last = now
        self.normalised += self._pending * factor
        self._pending = 0.0
        for sink, factors in zip(self._sinks, self._factors):
            factors.extend([factor] * (len(sink) - len(factors)))

    def scaled(self, sink: List[float]) -> List[float]:
        """The normalised values of one watched sink."""
        for watched, factors in zip(self._sinks, self._factors):
            if watched is sink:
                return [value * factor for value, factor in zip(sink, factors)]
        raise ValueError("sink is not watched by this meter")

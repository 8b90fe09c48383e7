"""Drift-corrected host timing.

The host's speed drifts between runs minutes apart (on a shared 2-core
VM a fixed integer loop took 21-34 ms, median per run), so raw seconds
alone cannot carry a claim. Every timed interval is therefore reported
twice: raw, and corrected as ``raw * R0 / R``, where ``R`` is the
median time of the fixed reference loop below, sampled just before and
just after the interval, and ``R0`` is a constant fixed once here.

This module must stay independent of the program under test: it
imports nothing from ``repro`` and the loop allocates nothing the
garbage collector tracks (small ints only), so a change to the program
can never change ``R``.
"""

from __future__ import annotations

import time

#: Iterations of the reference loop per timing (~1.5 ms).
LOOP_ITERATIONS = 10_000
#: Timings per sample; the sample is their median. 31 timings span
#: ~50 ms, half the ~100 ms period of the fast/slow square wave the
#: host's speed was seen to follow, on top of its slower drift.
LOOP_REPEATS = 31
#: Reference-loop median, in seconds, that corrected times are
#: expressed against. Fixed once; changing it rescales every corrected
#: metric and makes old and new results incomparable.
R0 = 0.0015


def reference_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """A fixed pure-integer workload: a 31-bit LCG stepped in a loop."""
    x = 1
    i = 0
    while i < iterations:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i += 1
    return x


def sample_r(repeats: int = LOOP_REPEATS) -> float:
    """Median seconds one reference loop takes right now."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        timings.append(time.perf_counter() - start)
    timings.sort()
    return timings[len(timings) // 2]


class DriftClock:
    """Samples R at quiescent points and keeps every sample."""

    def __init__(self, sampler=sample_r) -> None:
        #: Takes one R sample; the traced run swaps in a spanned one.
        self.sampler = sampler
        #: Every R sample taken, in order (diagnostic output).
        self.samples: list[float] = []

    def sample(self) -> float:
        r = self.sampler()
        self.samples.append(r)
        return r

    def interval(self) -> "Interval":
        return Interval(self)


class Interval:
    """A timed interval made of one or more segments.

    Each segment is corrected by the mean of the R samples that bracket
    it. ``split`` ends one segment and starts the next with a fresh R
    sample taken between them, never inside a segment, so a host that
    slows down mid-interval is caught at the next split.
    """

    def __init__(self, clock: DriftClock) -> None:
        self._clock = clock
        self.raw = 0.0
        self.corrected = 0.0
        self._r_start = 0.0
        self._t_start: float | None = None
        self._excluded = 0.0

    def start(self, r: float | None = None) -> None:
        """Start the first segment; ``r`` reuses a sample just taken."""
        self._r_start = self._clock.sample() if r is None else r
        self._excluded = 0.0
        self._t_start = time.perf_counter()

    def exclude(self, seconds: float) -> None:
        """Drop ``seconds`` of work (an output check) from this segment."""
        self._excluded += seconds

    def stop(self, *, sample: bool = True) -> None:
        """End the current segment.

        With ``sample=False`` (a host background job may still be
        running) the segment is corrected by its opening sample alone.
        """
        if self._t_start is None:
            raise RuntimeError("interval is not running")
        seg = time.perf_counter() - self._t_start - self._excluded
        self._t_start = None
        r_end = self._clock.sample() if sample else self._r_start
        self.raw += seg
        self.corrected += seg * R0 / ((self._r_start + r_end) / 2)
        self._r_start = r_end

    def split(self) -> None:
        """End the current segment and start the next one."""
        self.stop()
        self._excluded = 0.0
        self._t_start = time.perf_counter()

"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of identical work drifts: a fixed loop flips
between two speeds about 1.5x apart, several times a minute.  A timed run
is cut into segments of at most about a second (a run phase, a writer
phase, a chunk of surface points), each bracketed by a fixed reference
loop that touches no package code.  Each segment's time is scaled to the
speed at which that loop takes REFERENCE_NOMINAL_S:

    t_normalized = t_raw * REFERENCE_NOMINAL_S / mean(t_reference around it)

The loop is plain Python so that a set-up probe can run it before importing
numpy.  The raw times are kept next to the normalized ones.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

REFERENCE_ITERATIONS = 150_000
REFERENCE_NOMINAL_S = 0.010  # the loop's time in the fast state of a 2.1 GHz Xeon vCPU
REFERENCE_REPEATS = 3


def reference_s() -> float:
    """Median time of the fixed reference loop, in seconds."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = perf_counter()
        acc = 0.0
        for i in range(REFERENCE_ITERATIONS):
            acc += (i % 7) * 0.5
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(ref_before: float, ref_after: float) -> float:
    """Factor that maps a raw time between two references to nominal speed."""
    return REFERENCE_NOMINAL_S / (0.5 * (ref_before + ref_after))


class SegmentClock:
    """Times consecutive segments, each scaled by the references around it.

    `lap(label)` ends the segment running since the previous lap, adds its
    raw and normalized time to `label`, runs the reference loop, and starts
    the next segment; the reference loop itself is in no segment.
    """

    def __init__(self):
        self.raw = defaultdict(float)
        self.norm = defaultdict(float)
        self._ref = reference_s()
        self._t0 = perf_counter()

    def lap(self, label: str):
        seg = perf_counter() - self._t0
        ref = reference_s()
        self.raw[label] += seg
        self.norm[label] += seg * scale(self._ref, ref)
        self._ref = ref
        self._t0 = perf_counter()

    def take(self):
        """(raw, normalized) totals per label since the last take; resets."""
        out = dict(self.raw), dict(self.norm)
        self.raw.clear()
        self.norm.clear()
        return out

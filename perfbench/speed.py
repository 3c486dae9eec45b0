"""Host-speed probe, so that timings from a shared, drifting CPU compare.

The machine this benchmark was tuned on runs the same pure-Python code up to
twice as fast at one moment as at another, and its speed drifts within
seconds; a mix-report or a spectrum solve lasts that long, so timing the
host before and after an op does not help.  The probe therefore samples the
speed during the op: a timer signal interrupts the measuring process every
INTERVAL_S and times one fixed pure-Python loop (about REF_LOOP_S on that
machine), chosen per workload to resemble its inner loops.  An interval's time is reported

    (wall time - time spent in the probe) * REF_LOOP_S / median(probe loops)

that is, in seconds at the probe's reference speed.  The loop touches no
degswap code, so a change to the package moves the ops and not the probe.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

INTERVAL_S = 0.01
REF_LOOP_S = 0.15e-3
MIN_SAMPLES = 8


_TABLE = list(range(64))
_GRID = np.zeros((8, 8), dtype=np.uint8)
_GRID[::2, ::3] = 1


def arithmetic_loop():
    """Integer arithmetic and list indexing: the inner loops of mix-report and
    the kernel build (Fraction and dict work)."""
    table = _TABLE
    acc = 0
    for i in range(1000):
        j = i & 63
        table[j] = (table[j] + i) & 1023
        acc += table[j] % 7
    return acc


def indexing_loop():
    """The same with small-array indexing: the inner loops of the sampler and
    of the graph core."""
    table, grid = _TABLE, _GRID
    acc = 0
    for i in range(400):
        j = i & 63
        table[j] = (table[j] + i) & 1023
        acc += table[j] % 7
        if grid[i & 7, j & 7]:
            acc += 1
    return acc


# Neither loop allocates container objects, so a probe never triggers (and is
# never charged for) a garbage collection of the op's heap; a loop building
# tuples and a dict read up to twice as slow while mix-report's heap was
# large.  Drift of normalized 10-s medians, measured side by side on the
# tuning machine: sample batches 5 % with indexing_loop against 13 % with
# arithmetic_loop, 48-state mix-reports 11 % against 20 %.
LOOPS = {"arithmetic": arithmetic_loop, "indexing": indexing_loop}


class SpeedProbe:
    """Collects the start and duration of each probe loop once ``start`` is
    called; an unstarted probe has no samples and reports raw seconds.

    Samples go to flat ``array`` buffers: a list of small tuples kept alive
    through a run pins allocator arenas and raised the spectrum workload's
    peak RSS by about a third."""

    def __init__(self, loop):
        self.loop = LOOPS[loop]
        self.starts = array("d")
        self.loops = array("d")

    def _tick(self, signum, frame):
        t = perf_counter()
        self.loop()
        self.loops.append(perf_counter() - t)
        self.starts.append(t)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start: float, end: float):
        """(raw, reference) seconds of the perf_counter interval [start, end];
        both exclude the probe's own loops inside the interval."""
        n = len(self.starts)            # a tick may land while this runs
        starts, loops = self.starts[:n], self.loops[:n]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        raw = end - start - sum(loops[lo:hi])
        # Widen the window to the nearest samples when the interval holds too few.
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            before = start - starts[lo - 1] if lo > 0 else float("inf")
            after = starts[hi] - end if hi < n else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return raw, raw
        return raw, raw * REF_LOOP_S / statistics.median(loops[lo:hi])

"""Host-speed calibration: times in seconds at a fixed reference speed.

The benchmark shares a few cores of a busy host.  The same pure-Python
loop takes anywhere from 1x to 2x its quiet time, in phases that last
from under a second to minutes, and CPU time slows down as much as wall
time: the slow phases come from contention for the core and its caches,
not from waiting to be scheduled.  A run that falls in a slow phase
reads slow however many rounds it takes.

So the runner times a fixed calibration kernel between operations and
scales each operation's seconds by ``REFERENCE_SECONDS / kernel
seconds``, with the kernel time averaged over the calibrations that fall
within ``WINDOW_SECONDS`` of the operation.  One kernel time is a noisy
sample of the host's speed, while a long operation averages the speed
over its whole length; so the kernel runs once per ``SPACING_SECONDS``
of work since the last calibration, up to ``MAX_REPEATS`` times.

The kernel does the kind of work the program does: an interpreted loop
of random draws, comparisons, tuple building, list appends and dict
updates, and random reads from a table too large for the core's own
caches, whose speed suffers most when other tenants contend for memory.
It depends on nothing in the program, so a change to the program moves
the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import random
import statistics
import time

# The kernel's time on the reference machine in a quiet phase (2-vCPU
# Intel Xeon at 2.1 GHz, Python 3.11).  Scaled times read as seconds on
# that machine in a quiet phase.  The constant is fixed, so runs stay
# comparable across versions of the program.
REFERENCE_SECONDS = 0.007
# Calibrations up to this far before an operation's start or after its
# end count towards its speed estimate.
WINDOW_SECONDS = 2.0
# Calibration effort: one kernel run per this much work, at most
# MAX_REPEATS in a row, and none after less than MIN_GAP_SECONDS.
SPACING_SECONDS, MAX_REPEATS, MIN_GAP_SECONDS = 0.25, 10, 0.1

_PAIRS_N, _P, _ARITH_N = 210, 0.02, 12000
# The memory part reads a table larger than the core's own caches
# at random, as the search does over a large path index.
_TABLE_BYTES, _READS = 32 << 20, 6000


class Clock:
    """Calibration kernel plus the timeline of its measurements."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, kernel seconds)
        self._table = bytearray(random.Random("perfbench-clock").randbytes(_TABLE_BYTES))
        self._last = None
        self.kernel()  # first touch, outside any measurement

    def kernel(self) -> int:
        rng = random.Random(5)
        pairs = []
        for u in range(_PAIRS_N):
            for w in range(u + 1, _PAIRS_N):
                if rng.random() < _P:
                    pairs.append((u, w))
        counts: dict[int, int] = {}
        acc = 0
        for i in range(_ARITH_N):
            acc += i * i % 7
            counts[acc & 1023] = counts.get(acc & 1023, 0) + 1
        table, size = self._table, _TABLE_BYTES
        buckets: dict[int, list] = {}
        x = 12345
        for i in range(_READS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            v = table[x % size]
            buckets.setdefault(v, []).append((i, x))
        return len(pairs) + len(counts) + len(buckets)

    def calibrate(self) -> float:
        """Time the kernel once, record it, and return its seconds."""
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self._last = t1
        return t1 - t0

    def tick(self, force: bool = False):
        """Calibrate in proportion to the work done since the last calibration."""
        gap = time.perf_counter() - self._last if self._last is not None else 0.0
        if force or self._last is None or gap >= MIN_GAP_SECONDS:
            # An untimed run first: the work just done has evicted the
            # kernel from the caches, and the program's footprint must
            # not leak into the host's speed.
            self.kernel()
            for _ in range(min(MAX_REPEATS, max(1, round(gap / SPACING_SECONDS)))):
                self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for work done in [start, end]."""
        near = [s for t, s in self.samples
                if start - WINDOW_SECONDS <= t <= end + WINDOW_SECONDS]
        return REFERENCE_SECONDS / statistics.fmean(near)

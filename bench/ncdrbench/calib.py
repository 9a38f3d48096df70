"""Stdlib-only reference kernel that turns CPU time into calibrated time.

On a shared host the speed at which this process executes keeps changing:
on the reference machine this kernel's CPU time flips between about 2.3 and
4.4 ms within fractions of a second as other tenants come and go, and
ncdr's ops slow down with it.  A Calibrator therefore runs the kernel on a
wall-clock timer every INTERVAL_S, during ops as well as between them (a
SIGALRM handler), takes the handler's time out of the op's, and scales each
op by

    NOMINAL_KERNEL_S / mean kernel CPU time of the samples within WINDOW_S of the op

An op's CPU time is its work times the host's slowness integrated over the
op, and samples at even wall-clock steps estimate that slowness's time
average.  Measured on the reference machine (6-8 runs of 12-15 s per
workload, IQR/median across runs), this local scaling cut the spread of p50
from 0.072 to 0.015 on exact-kernel and of throughput from 0.084 to 0.021
on numeric-diff, against one factor per run from the run's median kernel
time (raised to 0.7, its best exponent); any exponent but 1 did worse once
the scaling was local, and so did the median of the local samples on
verify-all's seconds-long ops.  The kernel uses Fraction and float
arithmetic only, never ncdr code, so a change to ncdr cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

# Kernel CPU time on the reference machine (2-core x86-64 VM, Python 3.11.7);
# calibrated seconds are seconds on a machine where the kernel takes this long.
NOMINAL_KERNEL_S = 0.0020

# One sample per INTERVAL_S of wall time costs 5-9% of it; an op is scaled by
# the samples from WINDOW_S before it starts to WINDOW_S after it ends.
INTERVAL_S = 0.05
WINDOW_S = 0.1

_TABLE = tuple(
    Fraction(n, d)
    for n, d in ((3, 4), (-2, 3), (5, 2), (1, 5), (-7, 6), (4, 9), (-1, 8), (9, 7), (2, 5), (-5, 3))
)
_ROUNDS = 40
_FLOAT_STEPS = 1500


def reference_kernel() -> tuple[Fraction, float]:
    """Fixed work: Hamilton products of rational 4-tuples, then a float recurrence."""
    t = _TABLE
    n = len(t)
    s0 = s1 = s2 = s3 = Fraction(0)
    for r in range(_ROUNDS):
        a0, a1, a2, a3 = t[r % n], t[(r + 1) % n], t[(r + 3) % n], t[(r + 7) % n]
        b0, b1, b2, b3 = t[(r + 2) % n], t[(r + 5) % n], t[(r + 4) % n], t[(r + 9) % n]
        s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
        s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
        s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
        s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    x, y = 0.5, -0.25
    for i in range(_FLOAT_STEPS):
        x, y = 0.75 * x - 0.5 * y + 1e-3 * i, 0.5 * x + 0.75 * y
    return s0 + s1 + s2 + s3, x + y


def time_kernel(repeats: int = 3) -> float:
    """Median CPU seconds of `repeats` kernel runs."""
    samples = []
    for _ in range(repeats):
        t0 = time.thread_time()
        reference_kernel()
        samples.append(time.thread_time() - t0)
    return statistics.median(samples)


class Calibrator:
    """Kernel samples taken on a wall-clock timer while the block runs.

    `spent_wall` and `spent_cpu` sum the time the samples took, so a caller
    takes them out of whatever it timed across the block.
    """

    def __init__(self) -> None:
        self.times = array("d")  # perf_counter() at each sample
        self.samples = array("d")  # kernel CPU seconds
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._old_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a kernel run slower than INTERVAL_S
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_kernel()
        c1 = time.thread_time()
        self.times.append(t0)
        self.samples.append(c1 - c0)
        self.spent_cpu += time.thread_time() - c0
        self.spent_wall += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Calibrator":
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self, start: float, end: float) -> float:
        """Calibrated seconds per CPU second for work done from `start` to
        `end` (perf_counter() times)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        local = self.samples[lo:hi]
        return NOMINAL_KERNEL_S / (statistics.fmean(local) if local else self.kernel_s())

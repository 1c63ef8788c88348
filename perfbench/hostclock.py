"""The host's speed, sampled while the benchmark runs, and time at a fixed speed.

On a shared host the same Python code runs up to 1.8 times slower or faster
from one second to the next, and the mean speed over a 30-s run differs from
run to run by more than the bounds the benchmark sets.  A job's wall time
then compares hosts, not commits.  So the benchmark also times a fixed piece
of pure-Python work, the reference loop, on a fixed clock while the jobs
run, and converts wall time to seconds at the reference speed:

    reference seconds = wall seconds * NOMINAL_REF_S / mean reference loop time

On a host that runs the loop in NOMINAL_REF_S the two are equal.  On a
2-core x86-64 VM, over 7.5-s windows of a repeated job, wall time moved by
+-15% while the ratio of job time to mean loop time moved by +-3.5%: the
mean of many loop samples follows the host, where one sample next to a job
does not.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_STEPS = 5000          # 1.5-3 ms per loop on a 2-core x86-64 VM
NOMINAL_REF_S = 0.0015    # the reference speed: one loop in 1.5 ms
TICK_S = 0.1              # sampling period during the timed phase
WINDOW_S = 1.0            # samples this near a job give its host speed


def reference_loop():
    """Wall time of one pass of integer multiply-mod steps with dict and
    tuple stores, the kind of work the bsdkit interpreter loops do."""
    t0 = time.perf_counter()
    x, seen = 1, {}
    for i in range(REF_STEPS):
        x = (x * 1103515245 + 12345) % 2147483648
        seen[x & 1023] = (i, x)
    return time.perf_counter() - t0


class HostClock:
    """Reference-loop samples taken every TICK_S seconds of the timed phase.

    A SIGALRM handler runs the loop, inside a job when one is running, so
    the samples cover the jobs' time evenly, long jobs as densely as short
    ones.  The time the handler spends is kept in `spent`, for the caller
    to take out of the job's wall time.
    """

    def __init__(self):
        self.samples = []         # (perf_counter at the end, loop seconds)
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        loop_s = reference_loop()
        t1 = time.perf_counter()
        self.samples.append((t1, loop_s))
        self.spent += t1 - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, t0, t1):
        """Reference seconds per wall second from t0 to t1: the mean of the
        samples within WINDOW_S of that interval, a local speed that a short
        job's own few samples could not give."""
        near = [s for t, s in self.samples
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            raise RuntimeError("no reference-loop sample near a job")
        return NOMINAL_REF_S / statistics.fmean(near)


def burst(samples):
    """Reference seconds per wall second from `samples` loops in a row."""
    return NOMINAL_REF_S / statistics.fmean(
        reference_loop() for _ in range(samples))

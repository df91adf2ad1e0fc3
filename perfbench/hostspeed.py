"""The host's speed while the benchmark runs, in `ref` units.

On the 2-CPU reference host the same code runs up to 2x slower at some
moments than at others, in swings from under a second to minutes, so a
time in seconds says as much about the host as about mg1lab.  The
benchmark therefore also times a fixed calibration loop (a pure-Python
FCFS queue, independent of mg1lab) next to every operation: once before
each operation and after the last, and every `interval` seconds from a
timer signal while an operation runs in this process, so that long
operations are sampled throughout.  While an operation runs in a child
process the timer's loops are skipped: they would compete with the child
for the two CPUs.  One `ref` is the time the full loop takes at that
moment; an operation's time in refs is its time in seconds over the mean
loop time sampled around and during it.
"""

from __future__ import annotations

import collections
import random
import signal
import time

#: jobs in one full calibration loop (one `ref`, about 5 ms on the reference host)
REF_JOBS = 12_000
#: jobs in a loop run from the timer signal (about 1 ms)
TICK_JOBS = 2_400


def calibration_loop(jobs: int) -> float:
    rng = random.Random(20180410)
    queue: collections.deque = collections.deque()
    arrival = free_at = wait = 0.0
    for _ in range(jobs):
        arrival += rng.expovariate(0.8)
        queue.append(arrival)
        a = queue.popleft()
        start = free_at if free_at > a else a
        wait += start - a
        free_at = start + rng.expovariate(1.0)
    return wait


class SpeedSampler:
    """Context manager that samples the calibration loop's time per job.

    `samples` holds seconds per job, in time order.  `busy` is the time
    spent in loops run from the timer, which the caller subtracts from the
    operation it interrupted.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self.busy = 0.0
        #: skip the timer's loops (set while a child process does the work)
        self.paused = False
        self._sampling = False
        self._previous = None

    def _loop(self, jobs: int) -> float:
        self._sampling = True
        try:
            t = time.perf_counter()
            calibration_loop(jobs)
            dt = time.perf_counter() - t
        finally:
            self._sampling = False
        self.samples.append(dt / jobs)
        return dt

    def _tick(self, signum, frame) -> None:
        # a tick during a boundary loop is skipped
        if not (self._sampling or self.paused):
            self.busy += self._loop(TICK_JOBS)

    def boundary(self) -> int:
        """Run the full loop between two operations; return its sample index."""
        self._loop(REF_JOBS)
        return len(self.samples) - 1

    def ref_seconds(self, first: int, last: int) -> float:
        """Mean time of one `ref` over samples first..last (inclusive)."""
        window = self.samples[first:last + 1]
        return REF_JOBS * sum(window) / len(window)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

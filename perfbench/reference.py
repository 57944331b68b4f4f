"""A fixed reference loop that samples the host's speed during a run.

The benchmark shares a few vCPUs of a host whose speed changes by up to
about 1.7x, from one second to the next and for minutes at a time.  A run
times this loop after each operation it measures and, while in-process work
runs, once every ``INTERVAL_S`` from a timer signal in the main thread, so
that the samples are spread evenly over the measured work.  (While a child
process runs, the loop would compete with it for a vCPU, so then there is
no timer.)  A measured time is scaled by ``REFERENCE_S`` over the loop's
trimmed mean time over the same stretch, which puts it on the scale of a
host that runs the loop in ``REFERENCE_S``.  The loop uses nothing from
graphoid, so no change to graphoid can move it: a calibrated time moves with
the program's speed and much less with the host's.  Its work is in the style of graphoid's own:
frozenset algebra, dict look-ups, small function calls and reductions over
small numpy tables.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# About the loop's mean time on the machine recorded in baseline.json.
REFERENCE_S = 0.0012
INTERVAL_S = 0.1

_SETS = tuple(frozenset(i for i in range(10) if k >> i & 1) for k in range(1024))
_TABLE = np.linspace(1.0, 2.0, 24).reshape(2, 3, 2, 2) / 36.0


def _step(x: int) -> int:
    return (x * 7 + 3) % 1009


def reference_loop() -> float:
    seen: dict = {}
    for a in _SETS[:36]:
        for b in _SETS[:24]:
            seen[a | b] = seen.get(a & b, 0) + 1
    acc = 0
    for i in range(3_500):
        acc = _step(acc + i)
    gap = 0.0
    for _ in range(28):
        m = _TABLE.sum(axis=(1, 3))
        gap += float(np.abs(m - m.sum(axis=1, keepdims=True) * m.sum(axis=0, keepdims=True)).max())
    return gap + acc + len(seen)


class Reference:
    """The samples of the reference loop taken during one run.

    ``clock()`` is ``time.perf_counter()`` stopped while the loop runs, so
    that the loop's own time stays out of what the run measures.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._sampling = False

    @contextlib.contextmanager
    def timer(self):
        """Sample every INTERVAL_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        started = time.perf_counter()
        # The first run refills the caches that the measured work used, so
        # that how much memory the program touches does not move the sample.
        reference_loop()
        warm = time.perf_counter()
        reference_loop()
        done = time.perf_counter()
        self.samples.append(done - warm)
        self.spent_s += done - started
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent_s

    def mean_s(self, first: int = 0) -> float:
        """The mean of ``samples[first:]`` without their slowest and fastest
        tenth: one stall of the vCPU can multiply a millisecond's sample."""
        window = sorted(self.samples[first:])
        cut = len(window) // 10
        return statistics.fmean(window[cut:len(window) - cut])

    def scale(self, first: int = 0) -> float:
        """The factor that puts times measured while ``samples[first:]`` were
        taken on the scale of a host that runs the loop in REFERENCE_S."""
        return REFERENCE_S / self.mean_s(first)

"""Machine-speed pacing: convert wall time to seconds at a reference speed.

The shared host this benchmark runs on changes speed by up to about 1.6x
from one second to the next, so the raw wall time of a fixed operation
spreads far past the benchmark's bounds.  ``Pacer`` interrupts the measured
code every ``PERIOD_S`` with a SIGALRM and times a fixed *reference* job of
its own -- small-object allocation, numpy calls on tiny arrays, int64
matrix products and a walk over a heap the size of a core's L2 cache, the
kinds of work stringalg does -- on the same process and core.  Each stretch of program time between two reference samples is scaled
by the machine speed the samples on either side of it read, so that

    paced seconds = sum over stretches of  dt * REF_S / (reference duration)

is the time the operation would have taken on a machine where one reference
job takes ``REF_S``.  The reference job touches nothing of the program, so a
faster program gives fewer paced seconds, exactly as it gives fewer wall
seconds on a steady machine.  Time spent in the reference samples is
excluded from both the raw and the paced figures.
"""

from __future__ import annotations

import gc
import random
import signal
import time

import numpy as np

# the reference job's duration at the reference speed; about its median on
# the 2-core Intel Xeon machine the benchmark was built on
REF_S = 0.010
PERIOD_S = 0.1


class _Node:
    def __init__(self, key: int, pair: tuple[int, int]):
        self.key = key
        self.pair = pair


_M = (np.arange(64 * 64, dtype=np.int64).reshape(64, 64) * 7919) % 101
# distinct int objects in shuffled order, about 1.8 MB, near the size of one
# core's L2 cache: walking them is memory-bound as walking stringalg's object
# graph is
_CHASE = [10**6 + i for i in range(50000)]
random.Random(0).shuffle(_CHASE)


def reference_job() -> int:
    """Fixed work of about ``REF_S`` in four equal parts, the kinds of work
    stringalg does: small-object allocation with dict and attribute traffic,
    numpy calls on 3x3 arrays, int64 products of 64x64 matrices, and a walk
    over a heap about the size of a core's L2 cache.  Its objects die by
    reference count, so it leaves the collector's counts as it found them."""
    nodes = []
    index: dict[int, tuple[int, int]] = {}
    for i in range(3000):
        node = _Node(i, (i, i + 1))
        nodes.append(node)
        index[i & 255] = node.pair
    s = sum(node.key + node.pair[1] for node in nodes)
    for i in range(400):
        a = np.array([[1, 2, 3], [4, 5, 6], [7, 8, i]], dtype=np.int64)
        s += int(((a @ a) % 7)[0, 0])
    b = _M
    for _ in range(8):
        b = (b @ _M) % 101
    for x in _CHASE:
        s += x & 1
    return s + int(b[0, 0])


def time_reference() -> tuple[float, float, float, float]:
    """(start, end, CPU start, CPU end) of one reference job, on the wall
    clock and on this process's CPU clock, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    c0 = time.process_time()
    t0 = time.perf_counter()
    reference_job()
    t1 = time.perf_counter()
    c1 = time.process_time()
    if enabled:
        gc.enable()
    return t0, t1, c0, c1


class Pacer:
    """Context manager: samples the reference job on entry, every
    ``period`` seconds while the block runs, and on exit.

    After the block, ``wall_s`` and ``cpu_s`` are the block's wall and CPU
    time outside the samples, and ``wall_ref_s`` and ``cpu_ref_s`` the same
    at reference speed.  The CPU time is paced by the samples' CPU time, so
    a stretch in which the process was not running changes neither.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float, float, float]] = []
        self._busy = False

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(time_reference())
        finally:
            self._busy = False

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # a SIGALRM already flagged but not yet handled finds the old
        # handler; a Python handler that is SIG_DFL or SIG_IGN is skipped
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _stretches(self, clock: int):
        """(length, speed) of each stretch between two samples, on the wall
        clock (``clock`` 0) or the CPU clock (2); the speed is the mean of
        the two samples' ``REF_S / duration``."""
        for a, b in zip(self.samples, self.samples[1:]):
            speed = 0.5 * (REF_S / (a[clock + 1] - a[clock]) + REF_S / (b[clock + 1] - b[clock]))
            yield b[clock] - a[clock + 1], speed

    @property
    def wall_s(self) -> float:
        return sum(length for length, _ in self._stretches(0))

    @property
    def wall_ref_s(self) -> float:
        return sum(length * speed for length, speed in self._stretches(0))

    @property
    def cpu_s(self) -> float:
        return sum(length for length, _ in self._stretches(2))

    @property
    def cpu_ref_s(self) -> float:
        return sum(length * speed for length, speed in self._stretches(2))

"""Host-speed reference: job times scaled to a fixed speed of the host.

A host that shares its cores with other tenants runs the same code faster
or slower by a quarter or more from one second to the next and from one
minute to the next (a fixed loop timed over five minutes on a 2-vCPU x86
host drifted from 10.8 to 6.5 ms per call in 10-s medians, and its 1-s
medians moved by a fifth).  No length of run or median within it removes
drift that is slower than a run.  So the benchmark times a short reference
loop, written here and independent of heisconvex, `BRACKET` times before
and after every job and every `INTERVAL` seconds during it (from a SIGALRM
handler), and reports the job's time, less the time of the loops inside it,
scaled by `REFERENCE_S` over the mean loop time: the job's seconds on a host
where the loop takes `REFERENCE_S`.

A change to the program moves the job times and not the loop, so the ratio
of a parent's figures to a change's is kept while the host's drift cancels.
On that host, averaged over 30 consecutive jobs, job and loop times moved
together (slope 1.0, correlation 0.96), and the per-job spread of the same
job repeated fell from 0.15-0.20 of its mean unscaled to 0.06-0.13 scaled;
the samples during a job are what steady the long ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# `loop_seconds()` on a 2-vCPU x86 host (Python 3.11, numpy 2) at a quiet time
REFERENCE_S = 0.0003
BRACKET = 8  # loops timed before and after each job
INTERVAL = 0.01  # seconds between loops timed during a job

_VEC = np.linspace(0.0, 1.0, 32)


def _mul(p: tuple, q: tuple) -> tuple:
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + 2.0 * (p[1] * q[0] - p[0] * q[1]))


def loop_seconds() -> float:
    """Time one pass of the reference loop: tuple arithmetic, calls and small numpy ops."""
    start = time.perf_counter()
    p, q, acc = (0.1, 0.2, 0.3), (0.01, -0.02, 0.005), 0.0
    for i in range(625):
        p = _mul(p, q)
        acc += math.sqrt(p[0] * p[0] + p[1] * p[1] + abs(p[2])) + (i % 7)
    for _ in range(30):
        acc += float(np.dot(_VEC, _VEC * acc % 1.0))
    if not math.isfinite(acc):
        raise ArithmeticError("reference loop overflowed")
    return time.perf_counter() - start


def bracket() -> list[float]:
    return [loop_seconds() for _ in range(BRACKET)]


@dataclass
class Timing:
    seconds: float = 0.0  # the job's wall time less the loops timed during it
    reference_s: float = 0.0  # mean loop time before, during and after the job
    sampling_s: float = 0.0


class Pace:
    """Times jobs one after another, with host-speed samples around and during each."""

    def __init__(self) -> None:
        self._before = bracket()

    @contextmanager
    def job(self) -> Iterator[Timing]:
        """Time the body; the `Timing` is filled in when the body has finished."""
        timing = Timing()
        during: list[float] = []

        def sample(signum, frame) -> None:
            start = time.perf_counter()
            during.append(loop_seconds())
            timing.sampling_s += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        after = bracket()
        timing.seconds = elapsed - timing.sampling_s
        timing.reference_s = statistics.fmean(self._before + during + after)
        self._before = after

"""Machine-speed calibration for the timed metrics.

The shared host this benchmark is meant for changes its speed by up to a
third over tens of seconds, for a fixed piece of work and in CPU time as
well as wall time, so raw pass times of the same code spread more than
any useful bound.  While the benchmark times the program, a
:class:`Sampler` interrupts it on a wall-clock timer and times a fixed
piece of work written here and independent of ``ebg``, which mixes what
the program spends its time on: an interpreted Python loop and numpy
calls on small arrays.  The samples are spread evenly over the timed
wall time, so they see the same slow spells as the program.  A time of
``t`` seconds (less the time spent sampling) is reported as
``t * scale(samples)``, its time on a machine where the calibration
takes ``REFERENCE_S``.  A change to the program moves that figure as it
moves wall time; a change of the machine's speed moves both the time and
the samples, and cancels.  Raw wall times are reported beside it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# what sample() takes on an unloaded core of the machine the benchmark
# was written on; it only sets the scale of the reported seconds
REFERENCE_S = 0.015

# a sample every INTERVAL_S of wall time costs about 4% of it
INTERVAL_S = 0.4

_ARRAY = np.random.default_rng(0).random((50, 5))


def _python_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _numpy_loop() -> float:
    x = _ARRAY
    for _ in range(800):
        y = np.sin(x) * x + np.abs(x - 0.5)
        x = np.where(y > 1.0, y - 1.0, y)
        x.sum(axis=1).argsort()
    return float(x[0, 0])


def sample() -> float:
    """Seconds the fixed calibration work takes now."""
    started = time.perf_counter()
    _python_loop()
    _numpy_loop()
    return time.perf_counter() - started


def scale(samples: list[float]) -> float:
    """Factor from this run's seconds to seconds at the reference speed.

    The mean keeps the share of slow spells the samples saw; dropping
    the fastest and slowest tenth keeps one stall from deciding it."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.mean(ordered[cut:len(ordered) - cut])


class Sampler:
    """Takes a calibration sample every ``INTERVAL_S`` of wall time while
    it is entered.  ``spent`` is the wall time the samples took, which
    the caller subtracts from the times it measures."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

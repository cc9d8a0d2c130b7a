"""Machine-speed calibration: time each sample against a fixed reference kernel.

The benchmark shares a few cores of a host whose speed drifts by 20-30 %
from one minute to the next, so a sample's wall time tells as much about
the host as about the program.  A ``Calibrator`` times a fixed
pure-Python kernel (dictionary updates, ``math.gcd`` and a sort: the
interpreter work the program's own time is made of) in short bursts
right before and right after each sample, and, through a ``SIGPROF``
interval timer, every ``INTERVAL_S`` seconds of processor time during
it.  The kernel never changes, so the mean of its times around and
inside a sample measures how slow the host ran while the sample ran.

A sample's *adjusted* time is its wall time scaled to the speed at which
the kernel takes ``NOMINAL_S`` seconds:

    adjusted = wall * NOMINAL_S / mean(kernel times around and in the sample)

Wall time excludes the kernel calls made inside the sample.  A change to
the program moves ``wall`` and leaves the kernel alone, so adjusted times
compare two versions of the program while most of the host's drift
cancels: on the 2-vCPU virtual machine the benchmark was written on,
with kernel bursts around each step alone, the spread of 12-second
medians of a ``table1_instance(330)`` step fell from 13 % in wall time to
5 % adjusted.
"""
from __future__ import annotations

import signal
import statistics
import time
from math import gcd
from typing import Any, Callable

# The kernel's fastest time on the 2-vCPU x86-64 virtual machine with
# CPython 3.11.7 the benchmark was written on.
NOMINAL_S = 0.001
# Kernel calls in each burst before and after a sample.
BURST = 3
# Processor seconds between kernel calls inside a sample.
INTERVAL_S = 0.02


def kernel() -> list[int]:
    sums: dict[int, int] = {}
    for i in range(1, 4000):
        sums[i % 61] = sums.get(i % 61, 0) + gcd(i * 7919, 104729 + i)
    return sorted(sums.values())


class Calibrator:
    """Times calls and the reference kernel around and inside them.

    Use as a context manager: it installs the ``SIGPROF`` handler and
    timer on entry and restores the previous ones on exit.
    """

    def __init__(
        self,
        kernel: Callable[[], Any] = kernel,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.kernel = kernel
        self.clock = clock
        self.kernel_s: list[float] = []  # every kernel time, in order
        self.in_handler_s = 0.0  # wall time spent in the signal handler
        self._previous = None

    def _run_kernel(self) -> None:
        began = self.clock()
        self.kernel()
        self.kernel_s.append(self.clock() - began)

    def _on_signal(self, signum, frame) -> None:
        began = self.clock()
        self._run_kernel()
        self.in_handler_s += self.clock() - began

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def program_time(self) -> float:
        """Clock reading less the time spent in the signal handler: the
        clock for anything timed inside a sample, such as spans."""
        return self.clock() - self.in_handler_s

    def time_call(self, call: Callable[[], Any], timing: list[float]) -> Any:
        """Return ``call()``; append its wall and adjusted seconds to ``timing``.

        The times are appended even when ``call`` raises, so a sample cut
        off by the run's time cap keeps the time it ran.
        """
        first = len(self.kernel_s)
        for _ in range(BURST):
            self._run_kernel()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        began = self.program_time()
        try:
            return call()
        finally:
            wall = self.program_time() - began
            signal.setitimer(signal.ITIMER_PROF, 0)
            for _ in range(BURST):
                self._run_kernel()
            local = statistics.fmean(self.kernel_s[first:])
            timing.extend((wall, wall * NOMINAL_S / local))

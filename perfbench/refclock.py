"""Drift correction: a fixed reference kernel timed next to every op.

On a shared virtual machine the same fixed work can take 40% longer from
one minute to the next, with CPU time equal to wall time and no hardware
counters to read. The reference kernel below runs the same mix as the
program (an interpreted Python loop plus small dense numpy.linalg calls)
and never imports toricshrink, so its time tracks how fast the machine is
running right now and nothing the program does. Each op is bracketed by
two kernel runs; its drift-corrected time is its raw time scaled by the
kernel's nominal time over the mean of those two kernel times.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the 2-core reference VM (see README); corrected
# seconds are "seconds on that machine at its nominal speed"
KERNEL_NOMINAL_S = 0.008

_N = 24
_A = np.eye(_N) * _N + np.fromfunction(lambda i, j: np.cos(i + 2.0 * j), (_N, _N))
_A = 0.5 * (_A + _A.T)
_V = np.linspace(-1.0, 1.0, _N)
# 400 KB arrays lie above malloc's mmap threshold, so each one is fresh
# pages: the kernel also pays the page-fault cost that large temporaries
# (Kronecker operators, Jacobians) pay in the program
_BIG = 50_000


def reference_kernel() -> float:
    """Fixed work; returns a checksum so nothing is optimised away."""
    acc = 0.0
    for i in range(1, 10_000):
        acc += (i % 7) * 0.5 / i
    for _ in range(100):
        acc += float(np.linalg.solve(_A, _V)[0]) + float(np.linalg.eigvalsh(_A)[-1])
    for _ in range(40):
        big = np.empty(_BIG)
        big[:] = 1.5
        acc += float(big[-1])
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class DriftClock:
    """Times ops with a kernel run before and after each one.

    Consecutive ops share the kernel run between them, so the overhead is
    one kernel per op.
    """

    def __init__(self):
        kernel_seconds()  # warm caches and lazy numpy set-up
        self._last = kernel_seconds()
        self.kernel_times: list[float] = [self._last]

    def time(self, fn):
        """Run fn(); return (result, raw seconds, corrected seconds)."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = kernel_seconds()
        adjacent = 0.5 * (self._last + after)
        self._last = after
        self.kernel_times.append(after)
        return result, raw, raw * KERNEL_NOMINAL_S / adjacent

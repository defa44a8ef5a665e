"""Reference kernel that measures how fast the machine runs at the moment.

On a shared host other tenants slow this process by up to a factor of two,
for seconds or minutes at a time, and by a different factor from one run to
the next.  After every op the benchmark runs this fixed kernel, which makes
the same kind of calls as the library (eigensolves, solves and matrix
exponentials of 2x2 to 6x6 matrices, from Python) but none of its code, for
a tenth of the op's time.  The op's latency is then reported at reference
speed:

    latency * REFERENCE_S / (median time of one kernel unit, over the ops
                             within WINDOW_S of busy time around this one)

The window smooths out the noise of single short kernel runs, which would
otherwise widen the latency tail, and still follows slowdowns that last
seconds.

A change to the library moves the scaled latency as it moves the raw one; a
change in the machine's speed moves the latency and the kernel alike, and
cancels.  Set-up times are scaled the same way.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: Time of one kernel unit on a quiet machine (Intel Xeon, 2 cores,
#: OpenBLAS pinned to one thread); scaled times read as on that machine.
REFERENCE_S = 320e-6
#: Kernel time after each op, as a share of the op's latency.
SHARE = 0.1
#: Half-width, in seconds of op time, of the window of kernel times that
#: scales an op.
WINDOW_S = 0.5

_rng = np.random.default_rng(12345)
_MATS = [_rng.standard_normal((2 * n, 2 * n)) for n in (1, 2, 3) for _ in range(2)]


def unit() -> None:
    for M in _MATS:
        _, v = np.linalg.eig(M)
        np.linalg.solve(M, v.real)
        scipy.linalg.expm(0.1 * M)


def unit_time(budget: float) -> float:
    """Mean time of one unit, over at least `budget` seconds and one unit."""
    t0 = time.perf_counter()
    k = 0
    while True:
        unit()
        k += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / k


def window_scales(latencies: list[float], units: list[float]) -> list[float]:
    """Factor for each op in a sequence: REFERENCE_S over the median unit time
    of the ops whose start lies within WINDOW_S of busy time of its own."""
    starts = np.concatenate([[0.0], np.cumsum(latencies)[:-1]])
    lo = np.searchsorted(starts, starts - WINDOW_S, side="left")
    hi = np.searchsorted(starts, starts + WINDOW_S, side="right")
    return [REFERENCE_S / float(np.median(units[a:b])) for a, b in zip(lo, hi)]


def scale(seconds: float) -> float:
    """Factor that brings a time just measured to reference speed."""
    return REFERENCE_S / unit_time(SHARE * seconds)

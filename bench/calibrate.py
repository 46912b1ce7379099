"""A fixed unit of work that tracks the host's speed.

The benchmark shares its host with other jobs, and the host's speed swings
by a factor of 1.5 to 1.9 over spans of seconds to minutes.  The unit is
exact ``Fraction`` elimination with dict and tuple traffic, the kind of
work ``hermann`` does, and it imports nothing from ``hermann``, so a change
to the program cannot change it.  Timed right before and right after an
operation, it gives the host's speed while the operation ran, and
``normalized`` scales the operation's latency to the speed at which the
unit takes ``REFERENCE_S``.
"""

import gc
import time
from fractions import Fraction

# Time of one unit on an uncontended 2-vCPU Intel Xeon VM with CPython 3.11;
# under contention the same VM takes about 1.3 ms.
REFERENCE_S = 0.7e-3
ROUNDS = 2
REPEATS = 3
SIZE = 6


def _eliminate():
    n = SIZE
    m = [[Fraction((i * 7 + j * 3) % 11 + (i == j) * 5, 1 + (i + j) % 4)
          for j in range(n)] for i in range(n)]
    pivots = {}
    for k in range(n):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
            pivots[(i, k)] = f
    return pivots


def _try_seconds():
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        _eliminate()
    return time.perf_counter() - t0


def unit_seconds():
    """Wall time of one unit: the fastest of ``REPEATS`` tries, with the
    garbage collector paused, so that a collection of the program's
    garbage or a short stall does not pass for a slow host."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_try_seconds() for _ in range(REPEATS))
    finally:
        if was_enabled:
            gc.enable()


def normalized(seconds, before, after):
    """``seconds`` measured between two units that took ``before`` and
    ``after``, scaled to the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)

"""The reference task that calibrates the benchmark's times.

The benchmark runs on a shared machine whose speed for pure-Python code
drifts by 10 to 40% over seconds to minutes, and differs between its
virtual cores.  A short fixed task, timed in the same process right next
to the work being measured, tells the speed at that moment; a time
multiplied by ``REF_NOMINAL_S`` over the reference time reads as seconds
on a machine where the reference task takes ``REF_NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_ITERATIONS = 150
# Median reference_task time on the 2-core VM where the bounds were set.
REF_NOMINAL_S = 3.5e-4


def reference_task() -> float:
    """Time a fixed piece of pure-Python work in the program's style
    (Fraction sums, bitmask ints and a dict); about 0.3 ms."""
    start = time.perf_counter()
    acc, masks, mask = Fraction(0), {}, 0
    for i in range(1, REF_ITERATIONS):
        acc += Fraction(i % 7, 24)
        mask |= 1 << (i % 61)
        masks[i % 13] = mask.bit_count() + masks.get(i % 13, 0)
    return time.perf_counter() - start


def reference_median(samples: int) -> float:
    return statistics.median(reference_task() for _ in range(samples))

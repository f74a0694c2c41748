"""Output sets as int bitmasks: bit y set means output y is in the set."""

from __future__ import annotations

from typing import Sequence


def outputs_of(mask: int) -> tuple[int, ...]:
    """The outputs in a mask, in increasing order."""
    out = []
    y = 0
    while mask:
        if mask & 1:
            out.append(y)
        mask >>= 1
        y += 1
    return tuple(out)


def subset_masses(row: Sequence[int]) -> list[int]:
    """mass[mask] for every output subset of an integer weight row, via the
    lowest-set-bit recursion."""
    n = len(row)
    masses = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        masses[mask] = masses[mask ^ low] + row[low.bit_length() - 1]
    return masses

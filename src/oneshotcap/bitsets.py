"""Output sets as int bitmasks: bit y set means output y is in the set."""

from __future__ import annotations

import functools
import math
from typing import Sequence

# Byte b -> 255 - (b with its 8 bits in reverse order); see canonical_order.
_REVERSED_COMPLEMENT = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


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
    """mass[mask] for every output subset of an integer weight row, by
    doubling: the subsets holding output y are those without it, plus y."""
    masses = [0]
    for w in row:
        masses += [m + w for m in masses]
    return masses


def canonical_order(masks: Sequence[int], width: int) -> list[int]:
    """Masks of at most ``width`` bits sorted by size, then by their output
    tuples in lexicographic order: the one node order of every graph.

    Among sets of one size, D precedes D' lexicographically exactly when
    the lowest output of the symmetric difference is in D.  The key below
    orders masks so: the mask's little-endian bytes, each mapped through
    ``_REVERSED_COMPLEMENT``, put output 8k+j at byte k, bit 7-j, as 0
    where D holds it, so the first differing byte and bit are at that
    lowest output, and there D's key is the smaller.
    """
    nbytes = (width + 7) // 8

    def key(mask: int) -> tuple[int, bytes]:
        return mask.bit_count(), mask.to_bytes(nbytes, "little").translate(_REVERSED_COMPLEMENT)

    return sorted(masks, key=key)


@functools.cache
def all_masks(width: int) -> tuple[int, ...]:
    """Every nonempty mask of ``width`` bits, in ``canonical_order``."""
    return tuple(canonical_order(range(1, 1 << width), width))


def count_preceding(mask: int, within: int) -> int:
    """How many nonempty subsets of ``within`` precede ``mask`` in
    ``canonical_order``, counted without listing them.

    The smaller sizes count whole.  A subset T of mask's size precedes it
    when the lowest output y where they differ is in T: T agrees with mask
    below y, holds y, and takes its other members from ``within`` above y.
    """
    size = mask.bit_count()
    left = within.bit_count()  # outputs of within at y or above
    count = sum(math.comb(left, j) for j in range(1, size))
    taken = 0  # members of mask below y
    y = 0
    while taken < size:
        bit = 1 << y
        if within & bit:
            left -= 1
            if mask & bit:
                taken += 1
            else:
                count += math.comb(left, size - taken - 1)
        elif mask & bit:
            break  # no subset of within agrees with mask past y
        y += 1
    return count

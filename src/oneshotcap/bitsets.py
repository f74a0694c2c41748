"""Output sets as int bitmasks: bit y set means output y is in the set."""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

# Byte b -> 255 - (b with its 8 bits in reverse order); see canonical_order.
_REVERSED_COMPLEMENT = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))
# _BIT_DIGITS[j]: byte b -> ASCII "1" where bit j of b is set, else "0";
# see columns.
_BIT_DIGITS = tuple(bytes(b"01"[b >> j & 1] for b in range(256)) for j in range(8))


def outputs_of(mask: int) -> tuple[int, ...]:
    """The set bits of a non-negative mask (a set's outputs, or a node
    set's members), in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# BYTE_OUTPUTS[b]: the set bits of the one-byte mask b, in increasing order.
BYTE_OUTPUTS = tuple(outputs_of(b) for b in range(256))


def subset_masses(row: Sequence[int]) -> list[int]:
    """mass[mask] for every output subset of an integer weight row, by
    doubling: the subsets holding output y are those without it, plus y."""
    masses = [0]
    for w in row:
        masses += [m + w for m in masses]
    return masses


def packing_count(sizes: Iterable[int], room: int) -> int:
    """How many of these set sizes, smallest first, fit in ``room``
    outputs: no more pairwise-disjoint sets of these sizes fit there."""
    fit = 0
    for size in sorted(sizes):
        room -= size
        if room < 0:
            break
        fit += 1
    return fit


def canonical_order(masks: Sequence[int], width: int) -> list[int]:
    """Masks of at most ``width`` bits sorted by size, then by their output
    tuples in lexicographic order: the one node order of every graph.

    Among sets of one size, D precedes D' lexicographically exactly when
    the lowest output of the symmetric difference is in D.  The key below
    orders masks so: the mask's little-endian bytes, each mapped through
    ``_REVERSED_COMPLEMENT``, put output 8k+j at byte k, bit 7-j, as 0
    where D holds it, so the first differing byte and bit are at that
    lowest output, and there D's key is the smaller.  Fewer than two
    masks are copied as they are, with no key built.
    """
    if len(masks) < 2:
        return list(masks)
    nbytes = (width + 7) // 8

    def key(mask: int) -> tuple[int, bytes]:
        return mask.bit_count(), mask.to_bytes(nbytes, "little").translate(_REVERSED_COMPLEMENT)

    return sorted(masks, key=key)


def columns(masks: Sequence[int], width: int) -> list[int]:
    """The transpose of masks of at most ``width`` bits: column y has bit
    i set where masks[i] has bit y.

    One pass packs the masks little-endian, last mask first, into one
    bytes object; bit y of every mask is then bit y % 8 of a stride slice
    from byte y // 8, which ``_BIT_DIGITS`` turns into column y's binary
    digits, most significant (the last mask) first, for ``int(..., 2)``.
    """
    if not masks:
        return [0] * width
    nbytes = (width + 7) // 8
    packed = b"".join([m.to_bytes(nbytes, "little") for m in reversed(masks)])
    return [int(packed[y >> 3::nbytes].translate(_BIT_DIGITS[y & 7]), 2) for y in range(width)]


@functools.cache
def lacking(width: int) -> tuple[int, ...]:
    """Bitsets over the 2^width subsets of ``width`` outputs: bit S of
    lacking(width)[y] is set when the subset S lacks output y.

    Subsets with bit y clear come in runs of 2^y, once every 2^(y+1), so
    the pattern is a run of 2^y ones repeated; the all-ones bitset divided
    by 2^(2^(y+1)) - 1 has a one at the start of each period.
    """
    full = (1 << (1 << width)) - 1
    return tuple(full // ((1 << (2 << y)) - 1) * ((1 << (1 << y)) - 1) for y in range(width))


@functools.cache
def all_masks(width: int) -> tuple[int, ...]:
    """Every nonempty mask of ``width`` bits, in ``canonical_order``."""
    return tuple(canonical_order(range(1, 1 << width), width))

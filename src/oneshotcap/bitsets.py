"""Output sets as int bitmasks: bit y set means output y is in the set;
and rows of small non-negative ints packed into one int each (``Fields``)."""

from __future__ import annotations

import functools
import struct
from operator import lshift
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
def disjoint_tables(width: int) -> tuple[list[int], list[int]]:
    """Bitsets over the 2^width subsets of ``width`` outputs, in two
    tables, (low, high): bit S of ``low[mask & 255] & high[mask >> 8]`` is
    set when the subset S is disjoint from ``mask``, a mask of at most
    ``width`` bits: low is indexed by outputs 0-7, high by the rest.

    Subsets lacking output y come in runs of 2^y, once every 2^(y+1), so
    that bitset is a run of 2^y ones repeated; the all-ones bitset divided
    by 2^(2^(y+1)) - 1 has a one at the start of each period.  Each table
    is built by doubling: the entries holding output y are those without
    it, ANDed with y's bitset.  The tables hold at most 260 bitsets of 128
    bytes at 10 outputs, 33 KB, and 512 of 8 KB at 16, 4 MB.
    """
    full = (1 << (1 << width)) - 1
    low, high = [full], [full]
    for y in range(width):
        lacks = full // ((1 << (2 << y)) - 1) * ((1 << (1 << y)) - 1)
        table = low if y < 8 else high
        table += [t & lacks for t in table]
    return low, high


@functools.cache
def all_masks(width: int) -> tuple[int, ...]:
    """Every nonempty mask of ``width`` bits, in ``canonical_order``."""
    return tuple(canonical_order(range(1, 1 << width), width))


class Fields:
    """A layout packing ``count`` rows of ``width`` non-negative ints into
    one int, for fieldwise arithmetic on whole rows at once ("SIMD within
    a register": Lamport 1975, "Multiple byte processing with full-word
    instructions").

    Let P be the smallest power of two at least ``width`` and at least 8.
    Every field is f = (P * top).bit_length() + 1 bits wide, so any sum of
    up to P values of at most ``top`` is below 2^(f-1): the top bit of each
    field is a guard that no value, maximum or partial row sum reaches,
    and no field ever carries into the next.  Row r holds entry y at bit
    r * stride + y * f, with stride = P * f, a whole number of bytes;
    fields ``width`` to P - 1 stay zero, so a row's sum folds into its own
    field 0.
    """

    __slots__ = ("f", "stride", "ones", "_shifts", "_folds", "_guards", "_low", "_low_guards",
                 "_field0")

    def __init__(self, width: int, top: int, count: int = 1):
        p = 1 << max(3, (width - 1).bit_length())
        self.f = f = (p * top).bit_length() + 1
        self.stride = stride = p * f
        bits = count * stride
        self._shifts = range(0, width * f, f)
        self._folds = tuple(f << b for b in reversed(range(p.bit_length() - 1)))  # P/2, ..., 1 fields
        # bit 0 of every row; the guard bit of every field; field 0 of every row
        self.ones = ((1 << bits) - 1) // ((1 << stride) - 1)
        self._guards = ((1 << bits) - 1) // ((1 << f) - 1) << (f - 1)
        self._low = self.ones * ((1 << f) - 1)
        self._low_guards = self.ones << (f - 1)
        # one row in a struct format: its field 0, read from the row's
        # first bytes as the smallest standard int that holds it, or as
        # raw bytes past 8, then the rest of the row skipped; a row is
        # P * f / 8 >= f bytes, room for either
        size = next((size for size in (1, 2, 4, 8) if 8 * size >= f), (f + 7) >> 3)
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(size, f"{size}s")
        self._field0 = f"{code}{(stride >> 3) - size}x"

    def pack(self, row: Sequence[int]) -> int:
        """One row of at most ``width`` ints, each at most ``top``."""
        return sum(map(lshift, row, self._shifts))

    def stack(self, rows: Sequence[int]) -> int:
        """Packed rows in one int, rows[i] as row i."""
        return sum(map(lshift, rows, range(0, len(rows) * self.stride, self.stride)))

    def max(self, a: int, b: int) -> int:
        """Fieldwise maxima of two packings: a's fields with their guards
        set, minus b's, keep a guard exactly where a's field is at least
        b's, and that guard less its copy shifted to bit 0 selects a's
        field there."""
        f, guards = self.f, self._guards
        d = ((a | guards) - b) & guards
        return b ^ ((a ^ b) & (d - (d >> (f - 1))))

    def sums(self, x: int) -> int:
        """Each row's sum, in its field 0, and zero elsewhere.  Each fold
        adds the fields P/2, P/4, ..., 1 places up, so field 0 ends with
        fields 0 to P - 1 of its own row; the other fields, which mix in
        the next row's, are masked off."""
        for shift in self._folds:
            x += x >> shift
        return x & self._low

    def first_at_least(self, sums: int, least: int) -> int:
        """The first row whose ``sums`` field 0 is at least ``least`` (below
        2^(f-1)), or -1: subtracting ``least`` from every guarded field 0
        keeps the guards of exactly those rows."""
        met = ((sums | self._low_guards) - least * self.ones) & self._low_guards
        return ((met & -met).bit_length() - self.f) // self.stride if met else -1

    def values(self, sums: int, n: int) -> list[int]:
        """Field 0 of the first n rows of ``sums``, which is zero outside
        the rows' fields 0 (as ``sums`` leaves it).  Every row starts at a
        byte, so one struct format reads them all from the little-endian
        bytes of ``sums``, in time linear in its length."""
        data = sums.to_bytes((max(n * self.stride, sums.bit_length()) + 7) >> 3, "little")
        got = struct.unpack_from("<" + self._field0 * n, data)
        return list(got) if self.f <= 64 else [int.from_bytes(b, "little") for b in got]

"""Capacity engines for the two one-shot error metrics.

One exact engine per metric:

* ``max_capacity``  -- the largest packing of pairwise-disjoint minimal
  decoding sets, one per chosen input, from one branch and bound over
  the inputs (``_packings``), with no 2^|Y| bitsets.  No packing is
  larger than the packing bound, so the search stops at a packing that
  reaches it.  Its first packing is first-fit's: the inputs in the
  bound's order, each taking its first minimal set inside the outputs
  still free.  ``_max_engine`` decides where the search answers and
  where the independence number of the maximum-one-shot graph does, and
  the CLI's cross-check reads the engine it names.  The max curve solves
  with a DP over the 2^|Y| output subsets (``_packing``), for sizes
  alone.  The test suite checks the search against the graph engine and
  a separate packing search (``tests/oracles.py``).
* ``avg_capacity``  -- searches codebooks largest-first, each size depth
  first in lexicographic order, pruned by two submodular upper bounds on
  the mass a partial codebook's completions keep; for a fixed codebook
  the pointwise-argmax decoder is average-optimal, so the mean error of a
  codebook is 1 - (1/k) * sum_y max_x P(y|x) and admissibility is a
  single exact comparison.  Each row is packed into one int of guarded
  fields (``bitsets.Fields``; the layout and why no field overflows are
  under ``avg_capacity``), so a node's bounds, over every remaining
  input at once, are a few big-int operations.  The test suite checks it
  against trying every codebook (``tests/oracles.py``).  The paper's graph quantity, the
  eps-sparse number of the average-one-shot graph (``graphs.sparse_number``),
  is at most this capacity, and equal unless the best scheme sacrifices a
  codeword (decoding error exactly 1).

Both engines re-check their witness against the exact error metric
before they return, and raise RuntimeError if it exceeds eps.

``brute_force_capacity`` enumerates every codebook and every total decoder
on tiny channels; it is the independent oracle the engines are validated
against and is deliberately kept literal.

Capacity values are reported as the exact codebook size k; log2(k) is only
ever rendered for display, never compared.

Each engine checks eps once, and its search compares integer masses
(``Channel.weights``) against thresholds from ``Channel.min_mass(eps,
k)``, so epsilon comparisons are exact; the step function jumps at
rational breakpoints, and ``capacity_curve`` recovers them exactly from
integer masses, building a Fraction only for each breakpoint.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, product
from operator import or_
from typing import Iterator

from . import bitsets
from .channel import Channel, FunnelSpec, as_prob, format_prob
from .decoding import (
    Scheme,
    avg_error,
    max_error,
    minimal_sets,
    optimal_avg_decoder,
    scheme_from_disjoint_sets,
)
from .graphs import build_max_graph, independence_number

METRIC_MAX = "maximum"
METRIC_AVG = "average"

_BRUTE_FORCE_LIMIT = 5
# The avg curve walks every codebook, and holds the column maxima of each.
_CURVE_SWEEP_LIMIT = 12
# The max curve's subset DP holds (alpha + 1) bitsets of 2^|Y| bits, 8 KB
# each at 16 outputs, besides the 512 of ``bitsets.disjoint_tables``, 4 MB,
# and a row may have 2^|Y| distinct subset sums, each a candidate
# threshold; ``_max_engine`` reads it too.
_SUBSET_OUTPUT_LIMIT = 16


def normalize_metric(metric: str) -> str:
    aliases = {
        "max": METRIC_MAX, "maximum": METRIC_MAX,
        "avg": METRIC_AVG, "average": METRIC_AVG,
    }
    try:
        return aliases[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None


def render_bits(k: int) -> str:
    return f"{math.log2(k):.12f}"


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value (exact codebook size) plus a witness scheme."""

    metric: str
    epsilon: Fraction
    codebook_size: int
    witness: Scheme

    def __post_init__(self):
        if self.codebook_size < 1:
            raise ValueError("codebook size is always >= 1")
        if len(self.witness.codebook) != self.codebook_size:
            raise ValueError("witness codebook size does not match the claim")

    @property
    def capacity_bits(self) -> float:
        return math.log2(self.codebook_size)

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "epsilon": format_prob(self.epsilon),
            "codebook_size": self.codebook_size,
            "capacity_bits": render_bits(self.codebook_size),
            "witness": self.witness.to_json_dict(),
        }


@dataclass(frozen=True)
class CapacityCurve:
    """Right-continuous step function of codebook size versus epsilon.

    breakpoints[i] = (threshold, k): size is k for thresholds[i] <= eps <
    thresholds[i+1].  Thresholds start at 0 and sizes increase strictly.
    """

    metric: str
    breakpoints: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if not self.breakpoints or self.breakpoints[0][0] != 0:
            raise ValueError("curve must start at epsilon = 0")
        for (t0, k0), (t1, k1) in zip(self.breakpoints, self.breakpoints[1:]):
            if not (t0 < t1 and k0 < k1):
                raise ValueError("breakpoints must increase strictly in both fields")

    def value_at(self, eps: Fraction) -> int:
        eps = as_prob(eps, "eps")
        thresholds = [t for t, _ in self.breakpoints]
        return self.breakpoints[bisect_right(thresholds, eps) - 1][1]

    def to_csv(self) -> str:
        lines = ["epsilon,codebook_size,capacity_bits"]
        for threshold, k in self.breakpoints:
            lines.append(f"{format_prob(threshold)},{k},{render_bits(k)}")
        return "\n".join(lines) + "\n"


def _checked(c: Channel, metric: str, eps: Fraction, size: int, scheme: Scheme) -> CapacityResult:
    """The engine's result, once its witness meets eps under the exact
    error metric; RuntimeError when it does not."""
    error = (max_error if metric == METRIC_MAX else avg_error)(c, scheme)
    if error > eps:
        raise RuntimeError(
            f"{metric} witness has error {format_prob(error)} > eps = {format_prob(eps)}"
        )
    return CapacityResult(metric, eps, size, scheme)


# ---------------------------------------------------------------------------
# Maximum-error metric
# ---------------------------------------------------------------------------

def max_capacity(c: Channel, eps) -> CapacityResult:
    """Largest codebook with worst-codeword error <= eps.

    The largest packing of pairwise-disjoint minimal decoding sets, one per
    chosen input, from ``_max_engine``: the branch and bound over inputs
    (``_packings``) or the independence number of the maximum-one-shot
    graph.  The witness decoder sends each chosen set to its input and
    every leftover output to the first codeword.  eps = 1 short-circuits
    to the full input alphabet (no error can exceed 1), where no decoding
    set is needed.
    """
    eps = as_prob(eps, "eps")
    if eps == 1:
        scheme = optimal_avg_decoder(c, range(c.num_inputs))
        return _checked(c, METRIC_MAX, eps, c.num_inputs, scheme)
    return _max_engine(c, eps)[1]


def _max_engine(c: Channel, eps: Fraction) -> tuple[str, CapacityResult]:
    """The max answer at a checked eps < 1, and the engine that gave it,
    "search" or "graph"; the CLI's cross-check reads the name.

    On at most ``_SUBSET_OUTPUT_LIMIT`` outputs the answer is the last
    packing ``_packings`` yields, a largest one.  Past that, the search's
    first packing, first-fit's, answers where it meets the packing bound,
    and the conflict graph over minimal sets answers where it does not:
    the graph's colouring bound wins on rows of few minimal sets (cubic
    channels), where the search's bound counts set sizes and outputs alone.
    """
    threshold = c.min_mass(eps, 1)
    ceiling = _packing_bound(c, threshold)
    packings = _packings(c, threshold, ceiling)
    engine, sets = "search", next(packings)
    if c.num_outputs <= _SUBSET_OUTPUT_LIMIT:
        for sets in packings:
            pass
    elif len(sets) < ceiling:
        engine = "graph"
        sets = [(n.input, n.mask) for n in independence_number(build_max_graph(c, eps))[1]]
    scheme = scheme_from_disjoint_sets(c, [(x, bitsets.outputs_of(d)) for x, d in sets])
    return engine, _checked(c, METRIC_MAX, eps, len(sets), scheme)


def _packings(c: Channel, threshold: int, ceiling: int) -> Iterator[list[tuple[int, int]]]:
    """Yield ever larger packings of pairwise-disjoint minimal decoding
    sets of integer mass >= a positive ``threshold``, one per input, as
    [(input, mask), ...], until one has ``ceiling`` sets.  Where
    ``ceiling`` is the packing bound, the last is a largest packing.

    A branch and bound over the inputs in the packing bound's order:
    fewest outputs in their smallest minimal set first, ties by index.  At
    each input the search takes each set ``minimal_sets`` yields inside
    the outputs still free, in its order, and then skips the input.  So
    its first packing is first-fit's, each input taking its first set
    inside the free outputs, if any; each later one is the first packing,
    in that order, larger than the one before.  A node is dropped when
    its members, plus how many of the remaining inputs' smallest set sizes
    fit in the free outputs their rows reach, cannot beat the best packing
    so far.  Those sizes are a sorted run of the order, so the count is
    one ``bisect`` on its running sums.  Nor can more of the remaining
    inputs join than those with no forced output (one in every minimal
    set of the row: weight > scale - threshold) plus the free forced
    outputs of the others, each of which holds its own.  The walk is one
    loop over a stack of frames, one per set taken: (position in the
    order, free outputs, members before it, its walk of minimal sets); a
    skip takes no frame.
    """
    nx = c.num_inputs
    sizes = [bisect_left(sums, threshold) for _, sums in c.heaviest_first]
    inputs = sorted(range(nx), key=sizes.__getitem__)
    ends = list(accumulate((sizes[x] for x in inputs), initial=0))
    best = 0
    # built once the first packing falls short; until then best is 0, and
    # the first descent, first-fit, prunes nothing
    reach: list[int] = []

    def most(i: int, free: int, k: int) -> int:
        """The most members a node of k members at position i can end with."""
        fit = bisect_right(ends, ends[i] + (free & reach[i]).bit_count()) - 1 - i
        if forced[i]:  # else no more than the n - i inputs left, never below fit
            fit = min(fit, unforced[i] + (free & forced[i]).bit_count())
        return k + fit

    packing: list[tuple[int, int]] = []
    stack = []
    i, free = 0, (1 << c.num_outputs) - 1
    while True:
        k = len(packing)
        if i == nx or k == ceiling:
            if k > best:
                best = k
                yield packing[:]
                if k == ceiling:
                    return
                if not reach:
                    # over the rows of inputs[i:], reach[i] is the OR of their
                    # outputs of positive weight, forced[i] of their forced
                    # outputs, and unforced[i] counts those with none
                    cut = c.scale - threshold
                    rows = [(c.support_mask(x),
                             sum(1 << y for y, w in enumerate(c.weights[x]) if w > cut))
                            for x in reversed(inputs)]
                    reach, forced = ([*accumulate(masks, or_, initial=0)][::-1]
                                     for masks in zip(*rows))
                    unforced = [*accumulate((not f for _, f in rows), initial=0)][::-1]
        else:
            stack.append((i, free, k, minimal_sets(c, inputs[i], threshold, within=free)))
        while stack:  # the next child: the top frame's next set, else its skip
            i, free, k, walk = stack[-1]
            del packing[k:]
            if best and most(i, free, k) <= best:
                stack.pop()
                continue
            for mask in walk:
                if not best or most(i + 1, free ^ mask, k + 1) > best:
                    packing.append((inputs[i], mask))
                    i, free = i + 1, free ^ mask
                    break
            else:
                stack.pop()
                i += 1
            break
        else:
            return


def _packing_bound(c: Channel, threshold: int) -> int:
    """An upper bound on the codebook size at a positive ``threshold``: a
    row's smallest decoding set has as many outputs as it takes of its
    heaviest to reach the threshold (``c.heaviest_first``'s running sums),
    and the chosen sets are pairwise disjoint, so no more fit than
    ``bitsets.packing_count`` of those sizes in the channel's outputs."""
    return bitsets.packing_count((bisect_left(sums, threshold) for _, sums in c.heaviest_first),
                                 c.num_outputs)


def _packing(c: Channel, threshold: int, ceiling: int) -> int:
    """The most pairwise-disjoint minimal decoding sets of integer mass
    >= ``threshold`` (positive) that distinct inputs can take, or
    ``ceiling`` as soon as that many fit; the max curve's solver.

    unions[k] is a bitset over the 2^|Y| output subsets: bit S is set when
    S is the union of k such sets from distinct inputs seen so far, and
    unions[0] holds only the empty set.  Input x adds each of its minimal
    masks D to every union S of a level that D is disjoint from: the
    subsets disjoint from D are one AND of two ``bitsets.disjoint_tables``
    entries, one per byte of D, and for those S | D = S + D, so a shift
    left by D moves them to level k + 1.  Every level is read before x,
    so no input is used twice.  The size is the highest non-empty level.
    With r inputs after x, a union x puts at level k + 1 reaches level
    k + 1 + r at most, so x extends only the levels k with k + 1 + r >=
    top, the highest level so far: the others are dead, and the size is
    that of extending every level.  The set that first fills level
    ``ceiling`` breaks out of the walk, and with it the DP, partway
    through its row.
    """
    unions = [1]
    low, high = bitsets.disjoint_tables(c.num_outputs)
    nx = c.num_inputs
    for x in range(nx):
        grown = unions + [0]
        live = max(0, len(unions) - nx + x - 1)  # the lowest k with k + 1 + r >= top
        for mask in minimal_sets(c, x, threshold):
            disjoint = low[mask & 255] & high[mask >> 8]
            for k in range(live, len(unions)):
                grown[k + 1] |= (unions[k] & disjoint) << mask
            if len(grown) > ceiling and grown[ceiling]:
                break
        if not grown[-1]:
            grown.pop()
        unions = grown
        if len(unions) > ceiling:
            break
    return len(unions) - 1


# ---------------------------------------------------------------------------
# Average-error metric
# ---------------------------------------------------------------------------

def avg_capacity(c: Channel, eps) -> CapacityResult:
    """Largest codebook whose optimal decoder has mean error <= eps.

    Codebook sizes k are searched largest-first, and for each the
    codebooks in lexicographic order, depth first; the first codebook that
    keeps ``c.min_mass(eps, k)`` wins, which makes witnesses deterministic.
    The mass a codebook keeps, sum_y max_x weights[x][y], is submodular, so
    a partial codebook is dropped when either of two upper bounds on what
    its completions keep falls short (Nemhauser, Wolsey & Fisher 1978):
    the column maxima of it and of every input still available, or its
    own mass plus the r largest gains one more of those inputs adds, with
    r inputs still to choose.  Both drop only partial codebooks that no
    completion makes admissible, so the size and the codebook are those
    of trying every codebook in order.

    The rows are packed once per call into ``bitsets.Fields``: one int
    per row of P fields, P the smallest power of two at least |Y| and at
    least 8, each (P * scale).bit_length() + 1 bits wide.  A column
    maximum is at most the scale and a row of them sums to at most
    P * scale, below a field's top bit, its guard, so no field carries
    into the next.  Sizes whose need exceeds the column maxima of every
    input are skipped: no codebook keeps more, and every need compared
    stays below the guard.
    """
    eps = as_prob(eps, "eps")
    one = bitsets.Fields(c.num_outputs, c.scale)
    rows = [one.pack(row) for row in c.weights]
    reach = list(accumulate(reversed(rows), one.max, initial=0))[::-1]
    total = one.sums(reach[0])
    every = bitsets.Fields(c.num_outputs, c.scale, c.num_inputs)
    packed = (one, every, rows, every.stack(rows))
    # the need grows with k, so the sizes within the total are a prefix
    top = bisect_right(range(1, c.num_inputs + 1), total, key=lambda k: c.min_mass(eps, k))
    for k in range(top, 0, -1):
        codebook = _first_codebook(packed, reach, k, c.min_mass(eps, k))
        if codebook is not None:
            return _checked(c, METRIC_AVG, eps, k, optimal_avg_decoder(c, codebook))
    raise AssertionError("unreachable: a singleton codebook has error 0")


def _first_codebook(
    packed: tuple[bitsets.Fields, bitsets.Fields, list[int], int], reach: list[int], k: int,
    need: int
) -> list[int] | None:
    """The lexicographically first k inputs whose column maxima sum to at
    least ``need``, or None; ``avg_capacity``'s search at one size.
    ``packed`` is the layout of one row and of every row, the rows and
    their stack; ``reach[x]`` is the column maxima of the rows from x on.
    ``need`` is at most the sum of ``reach[0]``, so it fits a field.

    A node is a partial codebook: its column maxima and the first input
    it may still take.  Each remaining input's kept mass, the column
    maxima with its row added, is one fieldwise max against the rows'
    stack shifted to that input and one fold.  With one input left to
    choose, its children are its completions, so it takes the first of
    those masses that reaches ``need``.  With exactly as many inputs left
    as it needs, its one completion keeps the column-maxima bound itself.
    At the root each gain is a whole row, so the gains bound holds there
    and is not computed.  The walk is one loop over a stack of frames, one
    per input chosen: [that input, the last input a sibling may be, the
    parent's column maxima].
    """
    one, every, rows, block = packed
    nx, stride, ones = len(rows), every.stride, every.ones
    stack: list[list] = []
    start, cols = 0, 0
    while True:
        r = k - len(stack)
        if one.sums(one.max(cols, reach[start])) >= need:
            if nx - start == r:
                return [f[0] for f in stack] + list(range(start, nx))
            if r == 1 or stack:
                shift = start * stride
                kept = every.sums(every.max(cols * (ones >> shift), block >> shift))
                if r == 1:
                    j = every.first_at_least(kept, need)
                    if j >= 0:
                        return [f[0] for f in stack] + [start + j]
                elif (sum(sorted(every.values(kept, nx - start))[-r:])
                      - (r - 1) * one.sums(cols) >= need):
                    stack.append([start - 1, nx - r, cols])
            else:
                stack.append([start - 1, nx - r, cols])
        while stack:  # the next sibling, or the parent's
            frame = stack[-1]
            frame[0] += 1
            if frame[0] <= frame[1]:
                break
            stack.pop()
        else:
            return None
        j, _, parent = frame
        start, cols = j + 1, one.max(parent, rows[j])


# ---------------------------------------------------------------------------
# Closed form for the funnel family
# ---------------------------------------------------------------------------

def funnel_closed_form(spec: FunnelSpec, eps) -> int:
    """Max-metric codebook size of the funnel channel, without any search.

    With sentinels e_0 = 0 and e_n = 1, the size is i+1 for the unique i
    with e_i <= eps < e_{i+1}: the codebook {1, ..., i+1} decodes symbol
    i+1 through everything that leaks, and no larger codebook survives
    because all other symbols leak into output 0 with mass > eps.
    """
    eps = as_prob(eps, "eps")
    return bisect_right(spec.e, eps) + 1


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_capacity(c: Channel, metric: str, eps) -> CapacityResult:
    """Exhaustive maximization over every codebook and every total decoder.

    The oracle the engines are tested against: nothing shared with the
    packing, graph, or codebook-search paths beyond the error metrics
    themselves.  Limited to 5x5 channels (decoder count is |codebook|^|Y|).
    """
    eps = as_prob(eps, "eps")
    metric = normalize_metric(metric)
    nx, ny = c.num_inputs, c.num_outputs
    if nx > _BRUTE_FORCE_LIMIT or ny > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {_BRUTE_FORCE_LIMIT}x{_BRUTE_FORCE_LIMIT} channels")
    err_fn = max_error if metric == METRIC_MAX else avg_error
    for k in range(nx, 0, -1):
        for cb in combinations(range(nx), k):
            for dec in product(cb, repeat=ny):
                s = Scheme(cb, dec)
                if err_fn(c, s) <= eps:
                    return CapacityResult(metric, eps, k, s)
    raise AssertionError("unreachable: a singleton codebook has error 0")


# ---------------------------------------------------------------------------
# Capacity curves
# ---------------------------------------------------------------------------

def capacity_curve(c: Channel, metric: str) -> CapacityCurve:
    """Exact breakpoints of codebook size as a step function of epsilon.

    Both metrics keep integer masses, and build a Fraction only for a
    breakpoint.  Maximum metric: the admissible-set families change only
    at values 1 - mass(D) over output subsets D, so those are the only
    candidate thresholds; they are kept as integer masses, which are also
    the searches' thresholds.  A row's subset masses are its distinct
    subset sums, grown output by output (a zero weight adds none), so no
    per-subset table is built.  The size never falls as eps grows, and an
    interval of sorted candidates whose two ends have equal sizes is
    settled without solving inside it.  Inside any other interval the
    packing bound (``_packing_bound``) never falls either and is never
    below the size, so every candidate whose bound is at most the lower
    end's size has that size.  The first candidate whose bound exceeds
    it is found by bisecting the bound, and solved: a larger size there
    is a breakpoint, and the rest of the interval is left; an equal size
    settles the candidates up to it, and the rest is split in halves.
    Each solve is the DP over output subsets (``_packing``, no conflict
    graph), which stops at the upper end's size or the packing bound,
    whichever is less; a bound of 1 is the size, with no DP.  Only sizes
    are computed, no witness; channels of more than 16 outputs are
    refused.  Average metric: size k first becomes admissible at the
    least optimal-decoder mean error over codebooks of size k,
    1 - best[k] / (k * scale) with best[k] the most mass a k-codebook
    keeps.  One walk over the 2^|X| codebooks, as masks of inputs in
    increasing order, finds every best[k]: the rows are packed once
    (``bitsets.Fields``), and a codebook's column maxima are one fieldwise
    max of its parent's (the codebook less its lowest input) and that
    input's row, and one fold gives the mass kept.  A size is a breakpoint
    when its error is below every larger size's, so a tie goes to the
    larger size; channels of more than 12 inputs are refused.
    """
    metric = normalize_metric(metric)
    scale = c.scale
    breakpoints: list[tuple[Fraction, int]] = []
    if metric == METRIC_MAX:
        if c.num_outputs > _SUBSET_OUTPUT_LIMIT:
            raise ValueError(
                f"curve sweep needs <= {_SUBSET_OUTPUT_LIMIT} outputs, channel has {c.num_outputs}"
            )
        # a row's subset masses are its subset sums, grown output by output;
        # the sums all lie in [0, scale], so a list of more than scale + 1
        # repeats some, and is deduplicated before it doubles again
        masses = set()
        for row in c.weights:
            sums = [0]
            for w in filter(None, row):
                if len(sums) > scale:
                    sums = list(set(sums))
                sums += [s + w for s in sums]
            masses.update(sums)
        # candidate i is eps = 1 - masses[i] / scale, from eps = 0 (the full
        # output set) to eps = 1 (the empty set); a decoding set there needs
        # mass masses[i], min_mass of that eps at k = 1
        masses = sorted(masses, reverse=True)

        @cache
        def bound(i: int) -> int:
            return _packing_bound(c, masses[i])

        def solve(i: int, ceiling: int) -> int:
            ceiling = min(ceiling, bound(i))
            return 1 if ceiling == 1 else _packing(c, masses[i], ceiling)

        last = len(masses) - 1
        known = {0: solve(0, c.num_inputs), last: c.num_inputs}  # index -> size
        unsettled = [(0, last)]
        while unsettled:
            lo, hi = unsettled.pop()
            if hi - lo < 2 or known[lo] == known[hi]:
                continue  # every threshold inside has the ends' size
            # below the first index whose bound exceeds known[lo], the size
            # is known[lo]; a larger size at that index is a breakpoint
            a = bisect_right(range(lo + 1, hi), known[lo], key=bound) + lo + 1
            if a == hi:
                continue
            known[a] = solve(a, known[hi])
            if known[a] > known[lo]:
                unsettled.append((a, hi))
            elif hi - a > 1:
                mid = (a + hi) // 2
                known[mid] = solve(mid, known[hi])
                unsettled += [(a, mid), (mid, hi)]
        for i in sorted(known):
            if not breakpoints or known[i] > breakpoints[-1][1]:
                breakpoints.append((Fraction(scale - masses[i], scale), known[i]))
    else:
        if c.num_inputs > _CURVE_SWEEP_LIMIT:
            raise ValueError(
                f"curve sweep needs <= {_CURVE_SWEEP_LIMIT} inputs, channel has {c.num_inputs}"
            )
        nx = c.num_inputs
        one = bitsets.Fields(c.num_outputs, scale)
        rows = [one.pack(row) for row in c.weights]
        # cols[cb]: the column maxima of codebook cb, a mask of inputs, from
        # those of cb less its lowest input; best[k]: the most mass a
        # k-codebook keeps
        cols = [0] * (1 << nx)
        best = [0] * (nx + 1)
        for cb in range(1, 1 << nx):
            low = cb & -cb
            cols[cb] = maxima = one.max(cols[cb ^ low], rows[low.bit_length() - 1])
            k, mass = cb.bit_count(), one.sums(maxima)
            if mass > best[k]:
                best[k] = mass
        # from the largest size down, size k's error is below that of j,
        # the last size kept (mass kept, none at first), exactly when
        # best[k] / k > kept / j
        j, kept = 1, 0
        for k in range(nx, 0, -1):
            if best[k] * j > kept * k:
                j, kept = k, best[k]
                breakpoints.append((Fraction(k * scale - kept, k * scale), k))
        breakpoints.reverse()
    return CapacityCurve(metric, tuple(breakpoints))

"""One-shot communication schemes and exact error metrics.

A scheme is a codebook (a set of input symbols) plus a total decoding map
from every output symbol to some codeword.  The decoder's pre-images
partition the output alphabet, so the per-codeword decoding error is
1 minus the row mass captured by the codeword's pre-image.  Both error
metrics (worst codeword and mean over codewords) are computed as exact
Fractions.

``minimal_sets`` is the workhorse behind the capacity engines: given the
integer row mass a decoding set must capture (``Channel.min_mass`` of an
eps its caller checked), it yields the inclusion-minimal output sets that
capture it, as bare bitmasks, and can read the outputs of one mask alone
(the max search's free outputs); a caller stops it with ``break``.
``minimal_decoding_masks`` lists and caps the masks in
``bitsets.canonical_order``, and ``enumerate_min_decoding_sets`` is its
tuple form that takes eps.
Only minimal sets matter when packing pre-images, since shrinking a
pre-image to a minimal subset preserves disjointness.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from . import bitsets
from .channel import Channel, as_prob, format_prob

# Most nodes of a maximum-one-shot graph, and so most minimal decoding sets
# of one row: the graph holds N ints of N bits once, so N = 2^15 is about
# 128 MB.
_MAX_GRAPH_NODE_LIMIT = 1 << 15


@dataclass(frozen=True)
class Scheme:
    """Codebook plus total decoder; decoder[y] is the codeword output y maps to."""

    codebook: tuple[int, ...]
    decoder: tuple[int, ...]

    def __post_init__(self):
        if not self.codebook:
            raise ValueError("codebook must be nonempty")
        if len(set(self.codebook)) != len(self.codebook):
            raise ValueError("codebook entries must be distinct")
        if any(x < 0 for x in self.codebook):
            raise ValueError("codebook entries must be nonnegative indices")
        members = set(self.codebook)
        for y, x in enumerate(self.decoder):
            if x not in members:
                raise ValueError(f"decoder[{y}] = {x} is not in the codebook")

    def preimage(self, x: int) -> tuple[int, ...]:
        return tuple(y for y, cw in enumerate(self.decoder) if cw == x)

    def to_json_dict(self) -> dict:
        return {"codebook": list(self.codebook), "decoder": list(self.decoder)}

    @classmethod
    def from_json_dict(cls, data) -> "Scheme":
        """The scheme of a parsed JSON object with ``codebook`` and
        ``decoder`` lists of ints; any other value raises ValueError
        naming the fault."""
        if not isinstance(data, dict):
            raise ValueError(f"scheme must be a JSON object, got {type(data).__name__}")
        fields = []
        for key in ("codebook", "decoder"):
            if key not in data:
                raise ValueError(f"scheme has no {key!r} field")
            value = data[key]
            if not isinstance(value, list):
                raise ValueError(f"scheme {key!r} must be a list, got {type(value).__name__}")
            for i, entry in enumerate(value):
                if type(entry) is not int:  # JSON true/false load as bools
                    raise ValueError(f"scheme {key}[{i}] = {entry!r} is not an int")
            fields.append(tuple(value))
        return cls(*fields)


def _check_dims(c: Channel, s: Scheme) -> None:
    if any(x >= c.num_inputs for x in s.codebook):
        raise ValueError("codebook index out of range for this channel")
    if len(s.decoder) != c.num_outputs:
        raise ValueError(
            f"decoder covers {len(s.decoder)} outputs, channel has {c.num_outputs}"
        )


def _captured_masses(c: Channel, s: Scheme) -> dict[int, int]:
    """Codeword x -> the integer mass of row x that its pre-image captures."""
    _check_dims(c, s)
    captured = dict.fromkeys(s.codebook, 0)
    for y, x in enumerate(s.decoder):
        captured[x] += c.weights[x][y]
    return captured


def per_codeword_errors(c: Channel, s: Scheme) -> dict[int, Fraction]:
    """Exact decoding error 1 - P(Y in preimage(x) | X=x) for each codeword."""
    return {x: Fraction(c.scale - m, c.scale) for x, m in _captured_masses(c, s).items()}


def max_error(c: Channel, s: Scheme) -> Fraction:
    """Worst per-codeword decoding error, exactly, from the least captured mass."""
    return Fraction(c.scale - min(_captured_masses(c, s).values()), c.scale)


def avg_error(c: Channel, s: Scheme) -> Fraction:
    """Mean per-codeword decoding error, exactly, from the pre-images' total mass."""
    _check_dims(c, s)
    total = len(s.codebook) * c.scale
    return Fraction(total - sum(c.weights[x][y] for y, x in enumerate(s.decoder)), total)


# ---------------------------------------------------------------------------
# Minimal decoding sets
# ---------------------------------------------------------------------------

def minimal_decoding_masks(c: Channel, x: int, threshold: int) -> list[int]:
    """The inclusion-minimal output sets of row x with integer mass at
    least a positive ``threshold`` (``c.min_mass(eps, 1)`` at budget
    eps < 1), as bitmasks (bit y = output y) in ``bitsets.canonical_order``.
    More than ``_MAX_GRAPH_NODE_LIMIT`` sets raise ValueError.
    """
    found: list[int] = []
    for mask in minimal_sets(c, x, threshold):
        if len(found) == _MAX_GRAPH_NODE_LIMIT:  # stop before holding more
            raise ValueError(f"input {x} has more than {_MAX_GRAPH_NODE_LIMIT} "
                             "minimal decoding sets")
        found.append(mask)
    return bitsets.canonical_order(found, c.num_outputs)


def minimal_sets(c: Channel, x: int, threshold: int, within: int = -1) -> Iterator[int]:
    """Yield the mask of each inclusion-minimal output set of row x with
    integer mass at least a positive ``threshold``; a caller that has seen
    enough stops with ``break``.

    With ``within``, the walk reads only the outputs in that mask.  A
    minimal set of the row inside it is a minimal set of the row cut down
    to it, and the other way round, so the walk yields exactly the sets
    of the whole walk that lie inside ``within``, in the same order.

    Depth-first in ``c.heaviest_first`` order (a minimal set holds no
    output of weight 0): a set grows, by one output after its last, only
    while its mass is below the threshold, and is complete once it reaches
    it.  The output added last is the lightest, and without it the mass
    was below the threshold, so every completed set is minimal.  A set
    grows only by outputs up to the last index from which the rest of the
    order can still lift it to the threshold: one ``bisect_right`` on the
    running sums per set.  The walk is one loop over a stack of frames, one
    per output added, so its memory grows with the set's size.  It keeps no
    count: minimal sets form an antichain, so on the subset DP's at most
    16 outputs a row has at most C(16, 8) = 12,870 (Sperner).
    """
    order, sums = c.heaviest_first[x]
    row = c.weights[x]
    if within != -1:
        order = [y for y in order if within >> y & 1]
        sums = list(accumulate((row[y] for y in order), initial=0))
    total = sums[-1]
    # a frame: the next index into order, the end of the indices that can
    # still reach the mass missing (positive), that mass and the set so
    # far; the stack holds the frames to resume
    stack = []
    i, end, need, mask = 0, bisect_right(sums, total - threshold), threshold, 0
    while True:
        if i < end:
            y = order[i]
            left = need - row[y]
            i += 1
            if left > 0:
                stack.append((i, end, need, mask))
                end = bisect_right(sums, total - left, i)
                need, mask = left, mask | 1 << y
            else:
                yield mask | 1 << y
        elif stack:
            i, end, need, mask = stack.pop()
        else:
            return


def enumerate_min_decoding_sets(
    c: Channel, x: int, eps: Fraction
) -> list[tuple[int, ...]]:
    """All inclusion-minimal output sets capturing mass >= 1-eps for input
    x, as output tuples in ``minimal_decoding_masks``'s order: by size,
    then lexicographically."""
    eps = as_prob(eps, "eps")
    if eps == 1:
        raise ValueError("eps must be in [0, 1) for minimal decoding sets")
    return [bitsets.outputs_of(m) for m in minimal_decoding_masks(c, x, c.min_mass(eps, 1))]


# ---------------------------------------------------------------------------
# Decoder construction
# ---------------------------------------------------------------------------

def optimal_avg_decoder(c: Channel, codebook: Sequence[int]) -> Scheme:
    """Scheme with the decoder minimizing the average error for this codebook.

    gamma(y) is the codeword maximizing P(Y=y|X=x); ties and outputs with
    zero mass under every codeword go to the smallest codeword index.  The
    mean error is 1 - (1/k) * sum_y P(y | gamma(y)), so the pointwise argmax
    minimizes it over all total decoders.
    """
    members = sorted(codebook)
    if not members:
        raise ValueError("codebook must be nonempty")
    decoder = []
    for y in range(c.num_outputs):
        best = members[0]
        best_p = c.weights[best][y]
        for x in members[1:]:
            p = c.weights[x][y]
            if p > best_p:
                best, best_p = x, p
        decoder.append(best)
    return Scheme(tuple(codebook), tuple(decoder))


def scheme_from_disjoint_sets(
    c: Channel, assignments: Sequence[tuple[int, Iterable[int]]]
) -> Scheme:
    """Turn pairwise-disjoint decoding sets into a scheme.

    Each (x, outputs) pair claims its outputs for codeword x; every
    unclaimed output decodes to the first (smallest) codeword.  The
    resulting per-codeword error is at most 1 - mass(outputs).
    """
    pairs = [(x, tuple(d)) for x, d in assignments]
    if not pairs:
        raise ValueError("need at least one (input, outputs) assignment")
    inputs = [x for x, _ in pairs]
    if len(set(inputs)) != len(inputs):
        raise ValueError("assignment inputs must be distinct")
    owner: dict[int, int] = {}
    for x, outputs in pairs:
        for y in outputs:
            if y in owner:
                raise ValueError(f"output {y} claimed by both {owner[y]} and {x}")
            owner[y] = x
    codebook = tuple(sorted(inputs))
    decoder = tuple(owner.get(y, codebook[0]) for y in range(c.num_outputs))
    return Scheme(codebook, decoder)


# ---------------------------------------------------------------------------
# Monte-Carlo validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodewordStats:
    codeword: int
    trials: int
    errors: int
    exact_error: Fraction

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    seed: int
    per_codeword: tuple[CodewordStats, ...]
    exact_max: Fraction
    exact_avg: Fraction

    @property
    def empirical_max(self) -> float:
        return max(s.error_rate for s in self.per_codeword)

    @property
    def empirical_avg(self) -> float:
        return sum(s.error_rate for s in self.per_codeword) / len(self.per_codeword)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "per_codeword": [
                {
                    "codeword": s.codeword,
                    "trials": s.trials,
                    "errors": s.errors,
                    "error_rate": s.error_rate,
                    "exact_error": format_prob(s.exact_error),
                    "exact_error_float": float(s.exact_error),
                }
                for s in self.per_codeword
            ],
            "empirical_max": self.empirical_max,
            "empirical_avg": self.empirical_avg,
            "exact_max": format_prob(self.exact_max),
            "exact_avg": format_prob(self.exact_avg),
        }


def simulate(c: Channel, s: Scheme, trials: int, seed: int) -> SimulationReport:
    """Transmit each codeword `trials` times and report empirical error rates.

    A trial only decides whether the codeword is decoded wrongly, which it
    is with its exact error p/q: the trial draws u from range(q) and counts
    an error when u < p.  A codeword with error 0 cannot err and takes no
    draws.  One ``random.Random(seed)`` draws for the codewords in codebook
    order, so sampling is exact, deterministic in the seed and takes
    constant memory.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    exact = per_codeword_errors(c, s)
    rng = random.Random(seed)
    stats = []
    for x, error in exact.items():
        p, q = error.numerator, error.denominator
        errors = sum(rng.randrange(q) < p for _ in range(trials)) if p else 0
        stats.append(CodewordStats(x, trials, errors, error))

    return SimulationReport(
        trials=trials,
        seed=seed,
        per_codeword=tuple(stats),
        exact_max=max(exact.values()),
        exact_avg=avg_error(c, s),
    )

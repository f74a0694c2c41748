"""One-shot communication schemes and exact error metrics.

A scheme is a codebook (a set of input symbols) plus a total decoding map
from every output symbol to some codeword.  The decoder's pre-images
partition the output alphabet, so the per-codeword decoding error is
1 minus the row mass captured by the codeword's pre-image.  Both error
metrics (worst codeword and mean over codewords) are computed as exact
Fractions.

``minimal_decoding_masks`` is the workhorse behind the capacity engines:
for an error budget eps, it lists the inclusion-minimal output sets, as
bitmasks, that capture at least 1-eps of an input's row mass (integer
weights against ``Channel.min_mass``); ``enumerate_min_decoding_sets`` is
its sorted tuple form.  Only minimal sets matter when packing pre-images,
since shrinking a pre-image to a minimal subset preserves disjointness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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


def is_max_admissible(c: Channel, s: Scheme, eps: Fraction) -> bool:
    return max_error(c, s) <= eps


def is_avg_admissible(c: Channel, s: Scheme, eps: Fraction) -> bool:
    return avg_error(c, s) <= eps


# ---------------------------------------------------------------------------
# Minimal decoding sets
# ---------------------------------------------------------------------------

def minimal_decoding_masks(c: Channel, x: int, eps: Fraction) -> list[int]:
    """Bitmask form of ``enumerate_min_decoding_sets`` (bit y = output y),
    in search order; callers that need an order sort.

    Depth-first over the outputs of non-zero probability (a minimal set
    holds no other), sorted by descending probability.  A branch
    stops as soon as its mass reaches 1-eps: supersets of a qualifying set
    are never minimal.  A completed set is minimal iff dropping its
    lightest member would fall below the threshold, which subsumes the check
    for every member.  A row with more than ``_MAX_GRAPH_NODE_LIMIT``
    minimal sets raises ValueError.
    """
    eps = as_prob(eps, "eps")
    if eps == 1:
        raise ValueError("eps must be in [0, 1) for minimal decoding sets")
    threshold = c.min_mass(eps, 1)
    row = c.weights[x]
    order = sorted((y for y, w in enumerate(row) if w), key=lambda y: -row[y])
    weights = [row[y] for y in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    found: list[int] = []

    def dfs(i: int, mass: int, mask: int, lightest: int) -> None:
        if mass >= threshold:
            if mass - lightest < threshold:
                if len(found) == _MAX_GRAPH_NODE_LIMIT:
                    raise ValueError(
                        f"input {x} has more than {_MAX_GRAPH_NODE_LIMIT} "
                        f"minimal decoding sets"
                    )
                found.append(mask)
            return
        if i == len(order) or mass + suffix[i] < threshold:
            return
        w = weights[i]
        dfs(i + 1, mass + w, mask | (1 << order[i]), min(lightest, w))
        dfs(i + 1, mass, mask, lightest)

    dfs(0, 0, 0, c.scale)
    del dfs  # it holds itself through its closure; free its work by refcount
    return found


def enumerate_min_decoding_sets(
    c: Channel, x: int, eps: Fraction
) -> list[tuple[int, ...]]:
    """All inclusion-minimal output sets capturing mass >= 1-eps for input x.

    Sorted by size, then lexicographically, for reproducible downstream
    graphs and witnesses.
    """
    masks = bitsets.canonical_order(minimal_decoding_masks(c, x, eps), c.num_outputs)
    return [bitsets.outputs_of(m) for m in masks]


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

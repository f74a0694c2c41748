"""One-shot communication schemes and exact error metrics.

A scheme is a codebook (a set of input symbols) plus a total decoding map
from every output symbol to some codeword.  The decoder's pre-images
partition the output alphabet, so the per-codeword decoding error is
1 minus the row mass captured by the codeword's pre-image.  Both error
metrics (worst codeword and mean over codewords) are computed as exact
Fractions.

``enumerate_min_decoding_sets`` is the workhorse behind the capacity
engines: for an error budget eps, it lists the inclusion-minimal output
sets that capture at least 1-eps of an input's row mass.  Only minimal
sets matter when packing pre-images, since shrinking a pre-image to a
minimal subset preserves disjointness.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import bitsets
from .channel import ONE, ZERO, Channel, format_prob

# Row lcm above which Monte-Carlo sampling falls back from numpy int64
# arithmetic to Python integers.
_NUMPY_LCM_LIMIT = 1 << 62
# Most nodes of a maximum-one-shot graph, and so most minimal decoding sets
# of one row: the graph holds N ints of N bits twice, so N = 2^15 is about
# 256 MB.
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
    def from_json_dict(cls, data: dict) -> "Scheme":
        return cls(tuple(data["codebook"]), tuple(data["decoder"]))


def _check_dims(c: Channel, s: Scheme) -> None:
    if any(x >= c.num_inputs for x in s.codebook):
        raise ValueError("codebook index out of range for this channel")
    if len(s.decoder) != c.num_outputs:
        raise ValueError(
            f"decoder covers {len(s.decoder)} outputs, channel has {c.num_outputs}"
        )


def per_codeword_errors(c: Channel, s: Scheme) -> dict[int, Fraction]:
    """Exact decoding error 1 - P(Y in preimage(x) | X=x) for each codeword."""
    _check_dims(c, s)
    captured = {x: ZERO for x in s.codebook}
    for y, x in enumerate(s.decoder):
        captured[x] += c.prob(x, y)
    return {x: ONE - captured[x] for x in s.codebook}


def max_error(c: Channel, s: Scheme) -> Fraction:
    """Worst per-codeword decoding error, exactly."""
    return max(per_codeword_errors(c, s).values())


def avg_error(c: Channel, s: Scheme) -> Fraction:
    """Mean per-codeword decoding error, exactly."""
    errors = per_codeword_errors(c, s)
    return sum(errors.values(), ZERO) / len(errors)


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

    Depth-first over outputs sorted by descending row probability.  A branch
    stops as soon as its mass reaches 1-eps: supersets of a qualifying set
    are never minimal.  A completed set is minimal iff dropping its
    lightest member would fall below the threshold, which subsumes the check
    for every member.  A row with more than ``_MAX_GRAPH_NODE_LIMIT``
    minimal sets raises ValueError.
    """
    if not (ZERO <= eps < ONE):
        raise ValueError("eps must be in [0, 1) for minimal decoding sets")
    threshold = ONE - eps
    row = c.row(x)
    order = sorted(range(c.num_outputs), key=lambda y: (-row[y], y))
    weights = [row[y] for y in order]
    suffix = [ZERO] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    found: list[int] = []

    def dfs(i: int, mass: Fraction, mask: int, lightest: Fraction) -> None:
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

    dfs(0, ZERO, 0, ONE)
    return found


def enumerate_min_decoding_sets(
    c: Channel, x: int, eps: Fraction
) -> list[tuple[int, ...]]:
    """All inclusion-minimal output sets capturing mass >= 1-eps for input x.

    Sorted by size, then lexicographically, for reproducible downstream
    graphs and witnesses.
    """
    sets = [bitsets.outputs_of(m) for m in minimal_decoding_masks(c, x, eps)]
    sets.sort(key=lambda d: (len(d), d))
    return sets


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
        best_p = c.prob(best, y)
        for x in members[1:]:
            p = c.prob(x, y)
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


def _row_thresholds(c: Channel, x: int) -> tuple[list[int], int]:
    """Cumulative integer masses for inverse-CDF sampling of row x.

    Scaling by the lcm of the row's denominators keeps the sampling exact:
    a uniform integer below the lcm falls in bin y with probability exactly
    P(y|x).
    """
    row = c.row(x)
    lcm = math.lcm(*(p.denominator for p in row))
    cumulative = []
    acc = 0
    for p in row:
        acc += p.numerator * (lcm // p.denominator)
        cumulative.append(acc)
    return cumulative, lcm


def simulate(c: Channel, s: Scheme, trials: int, seed: int) -> SimulationReport:
    """Transmit each codeword `trials` times and report empirical error rates.

    Sampling is exact (integer thresholds over the row lcm) and
    deterministic in the seed.  Rows with small lcm are sampled in bulk via
    numpy; astronomically fine-grained rows fall back to Python integers.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_dims(c, s)
    exact = per_codeword_errors(c, s)
    thresholds = {x: _row_thresholds(c, x) for x in s.codebook}
    use_numpy = all(lcm < _NUMPY_LCM_LIMIT for _, lcm in thresholds.values())
    rng = np.random.default_rng(seed) if use_numpy else None
    py_rng = None if use_numpy else random.Random(seed)

    stats = []
    for x in s.codebook:
        cumulative, lcm = thresholds[x]
        if use_numpy:
            draws = rng.integers(0, lcm, size=trials, dtype=np.int64)
            bins = np.searchsorted(np.array(cumulative, dtype=np.int64), draws, side="right")
            decoded = np.array(s.decoder, dtype=np.int64)[bins]
            errors = int(np.count_nonzero(decoded != x))
        else:
            errors = 0
            for _ in range(trials):
                u = py_rng.randrange(lcm)
                y = bisect_right(cumulative, u)
                if s.decoder[y] != x:
                    errors += 1
        stats.append(CodewordStats(x, trials, errors, exact[x]))

    return SimulationReport(
        trials=trials,
        seed=seed,
        per_codeword=tuple(stats),
        exact_max=max(exact.values()),
        exact_avg=sum(exact.values(), ZERO) / len(exact),
    )

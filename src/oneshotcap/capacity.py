"""Capacity engines for the two one-shot error metrics.

One exact engine per metric:

* ``max_capacity``  -- the largest packing of pairwise-disjoint minimal
  decoding sets, one per chosen input, found as the independence number
  of the maximum-one-shot graph over those sets.  The test suite checks
  it against a separate packing search (``tests/oracles.py``).
* ``avg_capacity``  -- searches codebooks largest-first; for a fixed
  codebook the pointwise-argmax decoder is average-optimal, so the mean
  error of a codebook is 1 - (1/k) * sum_y max_x P(y|x) and admissibility
  is a single exact comparison.  The paper's graph quantity, the
  eps-sparse number of the average-one-shot graph (``graphs.sparse_number``),
  is at most this capacity, and equal unless the best scheme sacrifices a
  codeword (decoding error exactly 1).

``brute_force_capacity`` enumerates every codebook and every total decoder
on tiny channels; it is the independent oracle the engines are validated
against and is deliberately kept literal.

Capacity values are reported as the exact codebook size k; log2(k) is only
ever rendered for display, never compared.

Every search compares integer masses (``Channel.weights``) against
``Channel.min_mass(eps, k)``, so epsilon comparisons are exact; the step
function jumps at rational breakpoints and ``capacity_curve`` recovers
them exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import bitsets
from .channel import Channel, FunnelSpec, as_prob, format_prob
from .decoding import (
    Scheme,
    avg_error,
    max_error,
    optimal_avg_decoder,
    scheme_from_disjoint_sets,
)
from .graphs import _bounded_independent_set, build_max_graph, independence_number

METRIC_MAX = "maximum"
METRIC_AVG = "average"

_BRUTE_FORCE_LIMIT = 5
# Curve sweeps enumerate every output subset (max) or codebook (avg).
_CURVE_SWEEP_LIMIT = 12


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


# ---------------------------------------------------------------------------
# Maximum-error metric
# ---------------------------------------------------------------------------

def max_capacity(c: Channel, eps) -> CapacityResult:
    """Largest codebook with worst-codeword error <= eps.

    The independence number of the maximum-one-shot graph: one minimal
    decoding set per chosen input, pairwise disjoint.  The witness decoder
    sends each chosen set to its input and every leftover output to the
    first codeword.  eps = 1 short-circuits to the full input alphabet (no
    error can exceed 1), where the graph is not defined.
    """
    eps = as_prob(eps, "eps")
    if eps == 1:
        scheme = optimal_avg_decoder(c, range(c.num_inputs))
        return CapacityResult(METRIC_MAX, eps, c.num_inputs, scheme)
    size, witness = independence_number(build_max_graph(c, eps))
    scheme = scheme_from_disjoint_sets(c, witness.pairs)
    return CapacityResult(METRIC_MAX, eps, size, scheme)


# ---------------------------------------------------------------------------
# Average-error metric
# ---------------------------------------------------------------------------

def _captured(c: Channel, codebook) -> int:
    """Mass the pointwise-argmax decoder keeps: sum_y max_{x in cb} weights[x][y]."""
    return sum(map(max, zip(*(c.weights[x] for x in codebook))))


def avg_capacity(c: Channel, eps) -> CapacityResult:
    """Largest codebook whose optimal decoder has mean error <= eps.

    Codebook sizes are searched largest-first with a per-size bound (the
    best case uses the column maxima over the whole input alphabet), then
    codebooks in lexicographic order; the first admissible codebook wins,
    which makes witnesses deterministic.
    """
    eps = as_prob(eps, "eps")
    nx = c.num_inputs
    global_captured = _captured(c, range(nx))
    for k in range(nx, 0, -1):
        need = c.min_mass(eps, k)
        if global_captured < need:
            continue  # even the best-case codebook of this size fails
        for cb in combinations(range(nx), k):
            if _captured(c, cb) >= need:
                return CapacityResult(METRIC_AVG, eps, k, optimal_avg_decoder(c, cb))
    raise AssertionError("unreachable: a singleton codebook has error 0")


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

    Maximum metric: the admissible-set families change only at values
    1 - mass(D) over output subsets D, so those are the only candidate
    thresholds.  The size never falls as eps grows, so the sorted
    candidates are split in halves and an interval whose two ends have
    equal sizes is settled without solving inside it; each midpoint is
    solved with its ends' sizes as floor and ceiling of the search.  Only
    sizes are computed, no witness.  Average metric: size k first becomes
    admissible at the least optimal-decoder mean error over codebooks of
    size k.  Candidates come from distinct integer masses; equal
    consecutive sizes are merged.
    """
    metric = normalize_metric(metric)
    if metric == METRIC_MAX:
        if c.num_outputs > _CURVE_SWEEP_LIMIT:
            raise ValueError(
                f"curve sweep needs <= {_CURVE_SWEEP_LIMIT} outputs, channel has {c.num_outputs}"
            )
        masses = set()
        for row in c.weights:
            masses.update(bitsets.subset_masses(row))
        # from eps = 0 (the full output set) to eps = 1 (the empty set)
        thresholds = [1 - Fraction(m, c.scale) for m in sorted(masses, reverse=True)]

        def solve(i: int, floor: int, ceiling: int) -> int:
            g = build_max_graph(c, thresholds[i])
            return _bounded_independent_set(g.adj, floor, ceiling, g)[0]

        last = len(thresholds) - 1
        known = {0: solve(0, 1, c.num_inputs), last: c.num_inputs}  # index -> size

        def settle(lo: int, hi: int) -> None:
            if hi - lo < 2 or known[lo] == known[hi]:
                return  # every threshold inside has the ends' size
            mid = (lo + hi) // 2
            known[mid] = solve(mid, known[lo], known[hi])
            settle(lo, mid)
            settle(mid, hi)

        settle(0, last)
        del settle  # it holds itself through its closure; free its work by refcount
        sizes = {thresholds[i]: k for i, k in known.items()}
    else:
        if c.num_inputs > _CURVE_SWEEP_LIMIT:
            raise ValueError(
                f"curve sweep needs <= {_CURVE_SWEEP_LIMIT} inputs, channel has {c.num_inputs}"
            )
        nx = c.num_inputs
        sizes = {}  # least mean error of each size; on a tie the larger size
        for k in range(1, nx + 1):
            best = max(_captured(c, cb) for cb in combinations(range(nx), k))
            sizes[1 - Fraction(best, k * c.scale)] = k

    breakpoints: list[tuple[Fraction, int]] = []
    for eps in sorted(sizes):
        k = sizes[eps]
        if not breakpoints or k > breakpoints[-1][1]:
            breakpoints.append((eps, k))
    return CapacityCurve(metric, tuple(breakpoints))

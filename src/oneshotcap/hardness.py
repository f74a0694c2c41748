"""The cubic-graph reduction, run forwards and backwards as a check.

Computing the max-error one-shot capacity is as hard as maximum
independent set on 3-regular graphs: turn a cubic graph into a channel
(inputs = vertices, outputs = edges, mass 1/3 per incident edge) and, for
any error budget below 1/3, the capacity's codebook size equals the
graph's independence number.  Below 1/3 every admissible decoding set for
a vertex must contain all three incident edges, so decoding sets are
disjoint exactly when the vertices are pairwise non-adjacent.

``verify_reduction`` checks both directions on a concrete instance with
one exact search on the graph side, the channel's minimal decoding sets
at eps's one integer mass threshold, and the exact error of the mapped
witness.  The fixed named graphs plus seeded random cubic graphs form a
reproducible regression corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import bitsets
from .channel import CubicGraph, as_prob, format_prob, gen_from_cubic_graph
from .decoding import Scheme, max_error, minimal_decoding_masks, scheme_from_disjoint_sets
from .graphs import max_independent_set

EPS_LIMIT = Fraction(1, 3)
_CUBIC_DRAW_LIMIT = 10000


@dataclass(frozen=True)
class ReductionReport:
    """Both sides of one reduction instance, with witnesses."""

    graph_alpha: int
    channel_capacity_k: int
    epsilon: Fraction
    agree: bool
    """Always true: ``verify_reduction`` raises rather than return a
    disagreement.  Kept because ``verify-reduction`` prints it in its JSON,
    and the benchmark's answer check requires ``"agree": true`` there."""
    graph_witness: tuple[int, ...]
    channel_witness: Scheme

    def to_json_dict(self) -> dict:
        return {
            "graph_alpha": self.graph_alpha,
            "channel_capacity_k": self.channel_capacity_k,
            "epsilon": format_prob(self.epsilon),
            "agree": self.agree,
            "graph_witness": list(self.graph_witness),
            "channel_witness": self.channel_witness.to_json_dict(),
        }


def _vertex_adjacency(g: CubicGraph) -> list[int]:
    adj = [0] * g.num_vertices
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def graph_independence_number(g: CubicGraph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set of the plain graph."""
    size, mask = max_independent_set(_vertex_adjacency(g))
    return size, bitsets.outputs_of(mask)


def verify_reduction(g: CubicGraph, eps) -> ReductionReport:
    """Solve the graph side at eps < 1/3 once and check that k = alpha.

    k <= alpha: each vertex's only minimal decoding set must be its three
    incident edges, so disjoint decoding sets are non-adjacent vertices.
    k >= alpha: the graph witness's nodes (v, incident edges of v) give a
    scheme of size alpha with worst error <= eps.  Either check failing
    raises RuntimeError.  Budgets eps >= 1/3 are rejected.
    """
    eps = as_prob(eps, "eps")
    if eps >= EPS_LIMIT:
        raise ValueError(f"reduction requires eps < 1/3, got {format_prob(eps)}")

    channel = gen_from_cubic_graph(g)
    threshold = channel.min_mass(eps, 1)
    alpha, graph_witness = graph_independence_number(g)
    for v in range(g.num_vertices):
        edges = sum(1 << i for i in g.incident_edges(v))
        if minimal_decoding_masks(channel, v, threshold) != [edges]:
            raise RuntimeError(
                f"vertex {v}: minimal decoding sets are not its incident edges"
            )
    mapped = scheme_from_disjoint_sets(
        channel, [(v, g.incident_edges(v)) for v in graph_witness]
    )
    if max_error(channel, mapped) > eps:
        raise RuntimeError("graph witness maps to an inadmissible scheme")

    return ReductionReport(
        graph_alpha=alpha,
        channel_capacity_k=alpha,
        epsilon=eps,
        agree=True,
        graph_witness=graph_witness,
        channel_witness=mapped,
    )


# ---------------------------------------------------------------------------
# Fixed test-graph corpus
# ---------------------------------------------------------------------------

def cubic_k4() -> CubicGraph:
    return CubicGraph.make(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def cubic_k33() -> CubicGraph:
    return CubicGraph.make(6, [(u, v) for u in range(3) for v in range(3, 6)])


def cubic_prism() -> CubicGraph:
    """Triangular prism: two triangles joined by a perfect matching."""
    return CubicGraph.make(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def cubic_q3() -> CubicGraph:
    """3-cube: vertices are 3-bit strings, edges flip one bit."""
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            if v < v ^ b:
                edges.append((v, v ^ b))
    return CubicGraph.make(8, edges)


def cubic_petersen() -> CubicGraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return CubicGraph.make(10, edges)


def named_cubic_graphs() -> dict[str, CubicGraph]:
    return {
        "k4": cubic_k4(),
        "k33": cubic_k33(),
        "prism": cubic_prism(),
        "q3": cubic_q3(),
        "petersen": cubic_petersen(),
    }


def gen_random_cubic(num_vertices: int, seed: int) -> CubicGraph:
    """Seeded random cubic graph via stub pairing with rejection.

    Three stubs per vertex are shuffled and paired; draws producing loops
    or parallel edges are rejected and redrawn.  num_vertices must be even
    and at least 4 (3-regularity needs an even vertex count).
    """
    if num_vertices < 4 or num_vertices % 2:
        raise ValueError("cubic graphs need an even vertex count >= 4")
    rng = random.Random(seed)
    stubs = [v for v in range(num_vertices) for _ in range(3)]
    for _ in range(_CUBIC_DRAW_LIMIT):
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        edges = set()
        ok = True
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return CubicGraph.make(num_vertices, sorted(edges))
    raise RuntimeError(f"no simple cubic graph found in {_CUBIC_DRAW_LIMIT} draws")

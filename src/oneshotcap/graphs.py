"""Conflict graphs over (input, decoding set) pairs, and exact solvers.

Two graphs drive the two capacity metrics:

* the maximum-one-shot graph for an error budget eps: nodes are pairs
  (x, D) where D captures mass >= 1-eps of row x; nodes conflict when they
  share the input or their output sets intersect.  An independent set is a
  packing of decoder pre-images, so the max-error capacity is the log of
  the independence number.

* the average-one-shot graph: nodes are pairs (x, D) with positive mass;
  conflicting pairs get an infinite edge, all other pairs a finite edge
  weighing the two escape masses P(Y not in D | X=x) + P(Y not in D'|X=x').
  An eps-sparse set (induced weight at most eps*k*(k-1), each unordered
  pair counted once) corresponds to a scheme with average error <= eps.

For a set with no infinite edges the dsets are pairwise disjoint and the
inputs distinct, so the induced weight collapses to (k-1) * sum of the
member escapes; the sparse condition is then equivalent to
sum(escapes) <= eps*k for k >= 2.  The sparse-set solver branches on that
form.

The independence-number solver is an exact branch and bound (max clique on
the complement with a greedy colouring bound) over bitmask adjacency; it
is the max-metric engine behind ``capacity.max_capacity``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import bitsets
from .channel import ONE, ZERO, Channel, format_prob
from .decoding import _MAX_GRAPH_NODE_LIMIT, minimal_decoding_masks

# Node enumeration over every output subset is exponential in |Y|.
_MAX_GRAPH_OUTPUT_LIMIT = 12
_AVG_GRAPH_OUTPUT_LIMIT = 10


@dataclass(frozen=True)
class OneShotNode:
    """A candidate decoder pre-image: input symbol x with output set D."""

    input: int
    outputs: tuple[int, ...]
    mask: int


@dataclass(frozen=True)
class NodeSetWitness:
    """Node indices backing a claimed independence / sparsity value."""

    indices: tuple[int, ...]
    pairs: tuple[tuple[int, tuple[int, ...]], ...]

    def to_json_list(self) -> list:
        return [[x, list(outputs)] for x, outputs in self.pairs]


def _make_nodes(per_input: list[list[tuple[int, Fraction]]]) -> tuple[
    tuple[OneShotNode, ...], tuple[Fraction, ...]
]:
    """Canonical node order: by input, then |D|, then lexicographic D."""
    nodes = []
    escapes = []
    for x, entries in enumerate(per_input):
        keyed = [(bitsets.outputs_of(mask), mask, escape) for mask, escape in entries]
        keyed.sort(key=lambda e: (len(e[0]), e[0]))
        for outputs, mask, escape in keyed:
            nodes.append(OneShotNode(x, outputs, mask))
            escapes.append(escape)
    return tuple(nodes), tuple(escapes)


# ---------------------------------------------------------------------------
# Maximum-one-shot graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxOneShotGraph:
    """Unweighted conflict graph; adj[i] is the neighbour bitmask of node i."""

    epsilon: Fraction
    nodes: tuple[OneShotNode, ...]
    adj: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and bool(self.adj[i] >> j & 1)

    def is_independent_set(self, indices: Sequence[int]) -> bool:
        indices = list(indices)
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                if self.has_edge(indices[a], indices[b]):
                    return False
        return True


def build_max_graph(
    c: Channel, eps: Fraction, minimal_only: bool = True
) -> MaxOneShotGraph:
    """Conflict graph whose nodes are the admissible decoding sets at eps.

    With minimal_only (the default) only inclusion-minimal sets become
    nodes, which preserves the independence number but keeps the graph
    small.  Otherwise every qualifying subset becomes a node, which is
    limited to channels with at most 12 outputs.  Either way a graph of
    more than ``_MAX_GRAPH_NODE_LIMIT`` nodes is refused with ValueError.
    """
    eps = Fraction(eps)
    if not (ZERO <= eps < ONE):
        raise ValueError("eps must be in [0, 1) for the maximum-one-shot graph")
    if not minimal_only and c.num_outputs > _MAX_GRAPH_OUTPUT_LIMIT:
        raise ValueError(
            f"exhaustive node enumeration needs <= {_MAX_GRAPH_OUTPUT_LIMIT} outputs, "
            f"channel has {c.num_outputs}"
        )
    threshold = ONE - eps
    per_input: list[list[tuple[int, Fraction]]] = []
    total = 0
    for x in range(c.num_inputs):
        if minimal_only:
            masks = minimal_decoding_masks(c, x, eps)
        else:
            masses = bitsets.subset_masses(c.row(x))
            masks = [m for m in range(1, 1 << c.num_outputs) if masses[m] >= threshold]
        total += len(masks)
        if total > _MAX_GRAPH_NODE_LIMIT:
            raise ValueError(
                f"maximum-one-shot graph has more than {_MAX_GRAPH_NODE_LIMIT} nodes"
            )
        per_input.append([(m, ZERO) for m in masks])
    nodes, _ = _make_nodes(per_input)
    adj = _conflict_adjacency(nodes)
    return MaxOneShotGraph(eps, nodes, adj)


def _conflict_adjacency(nodes: tuple[OneShotNode, ...]) -> tuple[int, ...]:
    """Node i's neighbours: the nodes sharing its input or one of its outputs."""
    by_input: dict[int, int] = defaultdict(int)
    by_output: dict[int, int] = defaultdict(int)
    for i, node in enumerate(nodes):
        bit = 1 << i
        by_input[node.input] |= bit
        for y in node.outputs:
            by_output[y] |= bit
    adj = []
    for i, node in enumerate(nodes):
        mask = by_input[node.input]
        for y in node.outputs:
            mask |= by_output[y]
        adj.append(mask & ~(1 << i))
    return tuple(adj)


# ---------------------------------------------------------------------------
# Exact independent-set solvers (bitmask adjacency)
# ---------------------------------------------------------------------------

def max_independent_set(adj: Sequence[int]) -> tuple[int, int]:
    """Exact maximum independent set; returns (size, member bitmask).

    Branch and bound: clique search on the complement with a greedy
    colouring bound.
    """
    n = len(adj)
    full = (1 << n) - 1
    complement = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    return _max_clique(complement)


def _max_clique(adj: Sequence[int]) -> tuple[int, int]:
    n = len(adj)
    best_size = 0
    best_mask = 0

    def expand(r_size: int, r_mask: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if cand == 0:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
            return
        # Greedy colouring: vertices in colour class c cannot extend a
        # clique by more than c, so colour numbers bound the branches.
        order: list[int] = []
        bound: list[int] = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                avail &= ~(adj[v] | bit)
                rest &= ~bit
                order.append(v)
                bound.append(colour)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            expand(r_size + 1, r_mask | bit, cand & adj[v])
            cand &= ~bit

    expand(0, 0, (1 << n) - 1)
    return best_size, best_mask


def _witness_from_mask(nodes: tuple[OneShotNode, ...], mask: int) -> NodeSetWitness:
    indices = tuple(i for i in range(len(nodes)) if mask >> i & 1)
    pairs = tuple((nodes[i].input, nodes[i].outputs) for i in indices)
    return NodeSetWitness(indices, pairs)


def independence_number(g: MaxOneShotGraph) -> tuple[int, NodeSetWitness]:
    """Exact independence number of the conflict graph, with a witness."""
    size, mask = max_independent_set(g.adj)
    return size, _witness_from_mask(g.nodes, mask)


# ---------------------------------------------------------------------------
# Average-one-shot graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvgOneShotGraph:
    """Complete weighted graph over positive-mass decoding sets.

    Edge weights are implicit: conflicting nodes (shared input or
    intersecting dsets) are joined with infinite weight, every other pair
    weighs the sum of the two escape masses.  ``edge_weight`` returns None
    for the infinite case.
    """

    nodes: tuple[OneShotNode, ...]
    escapes: tuple[Fraction, ...]
    num_inputs: int
    num_outputs: int
    supports: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def is_conflict(self, i: int, j: int) -> bool:
        a, b = self.nodes[i], self.nodes[j]
        return a.input == b.input or bool(a.mask & b.mask)

    def edge_weight(self, i: int, j: int) -> Fraction | None:
        if i == j:
            raise ValueError("no self edges")
        if self.is_conflict(i, j):
            return None
        return self.escapes[i] + self.escapes[j]

    def node_index(self, x: int, outputs: Sequence[int]) -> int:
        target = tuple(sorted(outputs))
        for i, node in enumerate(self.nodes):
            if node.input == x and node.outputs == target:
                return i
        raise KeyError(f"no node ({x}, {target})")


def build_avg_graph(c: Channel) -> AvgOneShotGraph:
    """Average-one-shot graph; node count is exponential in |Y|, so the
    channel must have at most 10 outputs."""
    if c.num_outputs > _AVG_GRAPH_OUTPUT_LIMIT:
        raise ValueError(
            f"average-one-shot graph needs <= {_AVG_GRAPH_OUTPUT_LIMIT} outputs, "
            f"channel has {c.num_outputs}"
        )
    per_input: list[list[tuple[int, Fraction]]] = []
    for x in range(c.num_inputs):
        masses = bitsets.subset_masses(c.row(x))
        per_input.append(
            [(mask, ONE - masses[mask]) for mask in range(1, 1 << c.num_outputs)
             if masses[mask] > ZERO]
        )
    nodes, escapes = _make_nodes(per_input)
    supports = tuple(c.support_mask(x) for x in range(c.num_inputs))
    return AvgOneShotGraph(nodes, escapes, c.num_inputs, c.num_outputs, supports)


def induced_weight_sum(g: AvgOneShotGraph, indices: Sequence[int]) -> Fraction | None:
    """Total induced edge weight, each unordered pair counted once; None if
    the set contains an infinite edge."""
    indices = list(indices)
    total = ZERO
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            w = g.edge_weight(indices[a], indices[b])
            if w is None:
                return None
            total += w
    return total


def is_sparse_set(g: AvgOneShotGraph, indices: Sequence[int], eps: Fraction) -> bool:
    """Direct definition check: induced weight <= eps * k * (k-1)."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("witness indices must be distinct")
    k = len(indices)
    if k <= 1:
        return True
    total = induced_weight_sum(g, indices)
    return total is not None and total <= Fraction(eps) * k * (k - 1)


def sparse_number(g: AvgOneShotGraph, eps: Fraction) -> tuple[int, NodeSetWitness]:
    """Largest eps-sparse node set, exactly, with a witness.

    The branch and bound walks inputs in order, assigning each at most one
    node with dset disjoint from the claimed outputs; for target size k >= 2
    the sparse condition reduces to sum(escapes) <= eps*k, which prunes by
    escape budget.  Nodes padded with zero-probability outputs are skipped:
    their in-support core has the same escape and blocks fewer outputs.
    """
    eps = Fraction(eps)
    if not (ZERO <= eps <= ONE):
        raise ValueError("eps must be in [0, 1]")
    if not g.nodes:
        raise ValueError("graph has no nodes")

    groups: list[list[tuple[Fraction, int, int]]] = [[] for _ in range(g.num_inputs)]
    for i, node in enumerate(g.nodes):
        if node.mask & ~g.supports[node.input]:
            continue
        groups[node.input].append((g.escapes[i], node.mask, i))
    for entries in groups:
        entries.sort(key=lambda e: (e[0], e[1]))

    nx = g.num_inputs
    for k in range(nx, 1, -1):
        budget = eps * k
        chosen: list[int] = []

        def dfs(x: int, count: int, esc_sum: Fraction, used: int) -> bool:
            if count == k:
                return True
            if count + (nx - x) < k:
                return False
            for esc, mask, idx in groups[x]:
                if esc_sum + esc > budget:
                    break  # entries are escape-sorted
                if mask & used:
                    continue
                chosen.append(idx)
                if dfs(x + 1, count + 1, esc_sum + esc, used | mask):
                    return True
                chosen.pop()
            return dfs(x + 1, count, esc_sum, used)

        if dfs(0, 0, ZERO, 0):
            mask = 0
            for i in chosen:
                mask |= 1 << i
            return k, _witness_from_mask(g.nodes, mask)
    # Singletons are always sparse: k*(k-1) = 0 bounds an empty edge set.
    return 1, _witness_from_mask(g.nodes, 1)


# ---------------------------------------------------------------------------
# Debug dump format
# ---------------------------------------------------------------------------

def dump_graph(g: MaxOneShotGraph | AvgOneShotGraph) -> str:
    """`node <id> <x> {y,...}` lines, then `edge <i> <j> [weight|inf]` lines."""
    lines = []
    for i, node in enumerate(g.nodes):
        dset = ",".join(str(y) for y in node.outputs)
        lines.append(f"node {i} {node.input} {{{dset}}}")
    n = len(g.nodes)
    if isinstance(g, MaxOneShotGraph):
        for i in range(n):
            for j in range(i + 1, n):
                if g.has_edge(i, j):
                    lines.append(f"edge {i} {j}")
    else:
        for i in range(n):
            for j in range(i + 1, n):
                w = g.edge_weight(i, j)
                lines.append(f"edge {i} {j} {'inf' if w is None else format_prob(w)}")
    return "\n".join(lines) + "\n"

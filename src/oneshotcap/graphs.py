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

A node holds its input and its output set D as a bitmask; the output tuple
is derived from the mask on demand (witnesses, dumps), never stored.  The
average graph holds only its channel and builds its node list when read.

For a set with no infinite edges the dsets are pairwise disjoint and the
inputs distinct, so the induced weight collapses to (k-1) * sum of the
member escapes; the sparse condition is then equivalent to
sum(escapes) <= eps*k for k >= 2.  The sparse-set solver branches on that
form, with the escapes as integers over the channel's scale, over each
input's subsets of its support: a node padded with zero-probability
outputs has its in-support core's escape and blocks more outputs, so it is
never needed.

The independence-number solver is an exact branch and bound with a greedy
colouring bound, run directly on the bitmask adjacency; it is the
max-metric engine behind ``capacity.max_capacity``.  The same search, given
a floor and a ceiling known to bracket the answer, starts its incumbent at
the floor and stops at the ceiling; ``capacity.capacity_curve`` uses it
with the sizes at neighbouring thresholds.

Both searches also prune with packing bounds, since every member of a set
takes its own input and outputs that no other member holds.  On the
conflict graph, the members still to come fit in the outputs that some
candidate covers, so their number is at most how many of the live inputs'
smallest candidate sizes, taken in increasing order, sum to at most the
count of those outputs.  In the sparse search each further member needs an
unused output, and the members still needed can capture at most the
column maxima of the remaining inputs over the unused outputs, which caps
what their escapes can save.  The bounds prune only branches that cannot
succeed, so sizes and witnesses are those of the searches without them.
A plain graph (``max_independent_set``) has no inputs or outputs and is
searched with the colouring bound alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from . import bitsets
from .channel import Channel, as_prob, format_prob
from .decoding import _MAX_GRAPH_NODE_LIMIT, minimal_decoding_masks

# Node enumeration over every output subset is exponential in |Y|.
_MAX_GRAPH_OUTPUT_LIMIT = 12
_AVG_GRAPH_OUTPUT_LIMIT = 10


@dataclass(frozen=True)
class OneShotNode:
    """A candidate decoder pre-image: input symbol x with output set D,
    held as a bitmask (bit y set means output y is in D)."""

    input: int
    mask: int

    @property
    def outputs(self) -> tuple[int, ...]:
        """The outputs in D, in increasing order."""
        return bitsets.outputs_of(self.mask)


@dataclass(frozen=True)
class NodeSetWitness:
    """Node indices backing a claimed independence / sparsity value."""

    indices: tuple[int, ...]
    pairs: tuple[tuple[int, tuple[int, ...]], ...]

    def to_json_list(self) -> list:
        return [[x, list(outputs)] for x, outputs in self.pairs]


# ---------------------------------------------------------------------------
# Maximum-one-shot graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxOneShotGraph:
    """Unweighted conflict graph; adj[i] is the neighbour bitmask of node i.

    input_nodes[x] is the bitmask of the nodes of input x, and
    output_nodes[y] that of the nodes whose set holds output y; the search
    reads them for its packing bound.
    """

    nodes: tuple[OneShotNode, ...]
    adj: tuple[int, ...]
    input_nodes: tuple[int, ...]
    output_nodes: tuple[int, ...]

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
    eps = as_prob(eps, "eps")
    if eps == 1:
        raise ValueError("eps must be in [0, 1) for the maximum-one-shot graph")
    if not minimal_only and c.num_outputs > _MAX_GRAPH_OUTPUT_LIMIT:
        raise ValueError(
            f"exhaustive node enumeration needs <= {_MAX_GRAPH_OUTPUT_LIMIT} outputs, "
            f"channel has {c.num_outputs}"
        )
    threshold = c.min_mass(eps, 1)
    nodes: list[OneShotNode] = []
    for x in range(c.num_inputs):
        if minimal_only:
            masks = bitsets.canonical_order(minimal_decoding_masks(c, x, eps), c.num_outputs)
        else:
            masses = bitsets.subset_masses(c.weights[x])
            masks = [m for m in bitsets.all_masks(c.num_outputs) if masses[m] >= threshold]
        if len(nodes) + len(masks) > _MAX_GRAPH_NODE_LIMIT:
            raise ValueError(
                f"maximum-one-shot graph has more than {_MAX_GRAPH_NODE_LIMIT} nodes"
            )
        nodes.extend(OneShotNode(x, m) for m in masks)
    return MaxOneShotGraph(tuple(nodes), *_conflict_adjacency(nodes, c))


def _conflict_adjacency(
    nodes: Sequence[OneShotNode], c: Channel
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Node i's neighbours, the nodes sharing its input or one of its
    outputs; built from, and returned with, the node bitmask of each input
    and of each output."""
    by_input = [0] * c.num_inputs
    by_output = [0] * c.num_outputs
    outputs = []
    for i, node in enumerate(nodes):
        bit = 1 << i
        by_input[node.input] |= bit
        ys = []
        rest = node.mask
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            ys.append(y)
            by_output[y] |= bit
            rest ^= low
        outputs.append(ys)
    adj = []
    for i, node in enumerate(nodes):
        mask = by_input[node.input]
        for y in outputs[i]:
            mask |= by_output[y]
        adj.append(mask & ~(1 << i))
    return tuple(adj), tuple(by_input), tuple(by_output)


# ---------------------------------------------------------------------------
# Exact independent-set solvers (bitmask adjacency)
# ---------------------------------------------------------------------------

def max_independent_set(adj: Sequence[int]) -> tuple[int, int]:
    """Exact maximum independent set; returns (size, member bitmask).

    Branch and bound over the adjacency itself with a greedy colouring
    bound: each colour class is a clique, so it holds at most one member
    of an independent set.
    """
    return _bounded_independent_set(adj, 0, len(adj))


class _CeilingReached(Exception):
    pass


def _bounded_independent_set(
    adj: Sequence[int], floor: int, ceiling: int, graph: MaxOneShotGraph | None = None
) -> tuple[int, int]:
    """The search of ``max_independent_set`` for a caller that knows
    floor <= alpha <= ceiling: the incumbent starts at ``floor`` (mask 0,
    no witness), so only larger sets are sought, and the search stops at
    the first set of ``ceiling`` members.  Returns alpha and a witness
    mask, which is 0 when alpha == floor.

    Given the conflict ``graph`` that ``adj`` belongs to, the search also
    prunes with a packing bound: the members still to come take distinct
    inputs and pairwise-disjoint, non-empty output sets among the L outputs
    that some candidate still covers, so no more of them fit than the
    smallest candidate sizes of the live inputs, taken in increasing order
    while their sum stays at most L.  Nodes sort by input, then by size, so
    an input's smallest candidate is its lowest candidate bit.  Both bounds
    prune only branches that cannot beat the incumbent, and the incumbent
    changes only on a strict improvement, so the size and the mask are
    those of the colouring bound alone.
    """
    best_size = floor
    best_mask = 0
    if graph is None:
        inputs = outputs = sizes = ()
    else:
        inputs = [m for m in graph.input_nodes if m]
        outputs = [m for m in graph.output_nodes if m]
        sizes = [node.mask.bit_count() for node in graph.nodes]

    def expand(r_size: int, r_mask: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if cand == 0:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
                if best_size >= ceiling:
                    raise _CeilingReached
            return
        if inputs:
            smallest = []
            for m in inputs:
                m &= cand
                if m:
                    smallest.append(sizes[(m & -m).bit_length() - 1])
            room = 0
            for m in outputs:
                if m & cand:
                    room += 1
            smallest.sort()
            fit = 0
            for size in smallest:
                room -= size
                if room < 0:
                    break
                fit += 1
            if r_size + fit <= best_size:
                return
        # Greedy colouring: vertices in colour class c cannot extend an
        # independent set by more than c, so colour numbers bound the branches.
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
                avail &= adj[v] & ~bit  # a self-loop must not stall the class
                rest &= ~bit
                order.append(v)
                bound.append(colour)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            expand(r_size + 1, r_mask | bit, cand & ~(adj[v] | bit))
            cand &= ~bit

    try:
        expand(0, 0, (1 << len(adj)) - 1)
    except _CeilingReached:
        pass
    del expand  # it holds itself through its closure; free its work by refcount
    return best_size, best_mask


def _witness_from_mask(nodes: tuple[OneShotNode, ...], mask: int) -> NodeSetWitness:
    indices = tuple(i for i in range(len(nodes)) if mask >> i & 1)
    pairs = tuple((nodes[i].input, nodes[i].outputs) for i in indices)
    return NodeSetWitness(indices, pairs)


def independence_number(g: MaxOneShotGraph) -> tuple[int, NodeSetWitness]:
    """Exact independence number of the conflict graph, with a witness."""
    size, mask = _bounded_independent_set(g.adj, 0, g.num_nodes, g)
    return size, _witness_from_mask(g.nodes, mask)


# ---------------------------------------------------------------------------
# Average-one-shot graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvgOneShotGraph:
    """Complete weighted graph over positive-mass decoding sets.

    The nodes are each input's output sets that meet its support, inputs
    in order and each input's sets in ``bitsets.canonical_order``.  The
    graph holds only its channel: ``nodes`` and ``masses`` are views built
    on first read, and ``node_index`` and ``num_nodes`` are counted without
    them, so ``sparse_number`` never builds a node.

    Edge weights are implicit: conflicting nodes (shared input or
    intersecting dsets) are joined with infinite weight, every other pair
    weighs the sum of the two escape masses.  ``edge_weight`` returns None
    for the infinite case.
    """

    channel: Channel

    @cached_property
    def nodes(self) -> tuple[OneShotNode, ...]:
        masks = bitsets.all_masks(self.channel.num_outputs)
        nodes: list[OneShotNode] = []
        for x in range(self.channel.num_inputs):
            support = self.channel.support_mask(x)
            nodes.extend(OneShotNode(x, m) for m in masks if m & support)
        return tuple(nodes)

    @cached_property
    def masses(self) -> tuple[int, ...]:
        """Node i captures masses[i] / channel.scale of its row."""
        masks = bitsets.all_masks(self.channel.num_outputs)
        out: list[int] = []
        for row in self.channel.weights:
            row_masses = bitsets.subset_masses(row)
            out.extend(row_masses[m] for m in masks if row_masses[m])
        return tuple(out)

    @property
    def num_nodes(self) -> int:
        return sum(map(self._row_size, range(self.channel.num_inputs)))

    def _row_size(self, x: int) -> int:
        """How many nodes input x has: the masks that meet its support."""
        ny = self.channel.num_outputs
        return (1 << ny) - (1 << ny - self.channel.support_mask(x).bit_count())

    @property
    def escapes(self) -> tuple[Fraction, ...]:
        """P(Y not in D | X=x) for each node, exactly."""
        scale = self.channel.scale
        return tuple(Fraction(scale - m, scale) for m in self.masses)

    def is_conflict(self, i: int, j: int) -> bool:
        a, b = self.nodes[i], self.nodes[j]
        return a.input == b.input or bool(a.mask & b.mask)

    def edge_weight(self, i: int, j: int) -> Fraction | None:
        if i == j:
            raise ValueError("no self edges")
        if self.is_conflict(i, j):
            return None
        scale = self.channel.scale
        return Fraction(2 * scale - self.masses[i] - self.masses[j], scale)

    def node_index(self, x: int, outputs: Sequence[int]) -> int:
        """Index of node (x, outputs): the nodes of the inputs before x,
        then the masks before this one in ``canonical_order`` that meet x's
        support.  KeyError when (x, outputs) is not a node."""
        c = self.channel
        ny = c.num_outputs
        if not 0 <= x < c.num_inputs or not all(0 <= y < ny for y in outputs):
            raise KeyError(f"no node ({x}, {tuple(sorted(outputs))})")
        mask = sum(1 << y for y in set(outputs))
        support = c.support_mask(x)
        if not mask & support:
            raise KeyError(f"no node ({x}, {tuple(sorted(outputs))})")
        full = (1 << ny) - 1
        rank = bitsets.count_preceding(mask, full) - bitsets.count_preceding(mask, full & ~support)
        return sum(self._row_size(u) for u in range(x)) + rank


def build_avg_graph(c: Channel) -> AvgOneShotGraph:
    """Average-one-shot graph; node count is exponential in |Y|, so the
    channel must have at most 10 outputs."""
    if c.num_outputs > _AVG_GRAPH_OUTPUT_LIMIT:
        raise ValueError(
            f"average-one-shot graph needs <= {_AVG_GRAPH_OUTPUT_LIMIT} outputs, "
            f"channel has {c.num_outputs}"
        )
    return AvgOneShotGraph(c)


def induced_weight_sum(g: AvgOneShotGraph, indices: Sequence[int]) -> Fraction | None:
    """Total induced edge weight, each unordered pair counted once; None if
    the set contains an infinite edge."""
    indices = list(indices)
    total = Fraction(0)
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            w = g.edge_weight(indices[a], indices[b])
            if w is None:
                return None
            total += w
    return total


def is_sparse_set(g: AvgOneShotGraph, indices: Sequence[int], eps: Fraction) -> bool:
    """Direct definition check: induced weight <= eps * k * (k-1)."""
    eps = as_prob(eps, "eps")
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("witness indices must be distinct")
    k = len(indices)
    if k <= 1:
        return True
    total = induced_weight_sum(g, indices)
    return total is not None and total <= eps * k * (k - 1)


def sparse_number(g: AvgOneShotGraph, eps: Fraction) -> tuple[int, NodeSetWitness]:
    """Largest eps-sparse node set, exactly, with a witness.

    The branch and bound walks inputs in order, assigning each at most one
    node with dset disjoint from the claimed outputs; for target size k >= 2
    the sparse condition reduces to sum(escapes) <= eps*k, which prunes by
    escape budget, in integers over the channel's scale.  Two packing
    bounds prune too: the members still needed must each take an unclaimed
    output, and together capture no more than the unclaimed outputs' largest
    weights over the inputs not yet walked, so a branch stops when there are
    too few such outputs or when even that mass leaves their escapes over
    the budget.  Both cut only branches without a solution, so the first
    solution found, and so the witness, is the one the walk finds without
    them.

    The search reads per-input tables, not ``g.nodes``: each input's
    nonempty subsets of its support, as (escape, mask) sorted by escape,
    then mask.  A node padded with zero-probability outputs is left out: its
    in-support core has the same escape and blocks fewer outputs.  Sets
    escaping more than the largest budget are left out too, since no branch
    can take them.  The witness names its nodes by ``g.node_index``.
    """
    eps = as_prob(eps, "eps")
    c = g.channel
    nx, scale = c.num_inputs, c.scale
    least_mass = scale - eps.numerator * nx * scale // eps.denominator
    groups: list[list[tuple[int, int]]] = []
    for x, row in enumerate(c.weights):
        support = c.support_mask(x)
        masses = bitsets.subset_masses(row)
        groups.append(sorted((scale - m, mask) for mask, m in enumerate(masses)
                             if m >= least_mass and mask and not mask & ~support))

    all_outputs = (1 << c.num_outputs) - 1
    # ceilings[x][free]: the most mass that members from inputs x.. can
    # capture within the outputs in free, each output's largest weight
    # over those inputs
    ceilings: list[list[int]] = [[]] * nx
    column_max = [0] * c.num_outputs
    for x in range(nx - 1, -1, -1):
        column_max = [max(a, b) for a, b in zip(column_max, c.weights[x])]
        ceilings[x] = bitsets.subset_masses(column_max)
    chosen: list[tuple[int, int]] = []  # (input, mask) of the members so far
    k = budget = 0

    def dfs(x: int, count: int, esc_sum: int, used: int) -> bool:
        if count == k:
            return True
        free = all_outputs & ~used
        if count + min(nx - x, free.bit_count()) < k:
            return False  # each member takes its own input and an output of free
        if (k - count) * scale - ceilings[x][free] > budget - esc_sum:
            return False  # the members still needed escape more than the budget left
        for esc, mask in groups[x]:
            if esc_sum + esc > budget:
                break  # entries are escape-sorted
            if mask & used:
                continue
            chosen.append((x, mask))
            if dfs(x + 1, count + 1, esc_sum + esc, used | mask):
                return True
            chosen.pop()
        return dfs(x + 1, count, esc_sum, used)

    for k in range(nx, 1, -1):
        budget = eps.numerator * k * scale // eps.denominator
        if dfs(0, 0, 0, 0):
            break
    del dfs  # it holds itself through its closure; free the tables by refcount
    if not chosen:
        # Singletons are always sparse: k*(k-1) = 0 bounds an empty edge
        # set.  The witness is node 0: input 0's first mask that meets its
        # support, its lowest output of positive probability.
        support = c.support_mask(0)
        chosen = [(0, support & -support)]
    pairs = tuple((x, bitsets.outputs_of(mask)) for x, mask in chosen)
    indices = tuple(g.node_index(x, outputs) for x, outputs in pairs)
    return len(chosen), NodeSetWitness(indices, pairs)


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

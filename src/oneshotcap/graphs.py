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

A node is the pair itself, ``OneShotNode(input, mask)``: its input x and
its output set D as a bitmask, the output tuple derived on demand.
Witnesses are tuples of nodes, and the average graph's methods take nodes;
only the max graph's adjacency bitmasks name nodes by position.  Neither
graph builds its node list unless it is read: the max graph keeps its
nodes' inputs and masks as two tuples, and the average graph holds only
its channel.  The max graph's node bitmask of each output is a column of
the masks' transpose, taken in bulk with one byte transpose
(``bitsets.columns``), and each adjacency row is the OR of its node's
input range and output columns.

For a set with no infinite edges the dsets are pairwise disjoint and the
inputs distinct, so the induced weight collapses to (k-1) * sum of the
member escapes; the sparse condition is then equivalent to
sum(escapes) <= eps*k for k >= 2.  The sparse-set solver branches on that
form, with the escapes as integers over the channel's scale, over each
input's subsets of its support: a node padded with zero-probability
outputs has its in-support core's escape and blocks more outputs, so it is
never needed.  It asks its bounds before it builds: an input's table of
subsets, from that row's subset masses, is built when a branch first
reaches the input.

The independence-number solver, ``max_independent_set``, is an exact
branch and bound run directly on the bitmask adjacency; it is the
max-metric engine behind ``capacity.max_capacity`` on the channels
``capacity._max_engine`` gives it, and the max curve builds no conflict
graph.  On graphs of maximum degree 3 (the cubic graphs of ``hardness``,
and the conflict graphs of their channels below eps 1/3) each node of the
search first reduces its candidates, checking only those whose
neighbourhood changed: it takes every candidate with at most one candidate
neighbour, or two adjacent ones, and folds every candidate v with two that
are not adjacent, a and b, into one vertex adjacent to the rest of their
neighbours (Xiao and Nagamochi 2013; Akiba and Iwata 2016).  Some maximum
independent set holds either v or both a and b, so a fold lowers the
independence number by exactly one, and sizes stay exact.  A set of the
folded graph unfolds to one of the graph before, one larger: v gives way
to a and b where it is a member and joins the set where it is not, the
last fold undone first.  The node then branches on a candidate of most
candidate neighbours.  On other graphs it does not reduce, and branches
in greedy-colouring order under the colouring bound: there a branch
re-checks the neighbours of all it takes out, most of a dense conflict
graph, and with the rules run there the search on
``gen_random(12, 16, 2820, 24)``'s graph went from 0.11 s to 37 s at eps
1/2, and from 0.84 s to 24 s at 3/4 (one run each, on a 2-core machine).

Both searches also prune with packing bounds, since every member of a set
takes its own input and outputs that no other member holds.  On the
conflict graph, the members still to come fit in the outputs that some
candidate covers, so their number is at most ``bitsets.packing_count`` of
the live inputs' smallest candidate sizes in the count of those outputs.
In the sparse search each further member needs an unused output, and the
members still needed can capture at most the column maxima of the
remaining inputs over the unused outputs, which caps what their escapes
can save.  The bounds prune only branches that cannot succeed, so sizes
and witnesses are those of the searches without them.  The conflict
graph's bound holds once vertices fold: a fold only adds edges among the
candidates left, so an independent set of the candidates, each bit read
as its original node, is still a packing.
A plain graph, given to ``max_independent_set`` with no conflict graph,
has no inputs or outputs, and its search has no packing bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import bitsets
from .channel import Channel, as_prob, format_prob
from .decoding import _MAX_GRAPH_NODE_LIMIT, minimal_decoding_masks

# Node enumeration over every output subset is exponential in |Y|.
_MAX_GRAPH_OUTPUT_LIMIT = 12
_AVG_GRAPH_OUTPUT_LIMIT = 10
# A dump has a line per node and per edge, and the text is built whole.
_DUMP_LINE_LIMIT = 1 << 22


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


# ---------------------------------------------------------------------------
# Maximum-one-shot graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxOneShotGraph:
    """Unweighted conflict graph over nodes 0..N-1, inputs in order and each
    input's sets in ``bitsets.canonical_order``.  Node i is the pair
    (inputs[i], masks[i]), and adj[i] is its neighbour bitmask.

    input_nodes[x] is the bitmask of the nodes of input x, a contiguous
    range, and output_nodes[y] that of the nodes whose set holds output y;
    the search reads them for its packing bound.  ``nodes`` is a view built
    on first read: the search and ``independence_number`` read ``inputs``
    and ``masks``, and only a dump or a caller builds the node tuple.
    """

    inputs: tuple[int, ...]
    masks: tuple[int, ...]
    adj: tuple[int, ...]
    input_nodes: tuple[int, ...]
    output_nodes: tuple[int, ...]

    @cached_property
    def nodes(self) -> tuple[OneShotNode, ...]:
        return tuple(map(OneShotNode, self.inputs, self.masks))

    @property
    def num_nodes(self) -> int:
        return len(self.masks)

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and bool(self.adj[i] >> j & 1)


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
    inputs: list[int] = []
    masks: list[int] = []
    input_nodes = []
    for x in range(c.num_inputs):
        if minimal_only:
            row = minimal_decoding_masks(c, x, threshold)
        else:
            masses = bitsets.subset_masses(c.weights[x])
            row = [m for m in bitsets.all_masks(c.num_outputs) if masses[m] >= threshold]
        if len(masks) + len(row) > _MAX_GRAPH_NODE_LIMIT:
            raise ValueError(
                f"maximum-one-shot graph has more than {_MAX_GRAPH_NODE_LIMIT} nodes"
            )
        input_nodes.append(((1 << len(row)) - 1) << len(masks))
        inputs += [x] * len(row)
        masks += row
    output_nodes = bitsets.columns(masks, c.num_outputs)
    # node i's neighbours: its input's nodes and the columns of its outputs,
    # read a byte of its mask at a time
    byte_columns = [output_nodes[y:y + 8] for y in range(0, c.num_outputs, 8)]
    byte_outputs = bitsets.BYTE_OUTPUTS
    adj = []
    for i, (x, mask) in enumerate(zip(inputs, masks)):
        nbrs = input_nodes[x]
        for columns in byte_columns:
            for y in byte_outputs[mask & 255]:
                nbrs |= columns[y]
            mask >>= 8
        adj.append(nbrs ^ 1 << i)  # nbrs holds i, one of input x's nodes
    return MaxOneShotGraph(tuple(inputs), tuple(masks), tuple(adj), tuple(input_nodes),
                           tuple(output_nodes))


# ---------------------------------------------------------------------------
# Exact independent-set solvers (bitmask adjacency)
# ---------------------------------------------------------------------------

def max_independent_set(
    adj: Sequence[int], graph: MaxOneShotGraph | None = None
) -> tuple[int, int]:
    """Exact maximum independent set; returns (size, member bitmask).  A
    vertex with a self-loop is adjacent to itself, so no independent set
    holds it: the root's candidates leave it out.

    Where every vertex has at most 3 neighbours, not counting a
    self-loop, the search branches and reduces.  Each node first takes
    every candidate with at most one candidate neighbour, or with two that
    are adjacent: some maximum independent set of the candidates holds it.
    It folds each candidate v with two candidate neighbours a and b that
    are not adjacent: v's bit becomes the merged vertex, adjacent to the
    candidates next to a or b, each of those gains v, a and b leave the
    candidates, and the size rises by one.  Some maximum set holds v or
    both a and b, so the fold lowers the independence number by exactly
    one, and sizes stay exact.  A node copies the adjacency at its first
    fold and logs each fold as (v, a|b).  A recorded set undoes the folds
    of its node and of every node above, the last first: where v is a
    member, a and b replace it, and where it is not, v joins the set.  The
    root checks every vertex; a child checks the neighbours of what its
    branch took out, a take queues the neighbours of what it takes out,
    and a fold v and the candidates next to it.  Reduced, a node branches
    on a candidate of most candidate neighbours, the lowest on ties: taken,
    then left out.  Then every candidate has at least 3 candidate
    neighbours, and only a folded one more than 3, so only the folded
    candidates are counted.  The branches are bounded by the candidates'
    count alone: a greedy colouring bound at each node took the search on
    20 seeded cubic graphs of 32 vertices from 0.14 to 0.16 ms (medians),
    and saved time only from about 100 vertices (69 against 80 ms at 160).
    The degree test and the self-loops are read in one pass per call.

    On other graphs the rules are not run, and the search branches in
    greedy colouring order with the colouring bound: each colour class is
    a clique, so it holds at most one member of an independent set.  The
    module docstring gives the rules' measured cost there.

    Given the conflict ``graph`` that ``adj`` belongs to, the search also
    prunes with a packing bound: the members still to come take distinct
    inputs and pairwise-disjoint, non-empty output sets among the L
    outputs that some candidate still covers, so no more of them fit than
    ``bitsets.packing_count`` of the live inputs' smallest candidate sizes
    in L.  Nodes sort by input, then by size, so an input's smallest
    candidate is its lowest candidate bit.  The bound holds once vertices
    fold: a folded vertex's only candidate neighbours were its pair, and a
    fold only adds edges among the candidates left, so any independent set
    of the candidates, each bit read as its original node, is independent
    in the original graph.  The bounds prune only branches that cannot
    beat the incumbent, and the incumbent changes only on a strict
    improvement, so the size and the mask are those of the search without
    the packing bound.
    """
    best_size = 0
    best_mask = 0
    if graph is None:
        inputs = outputs = sizes = ()
    else:
        inputs = [m for m in graph.input_nodes if m]
        outputs = [m for m in graph.output_nodes if m]
        sizes = [m.bit_count() for m in graph.masks]
    loops, reduce = 0, True
    for v, a in enumerate(adj):
        loop = a & (1 << v)
        loops |= loop
        reduce = reduce and (a ^ loop).bit_count() <= 3

    # The node whose branches are being taken: its size and members, its
    # candidates less the branches already taken, its folded vertices, its
    # branches and their bounds, with the index of its last branch taken
    # counting down, and its adjacency and folds.  A branch that leaves a
    # vertex out is ~v.  The stack holds the nodes above it, at most one
    # per vertex, since each branch takes out a candidate, so no depth is
    # too deep.  The first node is a stand-in with no branches, whose one
    # child is the root.
    stack: list[tuple] = []
    r_size, r_mask, cand, r_merged, order, bound, i, r_adj, r_log = 0, 0, 0, 0, (), (), 0, adj, ()
    size, mask, child, merged, log = 0, 0, (1 << len(adj)) - 1 ^ loops, 0, ()
    queue = child if reduce else 0
    while True:
        # Reduce the queued candidates: take each with at most one
        # candidate neighbour, or two that are adjacent, and fold each with
        # two that are not.  Only a vertex whose candidate neighbours
        # changed is queued, since the node above left none that qualifies.
        while queue:
            bit = queue & -queue
            queue ^= bit
            u = bit.bit_length() - 1
            nbrs = adj[u] & child & ~bit
            high = nbrs & (nbrs - 1)
            if high:
                if high & (high - 1):
                    continue
                if not adj[(nbrs ^ high).bit_length() - 1] & high:
                    # fold: u stands for its pair from here on
                    if not log:  # the node's first fold copies the adjacency
                        adj, log = list(adj), []
                    child ^= nbrs
                    joined = adj[(nbrs ^ high).bit_length() - 1] | adj[high.bit_length() - 1]
                    joined &= child & ~bit
                    adj[u] = joined
                    queue = (queue | joined | bit) & child
                    while joined:
                        w = joined & -joined
                        adj[w.bit_length() - 1] |= bit
                        joined ^= w
                    size += 1
                    merged |= bit
                    log += bit, nbrs
                    continue
            size += 1
            mask |= bit
            gone = nbrs | bit
            child &= ~gone
            while gone:
                bit = gone & -gone
                queue |= adj[bit.bit_length() - 1]
                gone ^= bit
            queue &= child
        if child == 0:
            if size > best_size:
                # undo the folds, the last first: a folded vertex in the
                # set gives way to its pair, and one out of it joins it
                for folds in (log, r_log, *[f[8] for f in reversed(stack)]):
                    for k in range(len(folds) - 2, -1, -2):
                        bit = folds[k]
                        mask = mask ^ bit | folds[k + 1] if mask & bit else mask | bit
                best_size, best_mask = size, mask
            live = False
        elif inputs:
            smallest = []
            for m in inputs:
                m &= child
                if m:
                    smallest.append(sizes[(m & -m).bit_length() - 1])
            room = 0
            for m in outputs:
                if m & child:
                    room += 1
            live = size + bitsets.packing_count(smallest, room) > best_size
        else:
            live = True
        if live:
            stack.append((r_size, r_mask, cand, r_merged, order, bound, i, r_adj, r_log))
            r_size, r_mask, cand, r_merged, r_adj, r_log = size, mask, child, merged, adj, log
            if reduce:
                # Branch on a candidate of most candidate neighbours, the
                # lowest on ties: taken, then left out.  Reduced, every
                # candidate has at least 3, and only a folded one more.
                top, pick = 3, (cand & -cand).bit_length() - 1
                rest = merged & cand
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    v = bit.bit_length() - 1
                    d = (adj[v] & cand).bit_count()
                    if d > top:
                        top, pick = d, v
                left = cand.bit_count()
                order, bound, i = (~pick, pick), (left, left), 2
            else:
                # Greedy colouring: vertices in colour class c cannot extend
                # an independent set by more than c, so colour numbers bound
                # the branches.  A vertex of colour at most best_size - size
                # is never branched on, so it is coloured but not listed.
                order, bound = [], []
                colour = 0
                floor = best_size - size
                rest = cand
                while rest:
                    colour += 1
                    avail = rest
                    while avail:
                        bit = avail & -avail
                        v = bit.bit_length() - 1
                        avail &= adj[v] & ~bit  # a self-loop must not stall the class
                        rest &= ~bit
                        if colour > floor:
                            order.append(v)
                            bound.append(colour)
                i = len(order)
        while True:  # the next branch: of this node, or of one above
            i -= 1
            if i >= 0 and r_size + bound[i] > best_size:
                break
            if not stack:
                return best_size, best_mask
            r_size, r_mask, cand, r_merged, order, bound, i, r_adj, r_log = stack.pop()
        adj, merged, log = r_adj, r_merged, ()
        v = order[i]
        if v < 0:  # leave the branching vertex, ~v, out
            v = ~v
            size, mask, child = r_size, r_mask, cand & ~(1 << v)
            queue = adj[v] & child
            continue
        bit = 1 << v
        gone = cand & (adj[v] | bit)
        size, mask, child = r_size + 1, r_mask | bit, cand & ~gone
        cand &= ~bit
        if reduce:
            # the candidates next to what this branch takes out
            queue = 0
            while gone:
                bit = gone & -gone
                queue |= adj[bit.bit_length() - 1]
                gone ^= bit
            queue &= child


def independence_number(g: MaxOneShotGraph) -> tuple[int, tuple[OneShotNode, ...]]:
    """Exact independence number of the conflict graph, with a witness:
    its members, in node order."""
    size, mask = max_independent_set(g.adj, g)
    return size, tuple(OneShotNode(g.inputs[i], g.masks[i]) for i in bitsets.outputs_of(mask))


# ---------------------------------------------------------------------------
# Average-one-shot graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvgOneShotGraph:
    """Complete weighted graph over positive-mass decoding sets.

    The nodes are each input's output sets that meet its support, inputs
    in order and each input's sets in ``bitsets.canonical_order``.  The
    graph holds only its channel: ``nodes`` is a view built on first read,
    ``num_nodes`` is counted without it, and ``mass`` sums the row over
    the node's outputs, so ``sparse_number`` never builds a node list.

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

    @property
    def num_nodes(self) -> int:
        """Input x has the masks that meet its support: all but the
        2^(|Y| - |support|) subsets of the other outputs."""
        c = self.channel
        ny = c.num_outputs
        return sum((1 << ny) - (1 << ny - c.support_mask(x).bit_count())
                   for x in range(c.num_inputs))

    def mass(self, node: OneShotNode) -> int:
        """The mass the node captures of its row, over ``channel.scale``.
        ValueError when the pair is not a node: an input or an output out
        of range, or zero mass."""
        weights = self.channel.weights  # no size properties: dumps call this per node pair
        x, mask = node.input, node.mask
        m = 0
        if 0 <= x < len(weights) and 0 <= mask < 1 << len(weights[0]):
            row = weights[x]
            for y in bitsets.outputs_of(mask):
                m += row[y]
        if not m:
            raise ValueError(f"({x}, mask {mask:#b}) is not a node of the average graph")
        return m

    def edge_weight(self, a: OneShotNode, b: OneShotNode) -> Fraction | None:
        """P(Y not in D_a | X=x_a) + P(Y not in D_b | X=x_b), exactly; None
        when a and b share their input or an output."""
        mass_a, mass_b = self.mass(a), self.mass(b)
        if a.input == b.input or a.mask & b.mask:
            if a == b:
                raise ValueError("no self edges")
            return None
        scale = self.channel.scale
        return Fraction(2 * scale - mass_a - mass_b, scale)


def build_avg_graph(c: Channel) -> AvgOneShotGraph:
    """Average-one-shot graph; node count is exponential in |Y|, so the
    channel must have at most 10 outputs."""
    if c.num_outputs > _AVG_GRAPH_OUTPUT_LIMIT:
        raise ValueError(
            f"average-one-shot graph needs <= {_AVG_GRAPH_OUTPUT_LIMIT} outputs, "
            f"channel has {c.num_outputs}"
        )
    return AvgOneShotGraph(c)


def induced_weight_sum(g: AvgOneShotGraph, nodes: Sequence[OneShotNode]) -> Fraction | None:
    """Total induced edge weight, each unordered pair counted once; None if
    the set contains an infinite edge.  ValueError when a node repeats or
    is not a node of g."""
    for node in nodes:
        g.mass(node)
    if len(set(nodes)) != len(nodes):
        raise ValueError("the nodes must be distinct")
    total = Fraction(0)
    for a, b in combinations(nodes, 2):
        w = g.edge_weight(a, b)
        if w is None:
            return None
        total += w
    return total


def is_sparse_set(g: AvgOneShotGraph, nodes: Sequence[OneShotNode], eps: Fraction) -> bool:
    """Direct definition check: induced weight <= eps * k * (k-1).
    ValueError, as in ``induced_weight_sum``, when a node repeats or is
    not a node of g."""
    eps = as_prob(eps, "eps")
    total = induced_weight_sum(g, nodes)
    k = len(nodes)
    return total is not None and total <= eps * k * (k - 1)


def sparse_number(g: AvgOneShotGraph, eps: Fraction) -> tuple[int, tuple[OneShotNode, ...]]:
    """Largest eps-sparse node set, exactly, with a witness.

    The branch and bound walks inputs in order, assigning each at most one
    node with dset disjoint from the claimed outputs; for target size k >= 2
    the sparse condition reduces to sum(escapes) <= eps*k, which prunes by
    escape budget, the integer k * scale - ``c.min_mass(eps, k)`` over the
    channel's scale.  Two packing bounds prune too: the members still
    needed must each take an unclaimed output, and together capture no more
    than the unclaimed outputs' largest weights over the inputs not yet
    walked, so a branch stops when there are too few such outputs or when
    even that mass leaves their escapes over the budget.  Both cut only
    branches without a solution, so the first solution found, and so the
    witness, is the one the walk finds without them.

    The search reads per-input tables, not ``g.nodes``: each input's
    nonempty subsets of its support, as (escape, mask) sorted by escape,
    then mask.  A node padded with zero-probability outputs is left out: its
    in-support core has the same escape and blocks fewer outputs.  Sets
    escaping more than the largest budget are left out too, since no branch
    can take them.  An input's table is built from its row's subset masses
    (``bitsets.subset_masses``) when a branch first reaches that input with
    its bounds met, so where the bounds at the root refuse every k >= 2, no
    table is built.  The second bound sums the free outputs' column maxima
    over the inputs not yet walked, suffix maxima the search takes once per
    call, with no table.  The walk is one loop over a stack of frames, one
    per input whose branches are being taken, so no channel has too many
    inputs for it.  The witness is the tuple of its nodes in input order; a
    size-k answer builds only those k nodes.
    """
    eps = as_prob(eps, "eps")
    c = g.channel
    nx, ny, scale = c.num_inputs, c.num_outputs, c.scale
    least_mass = scale - (nx * scale - c.min_mass(eps, nx))  # less the largest budget
    all_outputs = (1 << ny) - 1
    # reach[x]: each output's largest weight over the inputs x, x + 1, ...
    reach = [(0,) * ny]
    for row in reversed(c.weights):
        reach.append(tuple(map(max, reach[-1], row)))
    reach.reverse()
    groups: list[list[tuple[int, int]] | None] = [None] * nx
    chosen: list[tuple[int, int]] = []  # (input, mask) of the members so far

    for k in range(nx, 1, -1):
        budget = k * scale - c.min_mass(eps, k)
        # A frame: [input, members, escapes and claimed outputs before it,
        # its next entry], the entry past its table once the branch that
        # leaves the input out is taken.
        stack: list[list[int]] = []
        x = esc_sum = used = 0  # the node entered next; len(chosen) members
        while len(chosen) < k:
            count = len(chosen)
            free = all_outputs & ~used
            # each member takes its own input and an output of free
            if count + min(nx - x, free.bit_count()) >= k:
                # the most mass members from inputs x on can capture in free
                ceiling = sum([w for y, w in enumerate(reach[x]) if free >> y & 1])
                # unless the members still needed escape more than the budget left
                if (k - count) * scale - ceiling <= budget - esc_sum:
                    if groups[x] is None:
                        support = c.support_mask(x)
                        groups[x] = sorted(
                            (scale - m, mask)
                            for mask, m in enumerate(bitsets.subset_masses(c.weights[x]))
                            if m >= least_mass and mask and not mask & ~support)
                    stack.append([x, count, esc_sum, used, 0])
            while stack:  # the next branch: of this frame, or of one above
                frame = stack[-1]
                x, count, esc_sum, used, i = frame
                del chosen[count:]
                group = groups[x]
                if i > len(group):  # every branch of this frame is taken
                    stack.pop()
                    continue
                # take the next entry that fits; past the last, leave x out
                while i < len(group):
                    esc, mask = group[i]
                    i += 1
                    if esc_sum + esc > budget:
                        i = len(group)  # entries are escape-sorted
                    elif not mask & used:
                        chosen.append((x, mask))
                        esc_sum += esc
                        used |= mask
                        break
                else:
                    i += 1
                frame[4] = i
                x += 1
                break
            else:
                break  # no k-member set
        if chosen:
            break
    if not chosen:
        # Singletons are always sparse: k*(k-1) = 0 bounds an empty edge
        # set.  The witness is input 0's first node: the mask of its
        # lowest output of positive probability.
        support = c.support_mask(0)
        chosen = [(0, support & -support)]
    return len(chosen), tuple(OneShotNode(x, mask) for x, mask in chosen)


# ---------------------------------------------------------------------------
# Debug dump format
# ---------------------------------------------------------------------------

def dump_graph(g: MaxOneShotGraph | AvgOneShotGraph) -> str:
    """`node <id> <x> {y,...}` lines, then `edge <i> <j> [weight|inf]` lines
    in order of i, then j.  The lines are counted first, and a dump of
    more than ``_DUMP_LINE_LIMIT`` is refused with ValueError."""
    n = g.num_nodes
    if isinstance(g, MaxOneShotGraph):
        count = n + sum(a.bit_count() for a in g.adj) // 2
    else:
        count = n + n * (n - 1) // 2  # the average graph is complete
    if count > _DUMP_LINE_LIMIT:
        raise ValueError(f"graph dump has {count} lines, more than the limit of {_DUMP_LINE_LIMIT}")
    nodes = g.nodes
    lines = [f"node {i} {node.input} {{{','.join(map(str, node.outputs))}}}"
             for i, node in enumerate(nodes)]
    if isinstance(g, MaxOneShotGraph):
        for i, a in enumerate(g.adj):
            lines.extend(f"edge {i} {j}" for j in bitsets.outputs_of(a >> i + 1 << i + 1))
    else:
        # a conflict is tested here, so that edge_weight, which checks
        # that both are nodes, runs only for the finite edges
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes[i + 1:], i + 1):
                conflict = a.input == b.input or a.mask & b.mask
                w = "inf" if conflict else format_prob(g.edge_weight(a, b))
                lines.append(f"edge {i} {j} {w}")
    return "\n".join(lines) + "\n"

import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from oneshotcap import (
    OneShotNode,
    build_avg_graph,
    build_max_graph,
    dump_graph,
    independence_number,
    induced_weight_sum,
    is_sparse_set,
    max_error,
    max_independent_set,
    scheme_from_disjoint_sets,
    sparse_number,
)
from oneshotcap import bitsets, capacity, graphs
from oneshotcap.channel import Channel, gen_from_cubic_graph, gen_random, identity_channel
from oneshotcap.hardness import _vertex_adjacency, gen_random_cubic, graph_independence_number
from corpus import COPRIME, random_channels
from oracles import oracle_avg_graph, oracle_mis, oracle_sparse_number

F = Fraction

EPS_GRID = [F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(9, 10)]


def node(x, outputs):
    return OneShotNode(x, sum(1 << y for y in outputs))


def pairs(witness):
    """The (input, outputs) pairs that ``scheme_from_disjoint_sets`` takes."""
    return [(n.input, n.outputs) for n in witness]


def non_conflicting(nodes):
    return all(a.input != b.input and not a.mask & b.mask for a, b in combinations(nodes, 2))


# ---------------------------------------------------------------------------
# Maximum-one-shot graph construction
# ---------------------------------------------------------------------------

def test_max_graph_funnel3_structure(funnel3):
    g = build_max_graph(funnel3, F(1, 100), minimal_only=False)
    full = (0, 1, 2)
    trimmed = [(n.input, n.outputs) for n in g.nodes if n.outputs != full]
    assert trimmed == [
        (0, (0,)), (0, (0, 1)), (0, (0, 2)),
        (1, (1,)), (1, (0, 1)), (1, (1, 2)),
        (2, (0, 2)),
    ]
    # full-set nodes conflict with every other node
    for i, n in enumerate(g.nodes):
        if n.outputs == full:
            assert g.adj[i] == ((1 << g.num_nodes) - 1) & ~(1 << i)


def test_max_graph_adjacency_rule(funnel3):
    g = build_max_graph(funnel3, F(1, 100), minimal_only=False)
    index = {(n.input, n.outputs): i for i, n in enumerate(g.nodes)}
    assert g.has_edge(index[(1, (1,))], index[(1, (0, 1))])        # same input
    assert g.has_edge(index[(0, (0,))], index[(2, (0, 2))])        # overlap at 0
    assert not g.has_edge(index[(1, (1,))], index[(2, (0, 2))])    # disjoint
    for i in range(g.num_nodes):
        assert not g.has_edge(i, i)
        for j in range(g.num_nodes):
            assert g.has_edge(i, j) == g.has_edge(j, i)


def test_max_graph_identity_zero_eps():
    g = build_max_graph(identity_channel(2), F(0), minimal_only=True)
    assert [(n.input, n.outputs) for n in g.nodes] == [(0, (0,)), (1, (1,))]
    assert g.adj == (0, 0)


def test_max_graph_exhaustive_bound():
    c = identity_channel(13)
    with pytest.raises(ValueError, match="<= 12 outputs"):
        build_max_graph(c, F(0), minimal_only=False)
    build_max_graph(c, F(0), minimal_only=True)  # minimal mode is fine


def test_max_graph_bitmasks_match_pairwise_definitions():
    # masks that end inside a byte, fill one, and span two; the exhaustive
    # graph at 12 outputs; and a 51-output reduction channel, seven bytes
    # per mask: the byte boundaries of the columns' transpose
    cases = [(gen_random(nx, ny, seed=2300 + ny, denominator_bound=24), eps, True)
             for nx, ny in ((5, 6), (6, 8), (5, 9), (6, 12), (4, 14))
             for eps in (F(1, 10), F(1, 4))]
    cases.append((gen_random(3, 12, seed=2320, denominator_bound=24), F(1, 10), False))
    cases.append((gen_from_cubic_graph(gen_random_cubic(34, 5)), F(1, 4), True))
    for c, eps, minimal_only in cases:
        g = build_max_graph(c, eps, minimal_only=minimal_only)
        n = g.num_nodes
        inputs, masks = g.inputs, g.masks
        assert len(inputs) == len(g.adj) == n >= c.num_inputs
        assert g.nodes == tuple(OneShotNode(x, m) for x, m in zip(inputs, masks))
        assert g.input_nodes == tuple(sum(1 << i for i in range(n) if inputs[i] == x)
                                      for x in range(c.num_inputs))
        assert g.output_nodes == tuple(sum(1 << i for i in range(n) if masks[i] >> y & 1)
                                       for y in range(c.num_outputs))
        for i in range(n):
            assert g.adj[i] == sum(1 << j for j in range(n) if j != i and (
                inputs[j] == inputs[i] or masks[j] & masks[i]))


def test_columns_transpose_masks():
    rng = random.Random(29)
    for width in (1, 8, 9, 16, 17):
        full = (1 << width) - 1
        for count in (1, 7, 8, 9, 100):
            masks = [0, full] + [rng.randrange(full + 1) for _ in range(count)]
            expected = [sum(1 << i for i, m in enumerate(masks) if m >> y & 1)
                        for y in range(width)]
            assert bitsets.columns(masks, width) == expected
    assert bitsets.columns([], 5) == [0] * 5


def test_max_capacity_never_builds_the_node_view(monkeypatch):
    built = []

    def build(*args, **kwargs):
        built.append(build_max_graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(capacity, "build_max_graph", build)
    # past 16 outputs, so the conflict graph is the engine
    c = gen_random(8, 17, seed=2330, denominator_bound=24)
    result = capacity.max_capacity(c, F(1, 3))
    (g,) = built
    assert "nodes" not in vars(g)
    # the witness's nodes are graph nodes, built alone
    size, witness = independence_number(g)
    assert "nodes" not in vars(g)
    assert size == result.codebook_size > 1 and set(witness) <= set(g.nodes)


def test_minimal_nodes_preserve_alpha():
    # swapping any (x, D) for (x, minimal D' contained in D) keeps a set
    # independent, so the minimal-node graph has the same alpha
    channels = random_channels(16, seed0=1300, max_outputs=4)
    channels += [gen_random(3, 6, seed=1350 + i, denominator_bound=12) for i in range(4)]
    for c in channels:
        for eps in [F(0), F(1, 4), F(1, 2)]:
            a_min, _ = independence_number(build_max_graph(c, eps, minimal_only=True))
            a_full, _ = independence_number(build_max_graph(c, eps, minimal_only=False))
            assert a_min == a_full


def test_minimal_nodes_preserve_alpha_3x4_quarter():
    c = random_channels(1, seed0=1400, max_inputs=3, max_outputs=4)[0]
    g_min = build_max_graph(c, F(1, 4), minimal_only=True)
    g_full = build_max_graph(c, F(1, 4), minimal_only=False)
    assert independence_number(g_min)[0] == independence_number(g_full)[0]


# ---------------------------------------------------------------------------
# Independence number
# ---------------------------------------------------------------------------

def test_independence_funnel3_graph(funnel3):
    g = build_max_graph(funnel3, F(1, 100), minimal_only=False)
    size, witness = independence_number(g)
    assert size == 2
    assert non_conflicting(witness)
    # the witness maps to a scheme with worst error within budget
    scheme = scheme_from_disjoint_sets(funnel3, pairs(witness))
    assert max_error(funnel3, scheme) <= F(1, 100)


def test_independence_edgeless():
    assert max_independent_set([0] * 7) == (7, (1 << 7) - 1)


def petersen_adjacency():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    adj = [0] * 10
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def test_independence_petersen_all_methods():
    adj = petersen_adjacency()
    assert oracle_mis(adj) == 4
    assert max_independent_set(adj)[0] == 4


def test_bnb_equals_exhaustive_on_random_graphs():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randrange(2, 17)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        size_bnb, mask_bnb = max_independent_set(adj)
        assert size_bnb == oracle_mis(adj)
        # returned mask is genuinely independent
        for v in range(n):
            if mask_bnb >> v & 1:
                assert not adj[v] & mask_bnb


def test_bounded_search_witness_has_alpha_independent_members():
    rng = random.Random(32)
    for trial in range(30):
        n = rng.randrange(0, 15)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        size, mask = max_independent_set(adj)
        assert size == mask.bit_count() == oracle_mis(adj), trial
        assert all(not adj[v] & mask for v in range(n) if mask >> v & 1)


def _join(adj, u, v):
    """Add edge uv unless it is a loop, is there already, or would give
    either end a fourth neighbour."""
    if u != v and not adj[u] >> v & 1 and adj[u].bit_count() < 3 and adj[v].bit_count() < 3:
        adj[u] |= 1 << v
        adj[v] |= 1 << u


def degree3_graph(rng, n):
    """A random graph of n vertices and maximum degree 3, built from the
    shapes the search's reduction rules take (isolated vertices, paths,
    triangles and K4s) joined by random edges, so that paths hang off the
    rest, some vertices stay isolated and most graphs have several
    components."""
    adj = [0] * n
    v = 0
    while v < n:
        shape = rng.choice(("vertex", "path", "triangle", "k4"))
        size = {"vertex": 1, "triangle": 3, "k4": 4}.get(shape) or rng.randrange(2, 6)
        piece = range(v, min(v + size, n))
        for a, b in zip(piece, piece[1:]) if shape == "path" else combinations(piece, 2):
            _join(adj, a, b)
        v += size
    for _ in range(rng.randrange(n + 1)):
        _join(adj, rng.randrange(n), rng.randrange(n))
    return adj


def degree2_paths_graph(rng, n):
    """A random graph of n vertices and maximum degree 3 whose vertices
    lie mostly on long paths of degree-2 vertices: a few hubs, joined by
    paths of up to 8 inner vertices, the fold rule's case; unused degree
    is left free, so some hubs have degree 2 and some paths dangle."""
    hubs = max(2, n // 6)
    adj = [0] * n
    v = hubs
    while v < n:
        length = min(rng.randrange(1, 9), n - v)
        path = [rng.randrange(hubs), *range(v, v + length), rng.randrange(hubs)]
        for a, b in zip(path, path[1:]):
            _join(adj, a, b)
        v += length
    return adj


def networkx_alpha(adj):
    """Independence number as networkx's largest clique of the complement."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((u, v) for u, a in enumerate(adj) for v in bitsets.outputs_of(a) if u < v)
    return len(nx.max_weight_clique(nx.complement(g), weight=None)[0])


def assert_maximum_independent(adj, alpha):
    size, mask = max_independent_set(adj)
    assert size == mask.bit_count() == alpha
    assert all(not adj[v] & mask for v in range(len(adj)) if mask >> v & 1)


def test_reduction_rules_match_subset_oracle_on_small_degree3_graphs():
    rng = random.Random(2801)
    for trial in range(300):
        adj = degree3_graph(rng, rng.randrange(0, 17))
        assert_maximum_independent(adj, oracle_mis(adj))
    rng = random.Random(3101)
    for trial in range(300):
        adj = degree2_paths_graph(rng, rng.randrange(3, 17))
        assert_maximum_independent(adj, oracle_mis(adj))


def test_self_looped_vertices_are_in_no_independent_set():
    assert max_independent_set([1]) == (0, 0)
    assert max_independent_set([0b011, 0b011, 0]) == (1, 0b100)
    rng = random.Random(2803)
    for trial in range(200):
        n = rng.randrange(0, 13)
        if trial % 2:  # a self-loop does not count against the degree-3 rules
            adj = degree3_graph(rng, n)
        else:
            adj = [0] * n
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.35:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        for v in rng.sample(range(n), rng.randrange(n + 1)):
            adj[v] |= 1 << v
        assert_maximum_independent(adj, oracle_mis(adj))


def test_reduction_rules_match_networkx_on_degree3_graphs():
    rng = random.Random(2802)
    for trial in range(30):
        adj = degree3_graph(rng, rng.randrange(20, 61))
        assert_maximum_independent(adj, networkx_alpha(adj))
    rng = random.Random(3102)
    for trial in range(30):
        adj = degree2_paths_graph(rng, rng.randrange(20, 61))
        assert_maximum_independent(adj, networkx_alpha(adj))


def test_reduction_rules_match_networkx_on_random_cubic_graphs():
    for n in (20, 30, 40, 50, 60):
        for seed in (1, 2):
            adj = _vertex_adjacency(gen_random_cubic(n, seed))
            assert_maximum_independent(adj, networkx_alpha(adj))


def test_cycles_fold_down_to_their_independence_number():
    # every vertex of a cycle has two neighbours that are not adjacent, so
    # the search folds and its folds nest: vertex 0 absorbs two more
    # vertices at each fold, until a triangle or a 4-cycle is left.  At
    # 3,000 vertices, 1,499 nested folds are undone: a search that
    # recursed once per fold would pass Python's default recursion limit.
    for n in [*range(3, 41), 999, 1000, 2999, 3000]:
        adj = [1 << (v + 1) % n | 1 << (v - 1) % n for v in range(n)]
        assert_maximum_independent(adj, n // 2)


def test_folds_keep_alpha_and_mask_on_reduction_conflict_graphs():
    # below eps 1/3 a cubic graph's channel has one node per vertex, its
    # three edges, and the conflict graph is the cubic graph again: the
    # search folds there under the packing bound, and must find the plain
    # graph's alpha and the mask of the search without that bound
    for n in (20, 30, 40, 50, 60):
        for seed in (1, 2, 3):
            cubic = gen_random_cubic(n, seed)
            g = build_max_graph(gen_from_cubic_graph(cubic), F(1, 4))
            assert g.num_nodes == n
            size, witness = independence_number(g)
            assert size == graph_independence_number(cubic)[0]
            mask = sum(1 << g.nodes.index(node) for node in witness)
            assert (size, mask) == max_independent_set(g.adj)
            assert len(witness) == size and non_conflicting(witness)


# Mostly more inputs than outputs, at budgets up to 3/4: the regime where
# the packing bounds (each member needs outputs no other member holds)
# prune most.
PACKING_SHAPES = [(8, 6), (10, 6), (6, 4), (5, 3), (8, 2), (4, 4), (3, 5)]
PACKING_EPS = [F(1, 10), F(1, 4), F(1, 2), F(3, 4)]


def packing_channels():
    return [gen_random(nx, ny, seed=2100 + i, denominator_bound=12)
            for i, (nx, ny) in enumerate(PACKING_SHAPES * 2)]


def test_packing_bound_keeps_size_and_mask():
    # the conflict graph's search prunes with the packing bound, the plain
    # adjacency's search without it; both must return the same set
    for c in packing_channels():
        for eps in PACKING_EPS:
            g = build_max_graph(c, eps)
            size, witness = independence_number(g)
            mask = sum(1 << g.nodes.index(n) for n in witness)
            assert (size, mask) == max_independent_set(g.adj)


def test_sparse_output_bound_matches_oracle():
    # the first copy of each shape whose node sets the oracle can loop over
    # quickly (at most 2^16 of them)
    checked = 0
    for c in packing_channels()[:len(PACKING_SHAPES)]:
        g = build_avg_graph(c)
        per_input = [1] * c.num_inputs  # the choice of no node
        for node in g.nodes:
            per_input[node.input] += 1
        if prod(per_input) > 1 << 16:
            continue
        for eps in PACKING_EPS[1:]:
            size, witness = sparse_number(g, eps)
            assert size == oracle_sparse_number(g, eps)
            assert is_sparse_set(g, witness, eps)
        checked += 1
    assert checked == 4


def test_witnesses_always_decode_within_budget():
    for c in random_channels(16, seed0=1500, max_outputs=4):
        for eps in EPS_GRID:
            g = build_max_graph(c, eps, minimal_only=True)
            size, witness = independence_number(g)
            scheme = scheme_from_disjoint_sets(c, pairs(witness))
            assert len(scheme.codebook) == size
            assert max_error(c, scheme) <= eps


# ---------------------------------------------------------------------------
# Average-one-shot graph
# ---------------------------------------------------------------------------

def test_avg_graph_1x1():
    g = build_avg_graph(identity_channel(1))
    assert [(n.input, n.outputs) for n in g.nodes] == [(0, (0,))]
    assert g.mass(g.nodes[0]) == g.channel.scale  # escape 0


def test_avg_graph_funnel3_weights(funnel3):
    g = build_avg_graph(funnel3)
    a, b = node(1, (1,)), node(2, (2,))
    assert g.edge_weight(a, b) == F(1, 100) + F(1, 50)
    # same input -> infinite
    assert g.edge_weight(a, node(1, (0, 1))) is None
    # intersecting dsets -> infinite
    assert g.edge_weight(node(0, (0,)), node(2, (0, 2))) is None


def test_avg_graph_counts_positive_mass_nodes(funnel3):
    g = build_avg_graph(funnel3)
    per_input = {x: 0 for x in range(3)}
    for n in g.nodes:
        per_input[n.input] += 1
    # row 0 has support {0}: subsets containing output 0 -> 4 of 8
    # rows 1, 2 have two-point support: 6 of 8
    assert per_input == {0: 4, 1: 6, 2: 6}


def test_node_order_is_input_then_size_then_lexicographic():
    # full-support rows make every output subset a node; widths 1 to 10
    # cover masks that span two bytes
    for ny in range(1, 11):
        row = [F(1, ny)] * ny
        g = build_avg_graph(Channel.make([row, row]))
        expected = sorted(
            (x, len(d), d)
            for x in range(2)
            for d in (tuple(y for y in range(ny) if m >> y & 1) for m in range(1, 1 << ny))
        )
        assert [(n.input, len(n.outputs), n.outputs) for n in g.nodes] == expected


def test_canonical_order_is_size_then_lexicographic():
    # seeded random masks of 1 to 3 bytes against a sort of their output tuples
    rng = random.Random(91)
    for width in range(1, 25):
        masks = rng.sample(range(1, 1 << width), min(300, (1 << width) - 1))

        def outputs(mask):
            return tuple(y for y in range(width) if mask >> y & 1)

        expected = sorted(masks, key=lambda m: (len(outputs(m)), outputs(m)))
        assert bitsets.canonical_order(masks, width) == expected
    assert bitsets.canonical_order([], 4) == []
    assert bitsets.canonical_order([0b1010], 4) == [0b1010]


def test_subset_masses_sum_each_mask():
    rng = random.Random(17)
    for width in range(11):
        row = [rng.choice([0, 0, 1, 3, 10**20]) for _ in range(width)]
        expected = [sum(w for y, w in enumerate(row) if mask >> y & 1)
                    for mask in range(1 << width)]
        assert bitsets.subset_masses(row) == expected


def test_disjoint_tables_hold_the_subsets_disjoint_from_each_mask():
    # every mask of widths 1 to 12, and 40 seeded masks at each of 13 to
    # 16, against the subsets of the mask's complement, walked one by one
    rng = random.Random(3201)
    for width in range(1, 17):
        low, high = bitsets.disjoint_tables(width)
        full = (1 << width) - 1
        masks = range(1 << width) if width <= 12 else rng.sample(range(1 << width), 40)
        for mask in masks:
            expected, rest = 0, full & ~mask
            subset = rest
            while True:  # every subset of rest, from rest down to the empty set
                assert not subset & mask
                expected |= 1 << subset
                if not subset:
                    break
                subset = (subset - 1) & rest
            assert low[mask & 255] & high[mask >> 8] == expected


def test_packing_count_takes_sizes_smallest_first():
    assert bitsets.packing_count([3, 1, 2], 4) == 2  # 1 + 2 fit, 3 more do not
    assert bitsets.packing_count([3, 1, 2], 6) == 3
    assert bitsets.packing_count([], 4) == 0
    assert bitsets.packing_count([3, 1, 2], 0) == 0


def test_avg_graph_fields_match_oracle():
    # escapes of 1/2 over a scale of 4, and a zero entry
    halves = Channel.make([["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"]])
    g = build_avg_graph(halves)
    assert any(F(halves.scale - g.mass(n), halves.scale).denominator < halves.scale
               for n in g.nodes)
    channels = [halves, COPRIME, *random_channels(8, seed0=1900, max_inputs=3, max_outputs=4)]
    for c in channels:
        g = build_avg_graph(c)
        expected = oracle_avg_graph(c)
        assert [(n.input, n.outputs) for n in g.nodes] == [(x, d) for x, d, _ in expected]
        masses = [g.mass(n) for n in g.nodes]
        assert all(type(m) is int for m in masses)
        assert masses == [(1 - e) * c.scale for _, _, e in expected]
        for (a, (x, d, e)), (b, (x2, d2, e2)) in combinations(zip(g.nodes, expected), 2):
            weight = None if x == x2 or set(d) & set(d2) else e + e2
            assert g.edge_weight(a, b) == weight
        for eps in EPS_GRID + [F(1)]:
            size, witness = sparse_number(g, eps)
            assert size == oracle_sparse_number(g, eps)
            assert is_sparse_set(g, witness, eps)


def test_avg_graph_output_bound():
    with pytest.raises(ValueError, match="<= 10 outputs"):
        build_avg_graph(identity_channel(11))


# ---------------------------------------------------------------------------
# Sparse sets
# ---------------------------------------------------------------------------

def test_sparse_zero_budget_is_independence():
    checked = 0
    for c in random_channels(10, seed0=1600, max_inputs=3, max_outputs=3):
        g = build_avg_graph(c)
        if g.num_nodes > 20:
            continue  # subset-loop oracle limit
        size, witness = sparse_number(g, F(0))
        assert size == oracle_sparse_number(g, F(0))
        total = induced_weight_sum(g, witness)
        assert total == 0  # a 0-sparse set carries no weight at all
        checked += 1
    assert checked >= 6


def test_two_node_threshold(funnel3):
    g = build_avg_graph(funnel3)
    pair = [node(1, (1,)), node(2, (2,))]
    w = induced_weight_sum(g, pair)
    assert w == F(3, 100)
    # selectable together iff w <= 2 * eps
    assert is_sparse_set(g, pair, w / 2)
    assert not is_sparse_set(g, pair, w / 2 - F(1, 10**9))


def test_sparse_funnel3_at_1_200(funnel3):
    g = build_avg_graph(funnel3)
    size, witness = sparse_number(g, F(1, 200))
    assert size == 2 == oracle_sparse_number(g, F(1, 200))
    assert is_sparse_set(g, witness, F(1, 200))


def test_sparse_solver_matches_oracle():
    for c in random_channels(12, seed0=1700, max_inputs=3, max_outputs=3):
        g = build_avg_graph(c)
        if g.num_nodes > 20:
            continue
        for eps in EPS_GRID + [F(1)]:
            size, witness = sparse_number(g, eps)
            assert size == oracle_sparse_number(g, eps)
            assert is_sparse_set(g, witness, eps)


def test_sparse_sum_equivalence():
    # no infinite edges => pair-sum == (k-1) * sum of escapes
    rng = random.Random(77)
    for c in random_channels(10, seed0=1800, max_inputs=4, max_outputs=4,
                             square_ish=True):
        g = build_avg_graph(c)
        for _ in range(20):
            size = rng.randrange(1, c.num_inputs + 1)
            nodes = [g.nodes[i] for i in rng.sample(range(g.num_nodes), min(size, g.num_nodes))]
            total = induced_weight_sum(g, nodes)
            if total is None:
                continue
            escapes = sum((F(c.scale - g.mass(n), c.scale) for n in nodes), F(0))
            assert total == (len(nodes) - 1) * escapes


def test_sparse_singletons_always_qualify(funnel3):
    g = build_avg_graph(funnel3)
    for n in g.nodes:
        assert is_sparse_set(g, [n], F(0))


def test_sparse_number_builds_tables_only_where_its_bounds_reach(monkeypatch):
    # at eps 1/10 the column maxima of this channel leave every k >= 2
    # over its escape budget at the root, so no input's table is read
    tables = []
    subset_masses = bitsets.subset_masses

    def spy(row):
        tables.append(tuple(row))
        return subset_masses(row)

    monkeypatch.setattr(bitsets, "subset_masses", spy)
    c = gen_random(8, 8, 1, 24)
    size, witness = sparse_number(build_avg_graph(c), F(1, 10))
    assert (size, witness) == (1, (OneShotNode(0, 1),))
    assert tables == []
    # here branches get past the root to inputs 0 and 1 only: their two
    # rows' tables are built, each once, and none for inputs 2..7
    c = gen_random(8, 8, 2, 24)
    assert sparse_number(build_avg_graph(c), F(1, 10))[0] == 1
    assert tables == [c.weights[0], c.weights[1]]


def test_sparse_ceiling_reads_the_column_maxima_of_the_inputs_to_come(monkeypatch):
    # at eps 1/2, k = 2: once input 0 takes output 0, only output 1 is
    # free, and inputs 1 and 2 put no weight there, so that branch stops
    # before it builds their tables; the column maxima over every input
    # (1 on output 1, from row 0) would let it through to both
    tables = []
    subset_masses = bitsets.subset_masses

    def spy(row):
        tables.append(tuple(row))
        return subset_masses(row)

    monkeypatch.setattr(bitsets, "subset_masses", spy)
    g = build_avg_graph(Channel([[1, 1], [2, 0], [2, 0]], 2))
    assert sparse_number(g, F(1, 2)) == (2, (OneShotNode(0, 0b10), OneShotNode(1, 0b01)))
    assert tables == [(1, 1), (2, 0)]


def test_sparse_number_walks_1200_inputs_without_recursion():
    # 1197 uniform rows, then the 3x3 identity: at eps 0 the search skips
    # down 1197 inputs before the answer, which recursing once per input
    # could not reach
    c = Channel([[1, 1, 1]] * 1197 + [[3, 0, 0], [0, 3, 0], [0, 0, 3]], 3)
    g = build_avg_graph(c)
    size, witness = sparse_number(g, F(0))
    assert size == 3
    assert witness == (OneShotNode(1197, 0b001), OneShotNode(1198, 0b010),
                       OneShotNode(1199, 0b100))
    assert is_sparse_set(g, witness, F(0))


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------

def test_dump_formats(funnel3):
    gmax = build_max_graph(funnel3, F(1, 100), minimal_only=True)
    text = dump_graph(gmax)
    lines = text.strip().splitlines()
    node_lines = [l for l in lines if l.startswith("node ")]
    edge_lines = [l for l in lines if l.startswith("edge ")]
    assert len(node_lines) == gmax.num_nodes
    assert node_lines[0] == "node 0 0 {0}"
    assert all(len(l.split()) == 3 for l in edge_lines)

    gavg = build_avg_graph(Channel.make([["1/2", "1/2"], ["0", "1"]]))
    lines = dump_graph(gavg).strip().splitlines()
    edge_lines = [l for l in lines if l.startswith("edge ")]
    n = gavg.num_nodes
    assert len(edge_lines) == n * (n - 1) // 2  # the weighted graph is complete
    assert any(l.endswith(" inf") for l in edge_lines)
    weights = [l.split()[3] for l in edge_lines]
    assert all(w == "inf" or "/" in w or w.isdigit() for w in weights)


def test_dump_max_edges_are_the_adjacency_pairs(funnel3):
    # the dump walks each adjacency mask's bits above i; the order is that
    # of the has_edge loop over i < j
    for minimal_only in (True, False):
        g = build_max_graph(funnel3, F(1, 50), minimal_only=minimal_only)
        edges = [l for l in dump_graph(g).splitlines() if l.startswith("edge ")]
        n = g.num_nodes
        assert edges == [f"edge {i} {j}" for i in range(n) for j in range(i + 1, n)
                         if g.has_edge(i, j)]


def test_dump_line_limit_counts_before_building(funnel3, monkeypatch):
    for g in (build_max_graph(funnel3, F(1, 50), minimal_only=False), build_avg_graph(funnel3)):
        lines = len(dump_graph(g).splitlines())
        monkeypatch.setattr(graphs, "_DUMP_LINE_LIMIT", lines)
        assert len(dump_graph(g).splitlines()) == lines
        monkeypatch.setattr(graphs, "_DUMP_LINE_LIMIT", lines - 1)
        with pytest.raises(ValueError, match=f"graph dump has {lines} lines"):
            dump_graph(g)
        monkeypatch.undo()


def test_dump_refuses_large_graphs_quickly():
    # 4,593 avg nodes with 10,545,528 edges, and 22,366 max nodes with
    # 249,810,966 edges: both are refused before any text is built
    for g, lines in ((build_avg_graph(gen_random(9, 9, 1, 24)), 4_593 + 10_545_528),
                     (build_max_graph(gen_random(10, 12, 1, 24), F(1, 2), minimal_only=False),
                      22_366 + 249_810_966)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"graph dump has {lines} lines, more than "):
            dump_graph(g)
        assert time.perf_counter() - start < 2


def test_dump_of_an_8x8_avg_graph_is_under_the_limit():
    text = dump_graph(build_avg_graph(gen_random(8, 8, 1, 24)))
    assert text.count("\n") == 2038 + 2038 * 2037 // 2

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from oneshotcap import (
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
from oneshotcap import bitsets
from oneshotcap.channel import Channel, gen_random, identity_channel
from oneshotcap.graphs import _bounded_independent_set
from corpus import COPRIME, random_channels
from oracles import oracle_avg_graph, oracle_mis, oracle_sparse_number

F = Fraction

EPS_GRID = [F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(9, 10)]


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
    assert g.is_independent_set(witness.indices)
    # the witness maps to a scheme with worst error within budget
    scheme = scheme_from_disjoint_sets(funnel3, witness.pairs)
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


def test_bounded_search_finds_alpha_between_floor_and_ceiling():
    rng = random.Random(32)
    for trial in range(30):
        n = rng.randrange(1, 15)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        alpha = oracle_mis(adj)
        for floor in range(alpha + 1):
            for ceiling in range(alpha, n + 1):
                size, mask = _bounded_independent_set(adj, floor, ceiling)
                assert size == alpha, (trial, floor, ceiling)
                # a witness whenever the search had to beat the floor
                assert mask.bit_count() == (alpha if alpha > floor else 0)
                assert all(not adj[v] & mask for v in range(n) if mask >> v & 1)


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
            mask = sum(1 << i for i in witness.indices)
            assert (size, mask) == max_independent_set(g.adj)
            for floor in range(size + 1):
                for ceiling in (size, c.num_inputs):
                    assert (_bounded_independent_set(g.adj, floor, ceiling, g)
                            == _bounded_independent_set(g.adj, floor, ceiling))


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
            assert is_sparse_set(g, witness.indices, eps)
        checked += 1
    assert checked == 4


def test_witnesses_always_decode_within_budget():
    for c in random_channels(16, seed0=1500, max_outputs=4):
        for eps in EPS_GRID:
            g = build_max_graph(c, eps, minimal_only=True)
            size, witness = independence_number(g)
            scheme = scheme_from_disjoint_sets(c, witness.pairs)
            assert len(scheme.codebook) == size
            assert max_error(c, scheme) <= eps


# ---------------------------------------------------------------------------
# Average-one-shot graph
# ---------------------------------------------------------------------------

def test_avg_graph_1x1():
    g = build_avg_graph(identity_channel(1))
    assert [(n.input, n.outputs) for n in g.nodes] == [(0, (0,))]
    assert g.escapes == (F(0),)


def test_avg_graph_funnel3_weights(funnel3):
    g = build_avg_graph(funnel3)
    i = g.node_index(1, (1,))
    j = g.node_index(2, (2,))
    assert g.edge_weight(i, j) == F(1, 100) + F(1, 50)
    # same input -> infinite
    assert g.edge_weight(i, g.node_index(1, (0, 1))) is None
    # intersecting dsets -> infinite
    assert g.edge_weight(g.node_index(0, (0,)), g.node_index(2, (0, 2))) is None


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


def test_count_preceding_counts_earlier_subsets_in_canonical_order():
    for width in range(7):
        order = bitsets.all_masks(width)
        for within in range(1 << width):
            earlier = 0
            for mask in order:
                assert bitsets.count_preceding(mask, within) == earlier
                earlier += mask & within == mask


def test_subset_masses_sum_each_mask():
    rng = random.Random(17)
    for width in range(11):
        row = [rng.choice([0, 0, 1, 3, 10**20]) for _ in range(width)]
        expected = [sum(w for y, w in enumerate(row) if mask >> y & 1)
                    for mask in range(1 << width)]
        assert bitsets.subset_masses(row) == expected


def test_avg_graph_fields_match_oracle():
    # escapes of 1/2 over a scale of 4, and a zero entry
    halves = Channel.make([["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"]])
    assert any(e.denominator < halves.scale for e in build_avg_graph(halves).escapes)
    channels = [halves, COPRIME, *random_channels(8, seed0=1900, max_inputs=3, max_outputs=4)]
    for c in channels:
        g = build_avg_graph(c)
        expected = oracle_avg_graph(c)
        assert [(n.input, n.outputs) for n in g.nodes] == [(x, d) for x, d, _ in expected]
        escapes = tuple(e for _, _, e in expected)
        assert g.escapes == escapes
        assert all(type(m) is int for m in g.masses)
        assert g.masses == tuple((1 - e) * c.scale for e in escapes)
        for i, j in combinations(range(g.num_nodes), 2):
            (x, d, e), (x2, d2, e2) = expected[i], expected[j]
            weight = None if x == x2 or set(d) & set(d2) else e + e2
            assert g.edge_weight(i, j) == weight
        for eps in EPS_GRID + [F(1)]:
            size, witness = sparse_number(g, eps)
            assert size == oracle_sparse_number(g, eps)
            assert is_sparse_set(g, witness.indices, eps)


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
        total = induced_weight_sum(g, witness.indices)
        assert total == 0  # a 0-sparse set carries no weight at all
        checked += 1
    assert checked >= 6


def test_two_node_threshold(funnel3):
    g = build_avg_graph(funnel3)
    pair = [g.node_index(1, (1,)), g.node_index(2, (2,))]
    w = induced_weight_sum(g, pair)
    assert w == F(3, 100)
    # selectable together iff w <= 2 * eps
    assert is_sparse_set(g, pair, w / 2)
    assert not is_sparse_set(g, pair, w / 2 - F(1, 10**9))


def test_sparse_funnel3_at_1_200(funnel3):
    g = build_avg_graph(funnel3)
    size, witness = sparse_number(g, F(1, 200))
    assert size == 2 == oracle_sparse_number(g, F(1, 200))
    assert is_sparse_set(g, witness.indices, F(1, 200))


def test_sparse_solver_matches_oracle():
    for c in random_channels(12, seed0=1700, max_inputs=3, max_outputs=3):
        g = build_avg_graph(c)
        if g.num_nodes > 20:
            continue
        for eps in EPS_GRID + [F(1)]:
            size, witness = sparse_number(g, eps)
            assert size == oracle_sparse_number(g, eps)
            assert is_sparse_set(g, witness.indices, eps)


def test_sparse_sum_equivalence():
    # no infinite edges => pair-sum == (k-1) * sum of escapes
    rng = random.Random(77)
    for c in random_channels(10, seed0=1800, max_inputs=4, max_outputs=4,
                             square_ish=True):
        g = build_avg_graph(c)
        for _ in range(20):
            size = rng.randrange(1, c.num_inputs + 1)
            indices = rng.sample(range(g.num_nodes), min(size, g.num_nodes))
            total = induced_weight_sum(g, indices)
            if total is None:
                continue
            escapes = sum((g.escapes[i] for i in indices), F(0))
            assert total == (len(indices) - 1) * escapes


def test_sparse_singletons_always_qualify(funnel3):
    g = build_avg_graph(funnel3)
    for i in range(g.num_nodes):
        assert is_sparse_set(g, [i], F(0))


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

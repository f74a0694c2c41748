from fractions import Fraction

import pytest

from oneshotcap import (
    enumerate_min_decoding_sets,
    gen_from_cubic_graph,
    gen_random_cubic,
    graph_independence_number,
    max_error,
    named_cubic_graphs,
    verify_reduction,
)
from oneshotcap.hardness import (
    _vertex_adjacency,
    cubic_k4,
    cubic_petersen,
    cubic_prism,
    cubic_q3,
    is_independent_in,
)
from oracles import oracle_mis

F = Fraction

EPS_GRID = [F(0), F(1, 100), F(1, 4), F(33, 100)]

KNOWN_ALPHA = {"k4": 1, "k33": 3, "prism": 2, "q3": 4, "petersen": 4}


def test_named_corpus_is_cubic_and_distinct():
    graphs = named_cubic_graphs()
    assert set(graphs) == set(KNOWN_ALPHA)
    for g in graphs.values():
        assert len(g.edges) == 3 * g.num_vertices // 2


def test_independence_numbers_match_subset_oracle():
    for name, g in named_cubic_graphs().items():
        size, witness = graph_independence_number(g)
        assert size == KNOWN_ALPHA[name]
        assert size == oracle_mis(_vertex_adjacency(g))
        assert is_independent_in(g, witness)
        assert len(witness) == size


def test_reduction_agrees_on_named_graphs():
    for name, g in named_cubic_graphs().items():
        for eps in EPS_GRID:
            report = verify_reduction(g, eps)
            assert report.agree, (name, eps)
            assert report.channel_capacity_k == KNOWN_ALPHA[name]


def test_reduction_witness_roundtrip():
    g = cubic_prism()
    report = verify_reduction(g, F(1, 100))
    # channel witness -> vertices: same size, independent
    vertices = tuple(sorted(report.channel_witness.codebook))
    assert len(vertices) == report.channel_capacity_k
    assert is_independent_in(g, vertices)
    # graph witness -> nodes (v, incident edges): disjoint and admissible
    claimed = set()
    for v in report.graph_witness:
        edges = set(g.incident_edges(v))
        assert not claimed & edges
        claimed |= edges
    assert len(report.graph_witness) == report.graph_alpha


def test_channel_witness_covers_incident_edges():
    g = cubic_petersen()
    report = verify_reduction(g, F(33, 100))
    channel = gen_from_cubic_graph(g)
    for x in report.channel_witness.codebook:
        preimage = set(report.channel_witness.preimage(x))
        assert set(g.incident_edges(x)) <= preimage
    assert max_error(channel, report.channel_witness) <= F(33, 100)


def test_minimal_sets_are_exactly_incident_edges_below_third():
    # any admissible set needs mass > 2/3, hence all three 1/3 outputs
    g = cubic_q3()
    channel = gen_from_cubic_graph(g)
    for eps in EPS_GRID:
        for v in range(g.num_vertices):
            assert enumerate_min_decoding_sets(channel, v, eps) == \
                [g.incident_edges(v)]


def test_reduction_checks_minimal_sets_of_every_vertex(monkeypatch):
    # a vertex whose minimal set is not its incident edges breaks k <= alpha
    import oneshotcap.hardness as hardness

    g = cubic_petersen()
    real = hardness.minimal_decoding_masks

    def wrong(channel, x, eps):
        masks = real(channel, x, eps)
        return [masks[0] & (masks[0] - 1)] if x == 7 else masks

    monkeypatch.setattr(hardness, "minimal_decoding_masks", wrong)
    with pytest.raises(RuntimeError, match="vertex 7"):
        verify_reduction(g, F(1, 4))


def test_reduction_rejects_eps_at_least_third():
    g = cubic_k4()
    with pytest.raises(ValueError, match="eps < 1/3"):
        verify_reduction(g, F(1, 3))
    with pytest.raises(ValueError, match="eps < 1/3"):
        verify_reduction(g, F(1, 2))


def test_report_json():
    report = verify_reduction(cubic_k4(), F(1, 4))
    data = report.to_json_dict()
    assert data["agree"] is True
    assert data["graph_alpha"] == data["channel_capacity_k"] == 1
    assert data["epsilon"] == "1/4"
    assert isinstance(data["graph_witness"], list)
    assert set(data["channel_witness"]) == {"codebook", "decoder"}


# ---------------------------------------------------------------------------
# Random cubic graphs
# ---------------------------------------------------------------------------

def test_random_cubic_validity_and_determinism():
    for n in (4, 6, 8, 10, 12, 14):
        g1 = gen_random_cubic(n, seed=n)
        g2 = gen_random_cubic(n, seed=n)
        assert g1 == g2
        assert g1.num_vertices == n
        assert len(g1.edges) == 3 * n // 2  # CubicGraph validates 3-regularity


def test_random_cubic_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        gen_random_cubic(5, seed=0)
    with pytest.raises(ValueError):
        gen_random_cubic(2, seed=0)


def test_reduction_agrees_on_random_cubic_corpus():
    for i in range(10):
        n = 4 + 2 * (i % 6)  # 4, 6, ..., 14
        g = gen_random_cubic(n, seed=3000 + i)
        for eps in [F(0), F(1, 4), F(33, 100)]:
            report = verify_reduction(g, eps)
            assert report.agree
            assert report.graph_alpha == oracle_mis(_vertex_adjacency(g))

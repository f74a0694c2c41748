"""Property tests: the engines against brute force on generated channels.

Channels are up to 4x4 (6x6 for the avg search against trying every
codebook) with each row made of entries k/d for one d <= 12.
The budgets drawn are 0, the exact candidate thresholds 1 - mass(D) over
every row and output subset D (where the max capacity steps), the
midpoints between consecutive thresholds (inside the steps), and every
codebook's exact optimal mean error 1 - captured/k (where the avg capacity
steps).  At these budgets the engines' integer admissibility tests sit at
exact equality.  One fixed channel has coprime denominators, so that its
common denominator exceeds 2^62.
"""

import math
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oneshotcap import (
    Channel,
    ChannelFormatError,
    OneShotNode,
    Scheme,
    as_prob,
    avg_capacity,
    brute_force_capacity,
    build_avg_graph,
    build_max_graph,
    capacity_curve,
    independence_number,
    is_sparse_set,
    max_capacity,
    max_error,
    parse_channel,
    serialize_channel,
    simulate,
    sparse_number,
)
from oneshotcap import capacity
from corpus import COPRIME, P, Q
from oracles import oracle_avg_codebook, oracle_curve_max, oracle_packing, oracle_sparse_number

F = Fraction

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def rows(draw, ny):
    d = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=ny - 1, max_size=ny - 1)))
    return [F(b - a, d) for a, b in zip([0, *cuts], [*cuts, d])]


@st.composite
def channels(draw, size=4):
    nx = draw(st.integers(1, size))
    ny = draw(st.integers(1, size))
    return Channel.make([draw(rows(ny)) for _ in range(nx)])


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda ny: st.lists(rows(ny), min_size=1, max_size=4)))
def test_make_keeps_rows_over_the_lcm_of_denominators(matrix):
    c = Channel.make(matrix)
    assert c.rows == tuple(map(tuple, matrix))
    assert c.scale == math.lcm(*(p.denominator for row in matrix for p in row))


def eps_candidates(c: Channel) -> list[Fraction]:
    thresholds = {F(0)}
    for row in c.rows:
        for k in range(1, c.num_outputs + 1):
            for d in combinations(row, k):
                thresholds.add(1 - sum(d))
    steps = sorted(thresholds)
    avg_errors = set()
    for k in range(1, c.num_inputs + 1):
        for cb in combinations(c.rows, k):
            captured = sum(max(column) for column in zip(*cb))
            avg_errors.add(1 - captured / k)
    return steps + [(a + b) / 2 for a, b in zip(steps, steps[1:])] + sorted(avg_errors)


def check_engines(c: Channel, eps: Fraction) -> None:
    assert max_capacity(c, eps).codebook_size == \
        brute_force_capacity(c, "max", eps).codebook_size
    assert avg_capacity(c, eps).codebook_size == \
        brute_force_capacity(c, "avg", eps).codebook_size
    g = build_avg_graph(c)
    if g.num_nodes <= 20:
        assert sparse_number(g, eps)[0] == oracle_sparse_number(g, eps)


@SETTINGS
@given(channels(), st.data())
def test_engines_match_brute_force(c, data):
    check_engines(c, data.draw(st.sampled_from(eps_candidates(c)), label="eps"))


def has_zero(c: Channel) -> bool:
    return any(0 in row for row in c.weights)


@SETTINGS
@given(channels().filter(has_zero), st.data())
def test_witnesses_are_graph_nodes_and_non_nodes_raise(c, data):
    eps = data.draw(st.sampled_from([e for e in eps_candidates(c) if e < 1]), label="eps")
    g = build_avg_graph(c)
    size, witness = sparse_number(g, eps)
    assert type(witness) is tuple and len(set(witness)) == len(witness) == size
    assert set(witness) <= set(g.nodes)
    assert [n.input for n in witness] == sorted(n.input for n in witness)  # the search's order
    assert is_sparse_set(g, witness, eps)
    g_max = build_max_graph(c, eps)
    size, witness = independence_number(g_max)
    assert type(witness) is tuple and len(set(witness)) == len(witness) == size
    assert set(witness) <= set(g_max.nodes)
    assert all(a.input != b.input and not a.mask & b.mask
               for a, b in combinations(witness, 2))
    nx, ny = c.num_inputs, c.num_outputs
    x, y = next((x, y) for x in range(nx) for y in range(ny) if not c.weights[x][y])
    node = g.nodes[0]
    for stranger in (OneShotNode(x, 1 << y), OneShotNode(nx, 1), OneShotNode(0, 1 << ny)):
        assert stranger not in g.nodes
        with pytest.raises(ValueError, match="is not a node"):
            g.mass(stranger)
        with pytest.raises(ValueError, match="is not a node"):
            g.edge_weight(node, stranger)
        with pytest.raises(ValueError, match="is not a node"):
            is_sparse_set(g, [stranger], eps)


@SETTINGS
@given(channels(size=6).filter(has_zero), st.data())
def test_avg_capacity_matches_the_exhaustive_search(c, data):
    eps = data.draw(st.sampled_from(eps_candidates(c)), label="eps")
    codebook = oracle_avg_codebook(c, eps)
    r = avg_capacity(c, eps)
    assert (r.codebook_size, r.witness.codebook) == (len(codebook), codebook)


@SETTINGS
@given(channels())
def test_max_curve_matches_oracle(c):
    assert capacity_curve(c, "max").breakpoints == oracle_curve_max(c)


@SETTINGS
@given(channels(), st.data())
def test_max_capacity_matches_packing_oracle(c, data):
    # max_capacity runs its search to the end on these channels
    eps = data.draw(st.sampled_from(eps_candidates(c)), label="eps")
    r = max_capacity(c, eps)
    assert r.codebook_size == len(r.witness.codebook) == oracle_packing(c, eps)
    assert max_error(c, r.witness) <= eps


@SETTINGS
@given(st.integers(1, 10).flatmap(lambda ny: st.lists(rows(ny), min_size=1, max_size=8)),
       st.data())
def test_max_search_matches_packing_oracle(matrix, data):
    # up to 8x10; the budget is 1 - the mass of some row's output subset,
    # where a decoding set just reaches the threshold, or a round number
    c = Channel.make(matrix)
    row = data.draw(st.sampled_from(c.rows), label="row")
    subset = data.draw(st.sets(st.integers(0, c.num_outputs - 1)), label="subset")
    edge = 1 - sum((row[y] for y in subset), F(0))
    eps = data.draw(st.sampled_from([e for e in (edge, F(0), F(1, 4), F(1, 2), F(2, 3))
                                     if e < 1]), label="eps")
    threshold = c.min_mass(eps, 1)
    packings = list(capacity._packings(c, threshold, capacity._packing_bound(c, threshold)))
    sizes = [len(sets) for sets in packings]
    assert sizes == sorted(set(sizes)) and sizes[-1] == oracle_packing(c, eps)
    for sets in packings:
        assert len({x for x, _ in sets}) == len(sets)
        assert sum(d.bit_count() for _, d in sets) == reduce(or_, (d for _, d in sets)).bit_count()
        for x, d in sets:  # each set reaches the threshold, and no smaller one inside it
            masses = [c.weights[x][y] for y in range(c.num_outputs) if d >> y & 1]
            assert sum(masses) >= threshold > sum(masses) - min(masses)


@SETTINGS
@given(channels(), st.data())
def test_packing_bound_is_at_least_the_packing(c, data):
    eps = data.draw(st.sampled_from([e for e in eps_candidates(c) if e < 1]), label="eps")
    bound = capacity._packing_bound(c, c.min_mass(eps, 1))
    assert bound >= oracle_packing(c, eps)


def test_engines_match_brute_force_beyond_int64_scale():
    assert COPRIME.scale == 6 * P * Q > 2**62
    for eps in eps_candidates(COPRIME):
        check_engines(COPRIME, eps)


def test_simulate_small_rows_of_a_large_scale_channel():
    # codeword rows with lcm 2 and 3 sample as they do in a channel of their own
    own = Channel.make(COPRIME.rows[:2])
    scheme = Scheme((0, 1), (0, 0, 1, 1))
    assert own.scale == 6
    assert simulate(COPRIME, scheme, trials=2000, seed=5).to_json_dict() == \
        simulate(own, scheme, trials=2000, seed=5).to_json_dict()


@SETTINGS
@given(channels())
def test_parse_serialize_round_trip(c):
    text = serialize_channel(c)
    assert parse_channel(text) == c
    assert serialize_channel(parse_channel(text)) == text


@SETTINGS
@given(st.text(alphabet="0123456789./ ", max_size=8))
def test_as_prob_parses_text_like_fraction(token):
    """as_prob accepts the strings the file format allows and agrees with
    ``Fraction(text)``, which it does not call."""
    text = token.strip()
    if not re.fullmatch(r"\d+/\d+|\d+(?:\.\d*)?|\.\d+", text):
        fault = "is not a p/q fraction or finite decimal"
    elif "/" in text and int(text.split("/")[1]) == 0:
        fault = "has a zero denominator"
    elif Fraction(text) > 1:
        fault = "is outside [0, 1]"
    else:
        assert as_prob(token) == Fraction(text)
        return
    with pytest.raises(ChannelFormatError) as exc:
        as_prob(token, "p")
    assert str(exc.value) == f"p: {text!r} {fault}"

"""Property tests: the engines against brute force on generated channels.

Channels are up to 4x4 with each row made of entries k/d for one d <= 12.
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
from itertools import combinations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oneshotcap import (
    Channel,
    ChannelFormatError,
    Scheme,
    avg_capacity,
    brute_force_capacity,
    build_avg_graph,
    capacity_curve,
    max_capacity,
    parse_channel,
    parse_prob,
    serialize_channel,
    simulate,
    sparse_number,
)
from corpus import COPRIME, P, Q
from oracles import oracle_curve_max, oracle_sparse_number

F = Fraction

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def rows(draw, ny):
    d = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=ny - 1, max_size=ny - 1)))
    return [F(b - a, d) for a, b in zip([0, *cuts], [*cuts, d])]


@st.composite
def channels(draw):
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
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
@given(channels().filter(has_zero))
def test_node_index_inverts_the_node_list(c):
    g = build_avg_graph(c)
    assert g.num_nodes == len(g.nodes)
    for i, node in enumerate(g.nodes):
        assert g.node_index(node.input, node.outputs) == i
    nx, ny = c.num_inputs, c.num_outputs
    missing = [(x, (y,)) for x in range(nx) for y in range(ny) if not c.weights[x][y]]
    missing += [(0, ()), (0, (ny,)), (0, (0, ny)), (0, (-1,)), (nx, (0,)), (-1, (0,))]
    for x, outputs in missing:
        with pytest.raises(KeyError):
            g.node_index(x, outputs)


@SETTINGS
@given(channels().filter(has_zero), st.data())
def test_sparse_witness_indices_name_its_pairs(c, data):
    g = build_avg_graph(c)
    eps = data.draw(st.sampled_from(eps_candidates(c)), label="eps")
    size, witness = sparse_number(g, eps)
    assert len(witness.indices) == size
    assert [(g.nodes[i].input, g.nodes[i].outputs) for i in witness.indices] == \
        list(witness.pairs)


@SETTINGS
@given(channels())
def test_max_curve_matches_oracle(c):
    assert capacity_curve(c, "max").breakpoints == oracle_curve_max(c)


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
def test_parse_prob_matches_fraction_text(token):
    """parse_prob accepts what the file format allows and agrees with
    ``Fraction(text)``, which it no longer calls."""
    text = token.strip()
    if not re.fullmatch(r"\d+/\d+|\d+(?:\.\d*)?|\.\d+", text):
        fault = "is not a p/q fraction or finite decimal"
    elif "/" in text and int(text.split("/")[1]) == 0:
        fault = "has a zero denominator"
    elif Fraction(text) > 1:
        fault = "is outside [0, 1]"
    else:
        assert parse_prob(token) == Fraction(text)
        return
    with pytest.raises(ChannelFormatError) as exc:
        parse_prob(token, "p")
    assert str(exc.value) == f"p: {text!r} {fault}"

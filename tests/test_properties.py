"""Property tests: the engines against brute force on generated channels.

Channels are up to 4x4 with each row made of entries k/d for one d <= 12.
The budgets drawn are 0, the exact candidate thresholds 1 - mass(D) over
every row and output subset D (where the capacity steps), and the
midpoints between consecutive thresholds (inside the steps).
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from oneshotcap import (
    Channel,
    avg_capacity,
    brute_force_capacity,
    max_capacity,
    parse_channel,
    serialize_channel,
)

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


def eps_candidates(c: Channel) -> list[Fraction]:
    thresholds = {F(0)}
    for row in c.rows:
        for k in range(1, c.num_outputs + 1):
            for d in combinations(row, k):
                thresholds.add(1 - sum(d))
    steps = sorted(thresholds)
    return steps + [(a + b) / 2 for a, b in zip(steps, steps[1:])]


@SETTINGS
@given(channels(), st.data())
def test_engines_match_brute_force(c, data):
    eps = data.draw(st.sampled_from(eps_candidates(c)), label="eps")
    assert max_capacity(c, eps).codebook_size == \
        brute_force_capacity(c, "max", eps).codebook_size
    assert avg_capacity(c, eps).codebook_size == \
        brute_force_capacity(c, "avg", eps).codebook_size


@SETTINGS
@given(channels())
def test_parse_serialize_round_trip(c):
    text = serialize_channel(c)
    assert parse_channel(text) == c
    assert serialize_channel(parse_channel(text)) == text

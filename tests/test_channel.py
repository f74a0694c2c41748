from fractions import Fraction

import pytest

from oneshotcap import (
    Channel,
    ChannelFormatError,
    CubicGraph,
    FunnelSpec,
    avg_capacity,
    build_avg_graph,
    build_max_graph,
    capacity_curve,
    gen_from_cubic_graph,
    gen_funnel,
    gen_random,
    is_sparse_set,
    max_capacity,
    parse_channel,
    parse_cubic_graph,
    parse_prob,
    serialize_channel,
    serialize_cubic_graph,
    sparse_number,
    verify_reduction,
)
from corpus import random_channels
from oneshotcap.channel import as_prob
from oneshotcap.decoding import minimal_decoding_masks
from oneshotcap.hardness import cubic_k4, cubic_prism

F = Fraction

FUNNEL3_TEXT = """\
channel 3 3
# symbol 0 is noiseless, 1 and 2 leak into output 0
1 0 0
1/100 99/100 0
2/100 0 98/100
"""


def test_parse_identity():
    c = parse_channel("channel 2 2\n1 0\n0 1\n")
    assert c.rows == ((F(1), F(0)), (F(0), F(1)))


def test_parse_funnel3_matrix(funnel3):
    c = parse_channel(FUNNEL3_TEXT)
    assert c == funnel3
    assert c.prob(1, 0) == F(1, 100)
    assert c.prob(2, 2) == F(98, 100)


def test_parse_decimals_are_exact():
    c = parse_channel("channel 1 3\n0.01 0.02 0.97\n")
    assert c.row(0) == (F(1, 100), F(1, 50), F(97, 100))
    # 0.1 is not representable in binary floating point; the parse must not
    # go anywhere near it
    assert parse_prob("0.1") == F(1, 10)
    assert parse_prob("0.1") != Fraction(0.1)


def test_parse_rejects_bad_row_sum():
    with pytest.raises(ChannelFormatError, match="row 1"):
        parse_channel("channel 2 2\n1 0\n49/100 1/2\n")


def test_parse_reports_entry_location():
    with pytest.raises(ChannelFormatError, match="row 0, column 1"):
        parse_channel("channel 1 2\n1/2 3/2\n")
    with pytest.raises(ChannelFormatError, match="row 1, column 0"):
        parse_channel("channel 2 1\n1\nnope\n")


def test_parse_rejects_bad_shapes():
    with pytest.raises(ChannelFormatError, match="expected 'channel"):
        parse_channel("matrix 2 2\n1 0\n0 1\n")
    with pytest.raises(ChannelFormatError, match="expected 2 rows"):
        parse_channel("channel 2 2\n1 0\n")
    with pytest.raises(ChannelFormatError, match="has 3 entries, expected 2"):
        parse_channel("channel 2 2\n1 0 0\n0 1\n")
    with pytest.raises(ChannelFormatError):
        parse_prob("1e-2")  # exponents are not finite-decimal syntax here


def test_parse_rejects_zero_denominator():
    with pytest.raises(ChannelFormatError) as exc:
        parse_prob("1/0", "epsilon")
    assert str(exc.value) == "epsilon: '1/0' has a zero denominator"
    with pytest.raises(ChannelFormatError) as exc:
        parse_channel("channel 2 2\n1 0\n1/0 1\n")
    assert str(exc.value) == "line 3: row 1, column 0: '1/0' has a zero denominator"
    with pytest.raises(ChannelFormatError, match="'0/0' has a zero denominator"):
        parse_prob("0/0")


@pytest.mark.parametrize("text, message", [
    ("channel 2 2\n1 0\n49/100 1/2\n", "line 3: row 1 sums to 99/100, not 1"),
    ("channel 1 2\n1 1\n", "line 2: row 0 sums to 2, not 1"),
    ("channel 1 3\n0.25 0.5 0.3\n", "line 2: row 0 sums to 21/20, not 1"),
    ("channel 1 2\n1/2 3/2\n", "line 2: row 0, column 1: '3/2' is outside [0, 1]"),
    ("channel 1 2\n1.5 0\n", "line 2: row 0, column 0: '1.5' is outside [0, 1]"),
    ("channel 2 1\n1\nnope\n",
     "line 3: row 1, column 0: 'nope' is not a p/q fraction or finite decimal"),
    ("channel 2 2\n1 0 0\n0 1\n", "line 2: row 0 has 3 entries, expected 2"),
    # a token seen before is checked where it first appears
    ("channel 2 2\n1/2 1/2\n1/2 7/5\n", "line 3: row 1, column 1: '7/5' is outside [0, 1]"),
], ids=["sum", "sum-int", "sum-decimal", "range", "range-decimal", "token", "width",
        "repeated-token"])
def test_parse_error_messages(text, message):
    with pytest.raises(ChannelFormatError) as exc:
        parse_channel(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Channel.make([[F(1, 2), F(1, 4)]]), "row 0: probabilities sum to 3/4, not 1"),
    (lambda: Channel.make([[F(3, 2), F(-1, 2)]]), "entry (0,0): Fraction(3, 2) is outside [0, 1]"),
    (lambda: Channel.make([[0.5, 0.5]]), "entry (0,0): 0.5 is a float, not an int, a Fraction or a str"),
    (lambda: Channel.make(((F(1, 2), F(1, 4)),)), "row 0: probabilities sum to 3/4, not 1"),
    (lambda: Channel.make(((F(1), F(0)), (F(1, 3), F(1, 3)))),
     "row 1: probabilities sum to 2/3, not 1"),
    (lambda: Channel.make(((1, 1),)), "row 0: probabilities sum to 2, not 1"),
    (lambda: Channel.make(((F(3, 2), F(-1, 2)),)),
     "entry (0,0): Fraction(3, 2) is outside [0, 1]"),
    (lambda: Channel.make(((F(1), F(0)), (F(1, 2), F(-1, 2)))),
     "entry (1,1): Fraction(-1, 2) is outside [0, 1]"),
    (lambda: Channel.make(((0.5, 0.5), (0.1, 0.9))),
     "entry (0,0): 0.5 is a float, not an int, a Fraction or a str"),
    # the first fault in row-major order is named, whatever its kind
    (lambda: Channel.make(((F(3, 2), F(-1, 2)), (0.5, 0.5))),
     "entry (0,0): Fraction(3, 2) is outside [0, 1]"),
    (lambda: Channel.make(((F(1), 0.0), (F(1),))),
     "entry (0,1): 0.0 is a float, not an int, a Fraction or a str"),
    (lambda: Channel.make(((F(1), F(0)), (F(1),), (F(2), F(-1)))),
     "row 1: expected 2 entries, got 1"),
    (lambda: Channel.make(((F(1, 2), F(1, 2)), (F(2), F(-1)))),
     "entry (1,0): Fraction(2, 1) is outside [0, 1]"),
    # Channel(weights, scale) checks integer weights over a positive scale; the
    # float row sums to the scale exactly, so only the type check rejects it
    (lambda: Channel(((1, 0.5, 0.5),), 2), "entry (0,1): 0.5 is not a non-negative int"),
    (lambda: Channel(((1, 0), (2, -1)), 1), "entry (1,1): -1 is not a non-negative int"),
    (lambda: Channel(((1, 1), (2,)), 2), "row 1: expected 2 entries, got 1"),
    (lambda: Channel(((1, 1), (1, 2)), 2), "row 1: probabilities sum to 3/2, not 1"),
    (lambda: Channel(((1,),), 0), "scale must be a positive int, got 0"),
    (lambda: Channel(((0,),), -1), "scale must be a positive int, got -1"),
    (lambda: Channel((), 1), "channel needs at least one input"),
    (lambda: Channel(((),), 1), "channel needs at least one output"),
], ids=["make-sum", "make-range", "make-float", "sum", "sum-row-1", "sum-int", "range",
        "range-negative", "float", "range-before-float", "float-before-width",
        "width-before-range", "range-after-good-row", "weights-float", "weights-negative",
        "weights-ragged", "weights-sum", "weights-scale-zero", "weights-scale-negative",
        "weights-no-inputs", "weights-no-outputs"])
def test_channel_error_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_channel_is_kept_in_lowest_terms():
    c = Channel(((2, 2), (4, 0)), 4)
    made = Channel.make([[F(1, 2), F(1, 2)], [1, 0]])
    assert c == made and hash(c) == hash(made)
    assert c.scale == 2 and c.weights == ((1, 1), (2, 0))
    assert c.rows == ((F(1, 2), F(1, 2)), (F(1), F(0)))


def test_roundtrip_exact(funnel3):
    for c in [funnel3] + random_channels(20, seed0=500):
        assert parse_channel(serialize_channel(c)) == c


def test_channel_validation():
    with pytest.raises(ValueError, match="sum to"):
        Channel.make([[F(1, 2), F(1, 4)]])
    with pytest.raises(ValueError, match="outside"):
        Channel.make([[F(3, 2), F(-1, 2)]])
    with pytest.raises(ValueError, match="expected 2 entries"):
        Channel.make(((F(1), F(0)), (F(1),)))


def test_channel_rejects_float_entries():
    # 0.1 + 0.9 == Fraction(1), so only the type check keeps binary floats out
    with pytest.raises(ValueError, match=r"entry \(0,0\): 0\.5 is a float, not an int, a Fraction or a str"):
        Channel.make(((0.5, 0.5), (0.1, 0.9)))
    with pytest.raises(ValueError, match=r"entry \(1,1\): 0\.9"):
        Channel.make(((F(1, 2), F(1, 2)), (F(1, 10), 0.9)))
    # the float is named whether it is a binary fraction or not
    with pytest.raises(ValueError, match=r"entry \(0,0\): 0\.5 is a float, not an int, a Fraction or a str"):
        Channel.make([[0.5, 0.5]])
    with pytest.raises(ValueError, match=r"entry \(0,0\): 0\.1 is a float, not an int, a Fraction or a str"):
        Channel.make([[0.1, 0.9]])


_EPS_C = gen_random(4, 4, 1, 24)
_EPS_ENTRIES = {
    "max_capacity": lambda eps: max_capacity(_EPS_C, eps),
    "avg_capacity": lambda eps: avg_capacity(_EPS_C, eps),
    "curve_value_at": lambda eps: capacity_curve(_EPS_C, "max").value_at(eps),
    "build_max_graph": lambda eps: build_max_graph(_EPS_C, eps),
    "minimal_decoding_masks": lambda eps: minimal_decoding_masks(_EPS_C, 0, eps),
    "sparse_number": lambda eps: sparse_number(build_avg_graph(_EPS_C), eps),
    "is_sparse_set": lambda eps: is_sparse_set(build_avg_graph(_EPS_C), [0, 1], eps),
    "verify_reduction": lambda eps: verify_reduction(cubic_k4(), eps),
    "min_mass": lambda eps: _EPS_C.min_mass(eps, 1),
}


@pytest.mark.parametrize("eps, kind", [(0.1, "float"), (True, "bool")], ids=["float", "bool"])
@pytest.mark.parametrize("entry", sorted(_EPS_ENTRIES))
def test_eps_rejects_floats_and_bools(entry, eps, kind):
    # Fraction(0.1) and Fraction(True) would solve at 3602879701896397/2^55 and at 1
    with pytest.raises(ValueError, match=f"^eps: {eps!r} is a {kind}, not an int"):
        _EPS_ENTRIES[entry](eps)


def test_as_prob():
    assert as_prob(0) == 0 and as_prob(1) == 1
    assert as_prob(F(1, 3)) == as_prob("1/3") == as_prob(" 2/6 ") == F(1, 3)
    assert as_prob("0.25") == F(1, 4)
    with pytest.raises(ValueError, match=r"^eps: Fraction\(4, 3\) is outside \[0, 1\]$"):
        as_prob(F(4, 3), "eps")
    with pytest.raises(ValueError, match=r"^probability: -1 is outside \[0, 1\]$"):
        as_prob(-1)
    with pytest.raises(ChannelFormatError, match="is not a p/q fraction"):
        as_prob("1e-1")
    with pytest.raises(ValueError, match="^probability: None is a NoneType, not"):
        as_prob(None)


def test_integer_weights_over_one_denominator():
    c = Channel.make([[F(1, 2), F(1, 2), 0], [F(1, 3), 0, F(2, 3)], [0, 0, 1]])
    assert c.scale == 6
    assert c.weights == ((3, 3, 0), (2, 0, 4), (0, 0, 6))
    assert c.support_mask(1) == 0b101
    # least m with m/6 >= k(1-eps): 1 * 6 * 3/4 = 4.5 -> 5; exact at 1/2
    assert c.min_mass(F(1, 4), 1) == 5
    assert c.min_mass(F(1, 2), 1) == 3
    assert c.min_mass(F(1, 4), 2) == 9
    assert c.min_mass(0, 3) == 18
    assert c.min_mass(1, 3) == 0


# ---------------------------------------------------------------------------
# Funnel family
# ---------------------------------------------------------------------------

def test_gen_funnel_matches_fixture(funnel3, funnel3_spec):
    assert gen_funnel(funnel3_spec).rows == funnel3.rows


def test_gen_funnel_degenerate_full_leak():
    c = gen_funnel(FunnelSpec.make(2, [F(1)]))
    assert c.row(0) == c.row(1) == (F(1), F(0))


def test_gen_funnel_formula_entry_by_entry():
    e = (F(1, 10), F(1, 5), F(3, 10))
    c = gen_funnel(FunnelSpec.make(4, e))
    assert c.num_inputs == c.num_outputs == 4
    for i in range(4):
        for y in range(4):
            if i == 0:
                expected = F(1) if y == 0 else F(0)
            elif y == i:
                expected = 1 - e[i - 1]
            elif y == 0:
                expected = e[i - 1]
            else:
                expected = F(0)
            assert c.prob(i, y) == expected


def test_funnel_spec_invariants():
    with pytest.raises(ValueError):
        FunnelSpec.make(3, [F(0), F(1, 2)])  # zero leak rejected
    with pytest.raises(ValueError):
        FunnelSpec.make(3, [F(1, 2), F(1, 2)])  # not strictly increasing
    with pytest.raises(ValueError):
        FunnelSpec.make(3, [F(1, 2), F(3, 2)])  # above 1
    with pytest.raises(ValueError):
        FunnelSpec.make(3, [F(1, 2)])  # wrong count
    with pytest.raises(ValueError):
        FunnelSpec.make(1, [])


def test_funnel_rows_sum_to_one():
    for n, e in [(2, [F(1, 7)]), (5, [F(1, 9), F(2, 9), F(1, 3), F(1)])]:
        c = gen_funnel(FunnelSpec.make(n, e))
        for x in range(n):
            assert sum(c.row(x)) == 1


# ---------------------------------------------------------------------------
# Cubic-graph channels
# ---------------------------------------------------------------------------

def test_gen_from_cubic_k4():
    c = gen_from_cubic_graph(cubic_k4())
    assert (c.num_inputs, c.num_outputs) == (4, 6)
    for x in range(4):
        assert sorted(c.row(x), reverse=True)[:3] == [F(1, 3)] * 3
        assert sum(c.row(x)) == 1


def test_gen_from_cubic_prism_output_order():
    g = cubic_prism()
    c = gen_from_cubic_graph(g)
    assert (c.num_inputs, c.num_outputs) == (6, 9)
    for v in range(6):
        for i, (a, b) in enumerate(g.edges):
            assert c.prob(v, i) == (F(1, 3) if v in (a, b) else F(0))


def test_cubic_graph_rejects_wrong_degree():
    with pytest.raises(ValueError, match="degree"):
        CubicGraph.make(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # a 2-regular cycle
    with pytest.raises(ValueError, match="loop"):
        CubicGraph.make(2, [(0, 0), (0, 1), (0, 1)])


def test_cubic_graph_roundtrip():
    g = cubic_prism()
    assert parse_cubic_graph(serialize_cubic_graph(g)) == g
    with pytest.raises(ChannelFormatError, match="expected 9 edges"):
        parse_cubic_graph("graph 6 9\n0 1\n")


# ---------------------------------------------------------------------------
# Random channels
# ---------------------------------------------------------------------------

def test_gen_random_trivial_1x1():
    assert gen_random(1, 1, seed=7, denominator_bound=5).rows == ((F(1),),)


def test_gen_random_deterministic():
    a = gen_random(3, 4, seed=42, denominator_bound=12)
    b = gen_random(3, 4, seed=42, denominator_bound=12)
    assert a == b
    assert a != gen_random(3, 4, seed=43, denominator_bound=12)


def test_gen_random_exact_rows_and_denominators():
    c = gen_random(3, 3, seed=7, denominator_bound=12)
    for x in range(3):
        assert sum(c.row(x)) == 1
        for p in c.row(x):
            assert p.denominator <= 12

import gc
import random
from fractions import Fraction

import pytest

from oneshotcap import (
    Channel,
    FunnelSpec,
    avg_capacity,
    avg_error,
    brute_force_capacity,
    build_avg_graph,
    build_max_graph,
    capacity_curve,
    enumerate_min_decoding_sets,
    funnel_closed_form,
    gen_funnel,
    gen_random,
    gen_random_cubic,
    identity_channel,
    independence_number,
    max_capacity,
    max_error,
    scheme_from_disjoint_sets,
    sparse_number,
    verify_reduction,
)
from corpus import random_channels
from oracles import oracle_capacity, oracle_curve_max, oracle_packing

F = Fraction

EPS_GRID = [F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(9, 10)]


# ---------------------------------------------------------------------------
# Funnel channel values
# ---------------------------------------------------------------------------

def test_funnel3_max_steps(funnel3):
    assert max_capacity(funnel3, F(1, 200)).codebook_size == 1
    assert max_capacity(funnel3, F(1, 100)).codebook_size == 2
    assert max_capacity(funnel3, F(1, 50)).codebook_size == 3


def test_funnel3_metric_separation(funnel3):
    # at eps = 1/200 the mean metric already fits two codewords
    assert max_capacity(funnel3, F(1, 200)).codebook_size == 1
    assert avg_capacity(funnel3, F(1, 200)).codebook_size == 2
    assert brute_force_capacity(funnel3, "avg", F(1, 200)).codebook_size == 2
    assert brute_force_capacity(funnel3, "max", F(1, 200)).codebook_size == 1


def test_funnel3_zero_budget_avg(funnel3):
    # every row leaks into output 0, so no two zero-escape sets are disjoint
    assert avg_capacity(funnel3, F(0)).codebook_size == 1


def test_identity_capacity_at_zero():
    for n in (1, 2, 4):
        c = identity_channel(n)
        assert max_capacity(c, F(0)).codebook_size == n
        assert avg_capacity(c, F(0)).codebook_size == n


def test_eps_one_short_circuit(funnel3):
    r = max_capacity(funnel3, F(1))
    assert r.codebook_size == 3
    assert max_error(funnel3, r.witness) <= 1
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        build_max_graph(funnel3, F(1))


def test_witnesses_are_admissible(funnel3):
    for eps in [F(1, 200), F(1, 100), F(1, 50), F(1)]:
        r = max_capacity(funnel3, eps)
        assert len(r.witness.codebook) == r.codebook_size
        assert max_error(funnel3, r.witness) <= eps
        a = avg_capacity(funnel3, eps)
        assert avg_error(funnel3, a.witness) <= eps


def test_result_validation(funnel3):
    r = max_capacity(funnel3, F(1, 100))
    data = r.to_json_dict()
    assert data["codebook_size"] == 2
    assert data["capacity_bits"] == "1.000000000000"
    assert data["epsilon"] == "1/100"
    assert data["witness"]["codebook"] == list(r.witness.codebook)


# ---------------------------------------------------------------------------
# Engine equivalence on the random corpus
# ---------------------------------------------------------------------------

def test_max_engines_agree_with_oracle():
    for c in random_channels(20, seed0=2000):
        for eps in [F(0), F(1, 10), F(1, 3), F(1, 2)]:
            k_graph = max_capacity(c, eps).codebook_size
            k_pack = oracle_packing(c, eps)
            k_brute = brute_force_capacity(c, "max", eps).codebook_size
            assert k_graph == k_pack == k_brute


def test_max_capacity_matches_packing_oracle_beyond_brute_force():
    # 6x6 to 8x8: past brute force's 5x5 limit, so the packing oracle is
    # the only independent reference here
    for n in (6, 7, 8):
        for i in range(4):
            c = gen_random(n, n, seed=2500 + 10 * n + i, denominator_bound=12)
            for eps in [F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2)]:
                r = max_capacity(c, eps)
                assert r.codebook_size == oracle_packing(c, eps)
                assert max_error(c, r.witness) <= eps


def test_avg_engines_agree_with_oracle():
    for c in random_channels(12, seed0=2100, square_ish=True):
        for eps in [F(0), F(1, 10), F(1, 3)]:
            k_search = avg_capacity(c, eps).codebook_size
            k_sparse, _ = sparse_number(build_avg_graph(c), eps)
            k_brute = brute_force_capacity(c, "avg", eps).codebook_size
            assert k_search == k_sparse == k_brute


def test_brute_force_against_definition_oracle():
    # the library brute force and the test-side oracle walk the same
    # definition through different code
    for c in random_channels(8, seed0=2200, max_inputs=3, max_outputs=3):
        for eps in [F(0), F(1, 4), F(1, 2)]:
            for metric in ("maximum", "average"):
                assert brute_force_capacity(c, metric, eps).codebook_size == \
                    oracle_capacity(c, metric, eps)


def test_brute_force_trivial_and_bounds():
    c1 = identity_channel(1)
    assert brute_force_capacity(c1, "max", F(0)).codebook_size == 1
    assert brute_force_capacity(c1, "avg", F(1)).codebook_size == 1
    with pytest.raises(ValueError, match="limited to 5x5"):
        brute_force_capacity(identity_channel(6), "max", F(0))


def test_sparse_path_sacrifice_gap():
    """Boundary of the weighted-graph characterization.

    A scheme may sacrifice a codeword outright (decoding error exactly 1);
    such a codeword has no positive-mass node in the graph, so the sparse
    number undershoots the avg capacity exactly on those instances.
    The smallest case: two identical rows over a single output at eps=1/2,
    where codebook {0,1} with the lone output decoding to 0 has mean error
    (0 + 1)/2 = 1/2.
    """
    c = Channel.make([["1"], ["1"]])
    g = build_avg_graph(c)
    assert brute_force_capacity(c, "avg", F(1, 2)).codebook_size == 2
    assert avg_capacity(c, F(1, 2)).codebook_size == 2
    size, witness = sparse_number(g, F(1, 2))
    assert size == 1
    # the sparse witness is still a sound scheme: its mean error fits eps
    assert avg_error(c, scheme_from_disjoint_sets(c, witness.pairs)) <= F(1, 2)
    # below eps = 1/2 no sacrifice fits the budget and the two agree
    assert avg_capacity(c, F(49, 100)).codebook_size == 1
    assert sparse_number(g, F(49, 100))[0] == 1


def test_monotonicity_and_metric_order():
    sorted_grid = sorted(EPS_GRID)
    for c in random_channels(12, seed0=2300):
        prev_max, prev_avg = 0, 0
        for eps in sorted_grid:
            k_max = max_capacity(c, eps).codebook_size
            k_avg = avg_capacity(c, eps).codebook_size
            assert k_max >= prev_max and k_avg >= prev_avg
            assert k_avg >= k_max  # worst-case admissible implies mean admissible
            prev_max, prev_avg = k_max, k_avg


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_closed_form_spot_values(funnel3_spec):
    assert funnel_closed_form(funnel3_spec, F(3, 200)) == 2
    assert funnel_closed_form(funnel3_spec, F(0)) == 1
    assert funnel_closed_form(funnel3_spec, F(1, 100)) == 2
    assert funnel_closed_form(funnel3_spec, F(1, 50)) == 3
    assert funnel_closed_form(funnel3_spec, F(1)) == 3


def random_funnel_spec(rng, max_n=8):
    n = rng.randrange(2, max_n + 1)
    leaks = set()
    while len(leaks) < n - 1:
        leaks.add(F(rng.randrange(1, 61), 60))
    return FunnelSpec(n, tuple(sorted(leaks)))


def test_closed_form_matches_packing_engine():
    rng = random.Random(202)
    for _ in range(50):
        spec = random_funnel_spec(rng)
        c = gen_funnel(spec)
        for _ in range(4):
            eps = F(rng.randrange(0, 1001), 1000)
            assert funnel_closed_form(spec, eps) == \
                max_capacity(c, eps).codebook_size


def test_closed_form_hits_boundaries_exactly():
    spec = FunnelSpec.make(4, [F(1, 8), F(1, 4), F(1, 2)])
    c = gen_funnel(spec)
    for eps in [F(1, 8), F(1, 4), F(1, 2)]:
        # at the threshold itself the step has already happened
        assert funnel_closed_form(spec, eps) == max_capacity(c, eps).codebook_size
        just_below = eps - F(1, 10**12)
        assert funnel_closed_form(spec, just_below) == \
            max_capacity(c, just_below).codebook_size == \
            funnel_closed_form(spec, eps) - 1


# ---------------------------------------------------------------------------
# Capacity curves
# ---------------------------------------------------------------------------

def test_curve_funnel3_max(funnel3):
    curve = capacity_curve(funnel3, "max")
    assert curve.breakpoints == ((F(0), 1), (F(1, 100), 2), (F(1, 50), 3))
    assert curve.value_at(F(3, 200)) == 2
    assert curve.value_at(F(1, 150)) == 1  # still below the first leak
    assert curve.value_at(F(99, 100)) == 3


def test_curve_identity_single_breakpoint():
    for metric in ("max", "avg"):
        curve = capacity_curve(identity_channel(4), metric)
        assert curve.breakpoints == ((F(0), 4),)


def test_curve_funnel5_breakpoints_at_leaks():
    e = [F(1, 10), F(1, 5), F(3, 10), F(2, 5)]
    c = gen_funnel(FunnelSpec.make(5, e))
    curve = capacity_curve(c, "max")
    assert curve.breakpoints == (
        (F(0), 1), (F(1, 10), 2), (F(1, 5), 3), (F(3, 10), 4), (F(2, 5), 5),
    )


def test_curve_funnel3_avg(funnel3):
    curve = capacity_curve(funnel3, "avg")
    assert curve.breakpoints == ((F(0), 1), (F(1, 200), 2), (F(1, 100), 3))


def test_curve_lookup_matches_direct_engines():
    rng = random.Random(404)
    for c in random_channels(8, seed0=2400):
        for metric, engine in (("max", max_capacity), ("avg", avg_capacity)):
            curve = capacity_curve(c, metric)
            for _ in range(20):
                eps = F(rng.randrange(0, 1001), 1000)
                assert curve.value_at(eps) == engine(c, eps).codebook_size


def test_max_curve_matches_oracle_beyond_brute_force():
    # the curve settles whole runs of thresholds from their ends' sizes;
    # the oracle packs at every threshold
    for n in (6, 7, 8):
        for i in range(4):
            c = gen_random(n, n, seed=2600 + 10 * n + i, denominator_bound=12)
            assert capacity_curve(c, "max").breakpoints == oracle_curve_max(c)


def test_curve_csv_format(funnel3):
    text = capacity_curve(funnel3, "max").to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "epsilon,codebook_size,capacity_bits"
    assert lines[1] == "0,1,0.000000000000"
    assert lines[2] == "1/100,2,1.000000000000"
    assert lines[3].startswith("1/50,3,1.584962500721")


# ---------------------------------------------------------------------------
# Memory: every search frees its work by refcount
# ---------------------------------------------------------------------------

_GC_CHANNEL = gen_random(6, 8, 3, 24)
_GC_SEARCHES = {
    "sparse_number": lambda: sparse_number(build_avg_graph(_GC_CHANNEL), F(1, 3)),
    "max_capacity": lambda: max_capacity(_GC_CHANNEL, F(1, 3)),
    "avg_capacity": lambda: avg_capacity(_GC_CHANNEL, F(1, 3)),
    "curve-max": lambda: capacity_curve(_GC_CHANNEL, "max"),
    "curve-avg": lambda: capacity_curve(_GC_CHANNEL, "avg"),
    "independence_number": lambda: independence_number(build_max_graph(_GC_CHANNEL, F(1, 2))),
    "enumerate_min_decoding_sets": lambda: enumerate_min_decoding_sets(_GC_CHANNEL, 0, F(1, 3)),
    "verify_reduction": lambda: verify_reduction(gen_random_cubic(20, 1), F(1, 4)),
}


@pytest.mark.parametrize("search", _GC_SEARCHES.values(), ids=_GC_SEARCHES.keys())
def test_search_leaves_no_cyclic_garbage(search):
    """A search's tables go when it returns, not at the next cyclic
    collection: a self-referencing closure would keep them alive."""
    search()  # fill the module-level caches first
    gc.collect()
    gc.disable()
    try:
        search()
        assert gc.collect() == 0
    finally:
        gc.enable()

import gc
import random
from fractions import Fraction
from itertools import combinations

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
    gen_from_cubic_graph,
    gen_random_cubic,
    graph_independence_number,
    identity_channel,
    independence_number,
    max_capacity,
    max_error,
    scheme_from_disjoint_sets,
    sparse_number,
    verify_reduction,
)
from oneshotcap import bitsets, capacity
from oneshotcap.decoding import Scheme
from corpus import random_channels
from oracles import (oracle_avg_codebook, oracle_capacity, oracle_curve_avg, oracle_curve_max,
                     oracle_packing)

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


def test_max_capacity_on_a_minimal_set_of_1100_outputs():
    # at eps 0 each row's one minimal set holds all 1100 outputs
    c = Channel([[1] * 1100] * 2, 1100)
    r = max_capacity(c, F(0))
    assert r.codebook_size == 1
    assert max_error(c, r.witness) == 0


def test_max_capacity_on_an_independent_set_of_1100_nodes():
    # the search's first packing meets the packing bound, 1100, one
    # singleton set per row: a search that recursed once per member failed
    c = identity_channel(1100)
    assert capacity._max_engine(c, F(0))[0] == "search"
    r = max_capacity(c, F(0))
    assert r.codebook_size == 1100
    assert r.witness.codebook == tuple(range(1100))
    assert max_error(c, r.witness) == 0


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


@pytest.mark.parametrize("engine, builder", [
    (max_capacity, "scheme_from_disjoint_sets"),
    (avg_capacity, "optimal_avg_decoder"),
], ids=["max", "avg"])
def test_inadmissible_witness_raises(funnel3, monkeypatch, engine, builder):
    # every output decodes to codeword 0, so codewords 1 and 2 have error 1
    monkeypatch.setattr(f"oneshotcap.capacity.{builder}",
                        lambda c, _: Scheme((0, 1, 2), (0, 0, 0)))
    with pytest.raises(RuntimeError, match="witness has error .* > eps = 1/50"):
        engine(funnel3, F(1, 50))


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


def test_max_capacity_matches_graph_engine():
    # 6x6 to 12x16, at most 16 outputs, where the search runs to the end
    shapes = [(6, 6), (7, 8), (8, 10), (9, 12), (10, 14), (12, 16)]
    for nx, ny in shapes:
        for i in range(2):
            c = gen_random(nx, ny, seed=2700 + 10 * nx + i, denominator_bound=24)
            for eps in [F(0), F(1, 10), F(1, 3), F(1, 2), F(3, 4)]:
                r = max_capacity(c, eps)
                g = build_max_graph(c, eps)
                assert r.codebook_size == independence_number(g)[0], (nx, ny, i, eps)
                assert max_error(c, r.witness) <= eps


def test_max_search_matches_graph_engine_up_to_16x16():
    # square channels of 12 to 16 outputs, where rows have hundreds to
    # thousands of minimal sets and the graph takes up to half a second
    for n in (12, 14, 16):
        c = gen_random(n, n, seed=3000 + n, denominator_bound=24)
        for eps in [F(1, 3), F(1, 2), F(2, 3)]:
            r = max_capacity(c, eps)
            assert r.codebook_size == independence_number(build_max_graph(c, eps))[0], (n, eps)
            assert max_error(c, r.witness) <= eps


def test_max_capacity_on_cubic_channels_matches_the_plain_graph():
    # 60 to 120 outputs, where first-fit falls short and the conflict
    # graph answers: one node per vertex, adjacent as the vertices are, so
    # its search runs the packing bound and the degree-3 reduction rules
    # together, and the plain graph's search the rules alone
    for n in (40, 60, 80):
        for seed in (1, 2):
            g = gen_random_cubic(n, seed)
            c = gen_from_cubic_graph(g)
            assert max_capacity(c, F(1, 4)).codebook_size == graph_independence_number(g)[0]
            assert capacity._max_engine(c, F(1, 4))[0] == "graph", (n, seed)


def test_max_search_takes_no_frame_per_input():
    # 1200 point-mass rows on 16 outputs: first-fit meets the bound, 16
    c = gen_random(1200, 16, seed=1, denominator_bound=1)
    assert max_capacity(c, F(1, 10)).codebook_size == 16
    # 1197 rows on output 0, then rows on outputs 1, 2 and 3: the first
    # packing reaches its fourth set past 1197 skipped inputs (a search
    # that recursed once per input would fail there), and the outputs the
    # rows reach bound it at once
    rows = [[1] + [0] * 15] * 1197 + [[int(y == x) for y in range(16)] for x in (1, 2, 3)]
    c = Channel(rows, 1)
    assert capacity._packing_bound(c, 1) == 16
    r = max_capacity(c, F(1, 10))
    assert (r.codebook_size, r.witness.codebook) == (4, (0, 1197, 1198, 1199))


def test_max_search_counts_the_forced_outputs(monkeypatch):
    # every row needs output 0 (weight 12 > 24 - 16) and 4 more: first-fit
    # packs 1 of a packing bound of 2, and no later row can join it, since
    # output 0 is the one forced output left free; each row is walked once
    walks = []
    walk = capacity.minimal_sets

    def spy(c, x, *args, **kwargs):
        walks.append(x)
        return walk(c, x, *args, **kwargs)

    monkeypatch.setattr(capacity, "minimal_sets", spy)
    c = Channel([[12] + [1] * 12] * 200, 24)
    assert capacity._packing_bound(c, c.min_mass(F(1, 3), 1)) == 2
    r = max_capacity(c, F(1, 3))
    assert (r.codebook_size, r.witness.codebook) == (1, (0,))
    assert len(walks) <= 200


def test_max_search_limits(funnel3):
    assert max_capacity(funnel3, F(1)).codebook_size == 3
    # a tall channel of point masses: the search's first packing meets the
    # packing bound, 16, with no 2^16-bit level held per input
    tall = Channel([[1 if y == x % 16 else 0 for y in range(16)] for x in range(1000)], 1)
    assert capacity._packing_bound(tall, 1) == 16
    engine, r = capacity._max_engine(tall, F(1, 10))
    assert engine == "search" and r.codebook_size == 16
    with pytest.raises(ValueError, match="<= 16 outputs"):
        capacity_curve(identity_channel(17), "max")


def test_narrow_max_capacity_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_max_graph called on a narrow channel")

    monkeypatch.setattr(capacity, "build_max_graph", refuse)
    for ny in (2, 9, 16):
        c = gen_random(10, ny, seed=2800 + ny, denominator_bound=24)
        for eps in [F(0), F(1, 3), F(2, 3)]:
            r = max_capacity(c, eps)
            assert max_error(c, r.witness) <= eps


def test_a_wide_first_packing_short_of_the_bound_uses_the_graph(monkeypatch):
    built = []

    def build(*args, **kwargs):
        built.append(build_max_graph(*args, **kwargs))
        return built[-1]

    # 17 outputs, past the search's own range: first-fit packs 2 sets
    # against a packing bound of 3, so the conflict graph answers
    c = gen_random(8, 17, seed=1, denominator_bound=24)
    threshold = c.min_mass(F(1, 3), 1)
    ceiling = capacity._packing_bound(c, threshold)
    packings = list(capacity._packings(c, threshold, ceiling))
    assert (ceiling, [len(p) for p in packings]) == (3, [2])
    monkeypatch.setattr(capacity, "build_max_graph", build)
    engine, r = capacity._max_engine(c, F(1, 3))
    assert (engine, r.codebook_size, len(built)) == ("graph", 2, 1)
    assert r.witness.codebook == tuple(sorted(n.input for n in independence_number(built[0])[1]))


def test_search_yields_larger_packings_in_its_order(monkeypatch):
    # row 0 takes output 0 first, which row 1 needs, so first-fit stops at
    # 1; the search then takes row 0's next set, output 1, and row 1 fits
    c = Channel([[1, 1], [2, 0]], 2)
    assert capacity._packing_bound(c, 1) == 2
    assert list(capacity._packings(c, 1, 2)) == [[(0, 0b01)], [(0, 0b10), (1, 0b01)]]
    # at eps 0 row 0 needs {3}, row 1 {0, 2} and row 2 {0, 1}: first-fit
    # packs rows 0 and 1 and meets the bound, 2, so nothing else is tried
    c = Channel([[0, 0, 0, 2], [1, 0, 1, 0], [1, 1, 0, 0]], 2)
    assert list(capacity._packings(c, 2, 2)) == [[(0, 0b1000), (1, 0b0101)]]
    # no row reaches output 2, so the bound over the outputs the rows reach
    # stops the search at its first packing, 2 of a packing bound of 3: it
    # walks no set after first-fit's
    visited = []
    walk = capacity.minimal_sets

    def spy(c, x, threshold, *args, **kwargs):
        for mask in walk(c, x, threshold, *args, **kwargs):
            visited.append((x, mask))
            yield mask

    monkeypatch.setattr(capacity, "minimal_sets", spy)
    c = Channel([[1, 1, 0], [2, 0, 0], [0, 2, 0]], 2)
    assert capacity._packing_bound(c, 1) == 3
    assert list(capacity._packings(c, 1, 3)) == [[(0, 0b001), (2, 0b010)]]
    assert visited == [(0, 0b001), (2, 0b010)]


def test_first_fit_certificate_matches_oracle_and_graph():
    # 6x6 to 12x16 at five budgets, where first-fit, the search's first
    # packing, meets the packing bound or falls short of it; the oracle's
    # subset loop and unpruned search take seconds to minutes per channel
    # past 10 outputs, so it checks the shapes up to 8x10
    shapes = [(6, 6), (7, 8), (8, 10), (9, 12), (10, 14), (12, 16)]
    certified = []
    for nx, ny in shapes:
        for i in range(2):
            c = gen_random(nx, ny, seed=2950 + 10 * nx + i, denominator_bound=24)
            for eps in [F(0), F(1, 10), F(1, 3), F(1, 2), F(2, 3)]:
                threshold = c.min_mass(eps, 1)
                ceiling = capacity._packing_bound(c, threshold)
                first = next(capacity._packings(c, threshold, ceiling))
                certified.append(len(first) == ceiling)
                r = max_capacity(c, eps)
                if certified[-1]:
                    assert r.witness.codebook == tuple(sorted(x for x, _ in first))
                assert r.codebook_size == independence_number(build_max_graph(c, eps))[0]
                if ny <= 10:
                    assert r.codebook_size == oracle_packing(c, eps), (nx, ny, i, eps)
                assert max_error(c, r.witness) <= eps
    assert set(certified) == {True, False}


def test_first_fit_meeting_the_bound_runs_neither_engine(monkeypatch):
    # neither the curve's subset DP nor, where first-fit meets the bound or
    # the channel has at most 16 outputs, the conflict graph
    ran = []
    packing, build = capacity._packing, capacity.build_max_graph

    def spy_packing(*args, **kwargs):
        ran.append("dp")
        return packing(*args, **kwargs)

    def spy_build(*args, **kwargs):
        ran.append("graph")
        return build(*args, **kwargs)

    monkeypatch.setattr(capacity, "_packing", spy_packing)
    monkeypatch.setattr(capacity, "build_max_graph", spy_build)
    outcomes = set()
    channels = [gen_random(8, ny, seed=2330 + ny, denominator_bound=24) for ny in (8, 12, 17)]
    channels += [gen_random(8, 8, seed=1, denominator_bound=24),
                 gen_random(8, 17, seed=2330, denominator_bound=24)]
    for c in channels:
        for eps in [F(0), F(1, 10), F(1, 3), F(1, 2)]:
            threshold = c.min_mass(eps, 1)
            ceiling = capacity._packing_bound(c, threshold)
            first = next(capacity._packings(c, threshold, ceiling))
            ran.clear()
            engine, r = capacity._max_engine(c, eps)
            if len(first) == ceiling:
                assert engine == "search" and ran == []
                assert r.witness.codebook == tuple(sorted(x for x, _ in first))
            elif c.num_outputs <= 16:
                assert engine == "search" and ran == []
            else:
                assert engine == "graph" and ran == ["graph"]
            assert r.codebook_size <= ceiling and max_error(c, r.witness) <= eps
            outcomes.add((engine, len(first) == ceiling))
    assert outcomes == {("search", True), ("search", False), ("graph", False)}


def test_first_fit_takes_inputs_in_the_bound_order():
    # the search's first packing: at eps 1/2 row 1 needs one output and
    # row 0 two, so row 1 goes first and takes output 0, its heaviest; row
    # 0 then takes outputs 1 and 2, where in index order it would take 0
    # and 1 and leave row 1 nothing
    c = Channel([[2, 2, 1, 1], [4, 0, 0, 2]], 6)
    assert capacity._packing_bound(c, 3) == 2
    assert next(capacity._packings(c, 3, 2)) == [(1, 0b0001), (0, 0b0110)]
    assert list(capacity._packings(c, 3, 1)) == [[(1, 0b0001)]]
    # equal sizes go by index: row 0 takes output 0, its first heaviest
    c = Channel([[1, 1], [1, 1]], 2)
    assert list(capacity._packings(c, 1, 2)) == [[(0, 0b01), (1, 0b10)]]


def test_a_planted_first_fit_below_the_threshold_is_refused(monkeypatch):
    # the search plants a packing whose codeword 1 keeps output 1 alone,
    # 1/16 of its row
    c = Channel([[1] * 16] * 3, 16)
    monkeypatch.setattr(capacity, "_packings",
                        lambda c, threshold, ceiling: iter([[(0, 1), (1, 2)]]))
    with pytest.raises(RuntimeError, match=r"maximum witness has error 15/16 > eps = 1/2"):
        max_capacity(c, F(1, 2))


def test_wide_uniform_channels_answer_without_the_graph(monkeypatch):
    # the graph engine refuses all three: 1x22 has C(22, 11) minimal sets
    # in its row, 2x17 and 3x16 more than 2^15 nodes
    def refuse(*args, **kwargs):
        raise AssertionError("build_max_graph called on a certified channel")

    monkeypatch.setattr(capacity, "build_max_graph", refuse)
    for nx, ny, size in ((1, 22, 1), (2, 17, 1), (3, 16, 2)):
        c = Channel([[1] * ny] * nx, ny)
        r = max_capacity(c, F(1, 2))
        assert r.codebook_size == size and max_error(c, r.witness) <= F(1, 2)


def test_packing_stops_at_its_ceiling_with_an_admissible_witness():
    for n in (6, 8, 10):
        for i in range(2):
            c = gen_random(n, n, seed=2850 + 10 * n + i, denominator_bound=12)
            for eps in [F(1, 10), F(1, 3), F(1, 2), F(2, 3)]:
                threshold = c.min_mass(eps, 1)
                alpha = oracle_packing(c, eps)
                for ceiling in range(1, alpha + 2):
                    assert capacity._packing(c, threshold, ceiling) == min(ceiling, alpha)
                    packings = list(capacity._packings(c, threshold, ceiling))
                    sizes = [len(sets) for sets in packings]
                    assert sizes == sorted(set(sizes)) and sizes[-1] == min(ceiling, alpha)
                    for sets in packings:
                        scheme = scheme_from_disjoint_sets(
                            c, [(x, bitsets.outputs_of(d)) for x, d in sets])
                        assert max_error(c, scheme) <= eps


def test_packing_walks_no_set_past_its_ceiling(monkeypatch):
    # every output alone reaches the threshold, so each row has 4 minimal
    # sets, and the first of row 0 already fills level 1
    visited = []
    walk = capacity.minimal_sets

    def spy(c, x, threshold, *args):
        for mask in walk(c, x, threshold, *args):
            visited.append((x, mask))
            yield mask

    monkeypatch.setattr(capacity, "minimal_sets", spy)
    c = Channel([[1, 1, 1, 1], [1, 1, 1, 1]], 4)
    assert capacity._packing(c, 1, 1) == 1
    assert visited == [(0, 0b0001)]
    visited.clear()
    assert capacity._packing(c, 1, 2) == 2
    # row 1's first set, output 0, joins row 0's outputs 1, 2 and 3 at level 2
    assert visited == [(0, 0b0001), (0, 0b0010), (0, 0b0100), (0, 0b1000), (1, 0b0001)]


def typewriter(n: int) -> Channel:
    """x goes to x and x + 1 (mod n), each with probability 1/2."""
    return Channel([[int(y in (x, (x + 1) % n)) for y in range(n)] for x in range(n)], 2)


def check_avg_capacity(c: Channel, eps: Fraction) -> None:
    """Size and codebook as the exhaustive search finds them."""
    codebook = oracle_avg_codebook(c, eps)
    r = avg_capacity(c, eps)
    assert (r.codebook_size, r.witness.codebook) == (len(codebook), codebook)


def test_avg_codebook_oracle_matches_trying_every_codebook():
    # the oracle's pruned depth-first search against the literal loop over
    # every codebook, largest size first, each size in lexicographic order
    def literal(c: Channel, eps: Fraction) -> tuple[int, ...]:
        kept, whole = eps.denominator - eps.numerator, eps.denominator
        for k in range(c.num_inputs, 0, -1):
            for cb in combinations(range(c.num_inputs), k):
                if sum(map(max, zip(*[c.weights[x] for x in cb]))) * whole >= k * c.scale * kept:
                    return cb
        raise AssertionError("a singleton codebook keeps its whole row")

    channels = random_channels(180, seed0=3210, max_inputs=9, max_outputs=6, denominator_bound=6)
    channels += [typewriter(n) for n in range(3, 10)]
    for c in channels:
        for eps in EPS_GRID + [F(2, 3)]:
            assert oracle_avg_codebook(c, eps) == literal(c, eps)


def test_avg_capacity_matches_the_exhaustive_search_on_dense_channels():
    for n in range(8, 13):
        for i in range(2):
            c = gen_random(n, n, seed=2900 + 10 * n + i, denominator_bound=24)
            for eps in [F(0), F(1, 10), F(1, 3), F(1, 2), F(2, 3)]:
                check_avg_capacity(c, eps)


@pytest.mark.parametrize("n", range(8, 25))
def test_avg_capacity_matches_the_exhaustive_search_on_typewriters(n):
    # the answer is n // 2 codewords, 0, 2, 4, ...; the oracle's search
    # drops each prefix whose rows overlap as soon as they do
    check_avg_capacity(typewriter(n), F(0))
    assert avg_capacity(typewriter(n), F(0)).witness.codebook == tuple(range(0, n - 1, 2))


def test_fields_match_plain_arithmetic():
    # packed maxima, row sums and the first row at least a bound, against
    # the same on tuples, with and without padding fields and at the
    # largest values a field holds
    rng = random.Random(2902)
    for width in (1, 2, 3, 8, 9, 17, 33):
        for top in (1, 24, 10**9, 2**70):
            count = rng.randint(1, 9)
            one, every = bitsets.Fields(width, top), bitsets.Fields(width, top, count)
            rows = [[rng.choice((0, top, rng.randint(0, top))) for _ in range(width)]
                    for _ in range(count)]
            packed = [one.pack(row) for row in rows]
            first = rows[0]
            assert one.max(packed[-1], packed[0]) == one.pack(list(map(max, rows[-1], first)))
            assert one.sums(packed[-1]) == sum(rows[-1])
            kept = every.sums(every.max(packed[0] * every.ones, every.stack(packed)))
            expected = [sum(map(max, first, row)) for row in rows]
            assert every.values(kept, count) == expected
            assert every.values(kept, count - 1) == expected[:-1]  # a prefix of the rows
            for least in {0, 1, min(expected), max(expected), max(expected) + 1, width * top}:
                if least <= width * top:
                    assert every.first_at_least(kept, least) == next(
                        (i for i, mass in enumerate(expected) if mass >= least), -1)


def _random_rows(rng, nx, ny, scale, zero_columns=()):
    """nx random rows of ny non-negative ints summing to ``scale``, with
    every output in ``zero_columns`` at 0."""
    live = [y for y in range(ny) if y not in zero_columns]
    rows = []
    for _ in range(nx):
        cuts = sorted(rng.randint(0, scale) for _ in range(len(live) - 1))
        row = [0] * ny
        for y, a, b in zip(live, [0] + cuts, cuts + [scale]):
            row[y] = b - a
        rows.append(row)
    return rows


def _decimal(w):
    return f"{w // 10**9}.{w % 10**9:09d}"


@pytest.mark.parametrize("case", ["decimals", "one-output", "17-outputs", "33-outputs",
                                  "zero-columns"])
def test_packed_avg_search_matches_the_exhaustive_search(case):
    # field widths and row strides at their edges: nine-digit masses,
    # rows of one field, of 32 and 64 fields with all but 17 and 33 of
    # them padding, and outputs no input reaches
    rng = random.Random(2901)
    for trial in range(6):
        nx = rng.randint(1, 8)
        if case == "decimals":
            c = Channel.make([[_decimal(w) for w in row]
                              for row in _random_rows(rng, nx, rng.randint(2, 9), 10**9)])
        elif case == "one-output":
            c = Channel([[1]] * nx, 1)
        elif case == "zero-columns":
            ny = rng.randint(2, 12)
            zero = rng.sample(range(ny), rng.randint(1, ny - 1))
            c = Channel(_random_rows(rng, nx, ny, 24, zero), 24)
        else:
            ny = int(case.split("-")[0])
            scale = rng.choice([7, 24, 1000])
            c = Channel(_random_rows(rng, nx, ny, scale), scale)
        for eps in EPS_GRID + [F(1, 10**9), F(999999999, 10**9)]:
            check_avg_capacity(c, eps)


def test_avg_search_skips_sizes_past_the_column_maxima(monkeypatch):
    # 12 rows over 2 outputs whose column maxima sum to 3, over a scale of
    # 2: at eps 0 size k needs mass 2k, which from k = 4 on is past the 8
    # a 4-bit field holds below its guard bit; only sizes whose need the
    # column maxima reach are searched
    c = Channel([[1, 1]] * 6 + [[2, 0]] * 6, 2)
    tried = []
    search = capacity._first_codebook
    monkeypatch.setattr(capacity, "_first_codebook",
                        lambda packed, reach, k, need: tried.append(k) or search(
                            packed, reach, k, need))
    for eps in EPS_GRID + [F(1, 12), F(1, 11)]:
        tried.clear()
        check_avg_capacity(c, eps)
        total = sum(map(max, zip(*c.weights)))
        assert tried and all(c.min_mass(eps, k) <= total for k in tried)


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
    assert avg_error(c, scheme_from_disjoint_sets(c, [(n.input, n.outputs) for n in witness])) \
        <= F(1, 2)
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
    # the curve settles whole runs of thresholds from their ends' sizes
    # and from the packing bound; the oracle packs at every threshold.
    # Where every row is the same, the bound stays loose over long runs;
    # with no zero entry, the bound is 1 at eps 0.  Candidates are subset
    # sums: zero weights add none, and 6-digit decimals (scale 10^6) make
    # sums that rarely collide
    channels = [gen_random(n, n, seed=2600 + 10 * n + i, denominator_bound=12)
                for n in (6, 7, 8) for i in range(4)]
    channels += [Channel([c.weights[0]] * c.num_inputs, c.scale) for c in channels[::3]]
    channels.append(Channel([[3, 1, 2, 2], [1, 1, 4, 2], [2, 2, 2, 2], [1, 5, 1, 1]], 8))
    assert capacity._packing_bound(channels[-1], 8) == 1
    channels += [gen_random(5, 8, seed=2910 + i, denominator_bound=4) for i in range(3)]
    channels += [Channel([[0, 3, 0, 1, 2, 0]] * 4, 6), Channel([[1, 0, 0, 0]] * 3, 1)]
    rng = random.Random(2910)
    channels += [Channel.make([[f"{w // 10**6}.{w % 10**6:06d}" for w in row]
                               for row in _random_rows(rng, 4, 6, 10**6)]) for _ in range(2)]
    assert channels[-1].scale == 10**6
    for c in channels:
        assert capacity_curve(c, "max").breakpoints == oracle_curve_max(c)


def test_max_curve_solves_where_the_packing_bound_rises(monkeypatch):
    # below the first threshold whose packing bound exceeds a known size,
    # the size is known, so the curve solves there, not at a midpoint
    calls = []
    packing = capacity._packing

    def spy(c, threshold, ceiling):
        calls.append(threshold)
        return packing(c, threshold, ceiling)

    monkeypatch.setattr(capacity, "_packing", spy)
    for seed, solves in ((1, 6), (2, 9)):
        calls.clear()
        c = gen_random(8, 8, seed, 24)
        assert capacity_curve(c, "max").breakpoints == oracle_curve_max(c)
        assert len(calls) == solves


def test_max_curve_matches_oracle_where_the_packing_bound_is_loose():
    # every row needs output 0 from mass 5/8 up, so the packing bound
    # (set sizes only) says 2 at mass 6/8 and 4 at 5/8 and 2/8, where the
    # size stays 1 and 2
    c = Channel([[5, 1, 1, 1]] * 4, 8)
    assert capacity._packing_bound(c, 6) == 2 and capacity._packing_bound(c, 5) == 4
    assert capacity_curve(c, "max").breakpoints == oracle_curve_max(c) == (
        (F(0), 1), (F(5, 8), 2), (F(7, 8), 4))


def test_avg_curve_matches_oracle():
    # sizes that tie, or whose least error is not below every larger
    # size's, are not breakpoints; 9 to 12 inputs take codebook masks past
    # one byte, up to the curve's input limit
    rng = random.Random(2900)
    channels = [gen_random(1 + i % 8, rng.randint(1, 8), seed=2900 + i,
                           denominator_bound=1 + i // 8) for i in range(48)]
    channels += [gen_random(nx, rng.randint(1, 12), seed=2950 + 4 * nx + j,
                            denominator_bound=rng.choice((2, 5, 24)))
                 for nx in range(9, 13) for j in range(3)]
    gaps = 0
    for i, c in enumerate(channels):
        curve = capacity_curve(c, "avg")
        assert curve.breakpoints == oracle_curve_avg(c), i
        gaps += len(curve.breakpoints) < c.num_inputs
    assert gaps >= 10


def test_avg_curve_gives_a_tie_to_the_larger_size():
    # sizes 1 and 2 both fit at eps 0, then 3 at 1/9 and 4 at 1/4
    c = gen_random(4, 7, seed=6, denominator_bound=3)
    assert capacity_curve(c, "avg").breakpoints == oracle_curve_avg(c) == (
        (F(0), 2), (F(1, 9), 3), (F(1, 4), 4))


@pytest.mark.parametrize("shape", [(8, 14), (6, 16)])
def test_wide_max_curve_matches_engine_at_and_below_breakpoints(shape):
    # past the graph engine's old 12-output curve limit; candidate
    # thresholds are multiples of 1/scale, so t - 1/(2 scale) lies between
    # t and the candidate before it
    c = gen_random(*shape, seed=2800, denominator_bound=24)
    curve = capacity_curve(c, "max")
    for t, k in curve.breakpoints:
        assert curve.value_at(t) == max_capacity(c, t).codebook_size == k
        if t:
            below = t - F(1, 2 * c.scale)
            assert curve.value_at(below) == max_capacity(c, below).codebook_size < k


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

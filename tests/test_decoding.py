import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oneshotcap import (
    Channel,
    Scheme,
    avg_error,
    enumerate_min_decoding_sets,
    gen_random,
    max_error,
    optimal_avg_decoder,
    per_codeword_errors,
    scheme_from_disjoint_sets,
    simulate,
)
from oneshotcap.decoding import minimal_decoding_masks, minimal_sets
from corpus import random_channels
from oracles import oracle_minimal_sets, oracle_scheme_errors

F = Fraction

# codebook {1,2}; outputs 0 and 2 decode to 2, output 1 decodes to 1
FUNNEL3_SCHEME = Scheme(codebook=(1, 2), decoder=(2, 1, 2))


def random_scheme(c, rng):
    k = rng.randrange(1, c.num_inputs + 1)
    codebook = tuple(sorted(rng.sample(range(c.num_inputs), k)))
    decoder = tuple(rng.choice(codebook) for _ in range(c.num_outputs))
    return Scheme(codebook, decoder)


def test_funnel3_scheme_errors(funnel3):
    errors = per_codeword_errors(funnel3, FUNNEL3_SCHEME)
    assert errors == {1: F(1, 100), 2: F(0)}
    assert max_error(funnel3, FUNNEL3_SCHEME) == F(1, 100)
    assert avg_error(funnel3, FUNNEL3_SCHEME) == F(1, 200)


def test_identity_scheme_is_error_free(id3):
    s = Scheme((0, 1, 2), (0, 1, 2))
    assert max_error(id3, s) == 0
    assert avg_error(id3, s) == 0


def test_singleton_codebook_has_zero_avg(funnel3):
    s = Scheme((1,), (1, 1, 1))
    assert avg_error(funnel3, s) == 0
    assert max_error(funnel3, s) == 0


def test_errors_against_direct_summation_oracle():
    rng = random.Random(11)
    for c in random_channels(30, seed0=600):
        s = random_scheme(c, rng)
        expected = oracle_scheme_errors(c, s)
        assert per_codeword_errors(c, s) == expected
        assert max_error(c, s) == max(expected.values())
        assert avg_error(c, s) == sum(expected.values(), F(0)) / len(expected)


def test_avg_at_most_max_on_random_pairs():
    rng = random.Random(23)
    checked = 0
    for c in random_channels(100, seed0=700):
        s = random_scheme(c, rng)
        lo, hi = avg_error(c, s), max_error(c, s)
        assert 0 <= lo <= hi <= 1
        checked += 1
    assert checked == 100


def test_scheme_validation(funnel3):
    with pytest.raises(ValueError, match="nonempty"):
        Scheme((), ())
    with pytest.raises(ValueError, match="distinct"):
        Scheme((1, 1), (1,))
    with pytest.raises(ValueError, match="not in the codebook"):
        Scheme((0,), (0, 1))
    with pytest.raises(ValueError, match="decoder covers"):
        max_error(funnel3, Scheme((0,), (0, 0)))
    with pytest.raises(ValueError, match="out of range"):
        max_error(funnel3, Scheme((7,), (7, 7, 7)))


def test_admissibility(funnel3):
    assert max_error(funnel3, FUNNEL3_SCHEME) <= F(1, 100)
    assert max_error(funnel3, FUNNEL3_SCHEME) > F(1, 200)
    assert avg_error(funnel3, FUNNEL3_SCHEME) <= F(1, 200)
    assert max_error(funnel3, FUNNEL3_SCHEME) <= F(1)
    assert avg_error(funnel3, FUNNEL3_SCHEME) <= F(1)


# ---------------------------------------------------------------------------
# Minimal decoding sets
# ---------------------------------------------------------------------------

def test_min_sets_funnel3(funnel3):
    assert enumerate_min_decoding_sets(funnel3, 1, F(1, 100)) == [(1,)]
    assert enumerate_min_decoding_sets(funnel3, 2, F(1, 100)) == [(0, 2)]
    assert enumerate_min_decoding_sets(funnel3, 0, F(0)) == [(0,)]


def test_min_sets_deterministic_row_at_zero(id3):
    for x in range(3):
        assert enumerate_min_decoding_sets(id3, x, F(0)) == [(x,)]


def test_min_sets_match_subset_oracle():
    eps_grid = [F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(9, 10)]
    for c in random_channels(24, seed0=800, max_outputs=5):
        for x in range(c.num_inputs):
            for eps in eps_grid:
                assert enumerate_min_decoding_sets(c, x, eps) == \
                    oracle_minimal_sets(c, x, eps)


def test_min_sets_match_subset_oracle_on_wide_rows_with_zeros():
    # 6 to 10 outputs over denominators 4 to 8: rows with zero entries, and
    # rows where one weight repeats, so the walk's descending order has ties
    eps_grid = [F(0), F(1, 8), F(1, 3), F(1, 2), F(3, 4)]
    channels = [gen_random(2, ny, seed=820 + ny, denominator_bound=d)
                for ny in range(6, 11) for d in (4, 8)]
    assert sum(0 in row for c in channels for row in c.weights) >= 15
    for c in channels:
        for x in range(c.num_inputs):
            for eps in eps_grid:
                assert enumerate_min_decoding_sets(c, x, eps) == \
                    oracle_minimal_sets(c, x, eps)


def test_min_sets_order_on_a_two_byte_row():
    # 14 outputs: hundreds of sets of several sizes, most reaching past output 7
    c = gen_random(1, 14, seed=2, denominator_bound=24)
    for eps in (F(1, 3), F(1, 2)):
        sets = enumerate_min_decoding_sets(c, 0, eps)
        assert len(set(sets)) == len(sets) > 200
        assert len({len(d) for d in sets}) >= 4
        assert sets == sorted(sets, key=lambda d: (len(d), d))


def test_min_sets_walk_order():
    # the walk: heaviest first (output 1, then 2 and 3 by index, then 0),
    # depth first; the list form: by size, then lexicographically
    c = Channel([[1, 3, 2, 2]], 8)
    assert list(minimal_sets(c, 0, 4)) == [0b0110, 0b1010, 0b0011, 0b1100]
    assert minimal_decoding_masks(c, 0, 4) == [0b0011, 0b0110, 0b1010, 0b1100]


def test_min_sets_within_a_mask_are_the_sets_inside_it():
    rng = random.Random(840)
    for c in random_channels(24, seed0=840, max_outputs=8, denominator_bound=8):
        full = (1 << c.num_outputs) - 1
        for x in range(c.num_inputs):
            for eps in (F(0), F(1, 4), F(1, 2), F(3, 4)):
                threshold = c.min_mass(eps, 1)
                walked = list(minimal_sets(c, x, threshold))
                for within in {full, rng.randrange(full + 1), rng.randrange(full + 1)}:
                    assert list(minimal_sets(c, x, threshold, within=within)) == \
                        [d for d in walked if d & within == d]


def test_min_sets_reject_eps_one(funnel3):
    with pytest.raises(ValueError):
        enumerate_min_decoding_sets(funnel3, 0, F(1))


# ---------------------------------------------------------------------------
# Optimal average decoder
# ---------------------------------------------------------------------------

def test_optimal_decoder_identity(id3):
    s = optimal_avg_decoder(id3, (0, 1, 2))
    assert s.decoder == (0, 1, 2)
    assert avg_error(id3, s) == 0


def test_optimal_decoder_funnel3(funnel3):
    s = optimal_avg_decoder(funnel3, (1, 2))
    # output 0: P(0|2) = 2/100 beats P(0|1) = 1/100
    assert s.decoder == (2, 1, 2)
    assert avg_error(funnel3, s) == F(1, 200)


def test_optimal_decoder_ties_go_to_smallest():
    # identical rows: every column ties, so everything decodes to codeword 0
    c = gen_random(2, 1, seed=0, denominator_bound=1)
    assert c.rows == ((F(1),), (F(1),))
    assert optimal_avg_decoder(c, (0, 1)).decoder == (0,)


def test_optimal_decoder_dominates_random_decoders():
    rng = random.Random(5)
    for c in random_channels(10, seed0=900, max_inputs=4, max_outputs=4):
        for k in range(1, c.num_inputs + 1):
            codebook = tuple(range(k))
            best = avg_error(c, optimal_avg_decoder(c, codebook))
            for _ in range(200):
                dec = tuple(rng.choice(codebook) for _ in range(c.num_outputs))
                assert best <= avg_error(c, Scheme(codebook, dec))


def test_optimal_decoder_dominates_exhaustively():
    for c in random_channels(8, seed0=950, max_inputs=3, max_outputs=3):
        codebook = tuple(range(c.num_inputs))
        best = avg_error(c, optimal_avg_decoder(c, codebook))
        for dec in product(codebook, repeat=c.num_outputs):
            assert best <= avg_error(c, Scheme(codebook, dec))


# ---------------------------------------------------------------------------
# Scheme construction from disjoint sets
# ---------------------------------------------------------------------------

def test_scheme_from_disjoint_sets(funnel3):
    s = scheme_from_disjoint_sets(funnel3, [(1, (1,)), (2, (0, 2))])
    assert s == Scheme((1, 2), (2, 1, 2))
    # leftover outputs decode to the first codeword
    s2 = scheme_from_disjoint_sets(funnel3, [(1, (1,))])
    assert s2 == Scheme((1,), (1, 1, 1))
    with pytest.raises(ValueError, match="claimed by both"):
        scheme_from_disjoint_sets(funnel3, [(1, (0, 1)), (2, (0, 2))])
    with pytest.raises(ValueError, match="distinct"):
        scheme_from_disjoint_sets(funnel3, [(1, (1,)), (1, (2,))])


def test_scheme_json_roundtrip():
    s = Scheme((1, 2), (2, 1, 2))
    blob = json.dumps(s.to_json_dict())
    assert Scheme.from_json_dict(json.loads(blob)) == s


# ---------------------------------------------------------------------------
# Monte-Carlo simulation
# ---------------------------------------------------------------------------

def test_simulate_error_free_scheme(id3):
    report = simulate(id3, Scheme((0, 1, 2), (0, 1, 2)), trials=2000, seed=1)
    for stats in report.per_codeword:
        assert stats.errors == 0
    assert report.empirical_max == 0.0
    assert report.exact_max == 0


def test_simulate_concentrates_on_exact_error(funnel3):
    trials = 10**6
    report = simulate(funnel3, FUNNEL3_SCHEME, trials=trials, seed=99)
    by_codeword = {s.codeword: s for s in report.per_codeword}
    p = 1 / 100
    bound = 3 * (p * (1 - p) / trials) ** 0.5
    assert abs(by_codeword[1].error_rate - p) <= bound
    assert by_codeword[2].errors == 0  # exact error 0 can never fire


def test_simulate_deterministic(funnel3):
    a = simulate(funnel3, FUNNEL3_SCHEME, trials=5000, seed=7)
    b = simulate(funnel3, FUNNEL3_SCHEME, trials=5000, seed=7)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_simulate_validates_inputs(funnel3):
    with pytest.raises(ValueError):
        simulate(funnel3, FUNNEL3_SCHEME, trials=0, seed=1)


def test_simulate_huge_denominator_is_exact():
    # exact errors with denominators beyond 2^64 are drawn as Python ints
    p = F(1, 2**70)
    c = Channel.make([[1 - p, p], [F(0), F(1)]])
    s = Scheme((0, 1), (0, 1))
    a = simulate(c, s, trials=400, seed=3)
    assert a == simulate(c, s, trials=400, seed=3)
    assert all(st.errors in range(401) for st in a.per_codeword)
    # codeword 1 is deterministic, so it can never miss
    assert a.per_codeword[1].errors == 0


def test_simulate_rate_at_a_denominator_beyond_64_bits():
    error = F(1, 2) - F(1, 2**70)
    c = Channel.make([[1 - error, error], [F(0), F(1)]])
    trials = 20_000
    stats = simulate(c, Scheme((0, 1), (0, 1)), trials=trials, seed=11).per_codeword[0]
    assert stats.exact_error == error and error.denominator > 2**64
    p = float(error)
    assert abs(stats.error_rate - p) <= 4 * (p * (1 - p) / trials) ** 0.5


def test_simulate_runs_with_numpy_blocked():
    # the package and its CLI import and sample with the standard library only
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import oneshotcap, oneshotcap.cli\n"
        "c = oneshotcap.Channel.make([['1/2', '1/2'], [0, 1]])\n"
        "s = oneshotcap.Scheme((0, 1), (0, 1))\n"
        "r = oneshotcap.simulate(c, s, trials=100, seed=1)\n"
        "print(r.exact_max, 0 < r.per_codeword[0].errors < 100)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1/2 True"


def test_simulate_memory_does_not_grow_with_trials(funnel3):
    simulate(funnel3, FUNNEL3_SCHEME, trials=10, seed=1)  # warm caches
    tracemalloc.start()
    try:
        simulate(funnel3, FUNNEL3_SCHEME, trials=200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024

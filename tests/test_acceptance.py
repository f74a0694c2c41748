"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
value is checked exactly (capacity sizes are integers, thresholds exact
rationals) except the Monte-Carlo criterion, whose tolerance is the stated
concentration bound.  Each criterion also enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

from oneshotcap import (
    FunnelSpec,
    avg_capacity,
    brute_force_capacity,
    build_avg_graph,
    funnel_closed_form,
    gen_funnel,
    gen_random_cubic,
    identity_channel,
    max_capacity,
    named_cubic_graphs,
    simulate,
    sparse_number,
    verify_reduction,
)
from corpus import random_channels
from oracles import oracle_packing

F = Fraction

EPS_GRID = [F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(9, 10)]

_FUNNEL3 = gen_funnel(FunnelSpec.make(3, [F(1, 100), F(1, 50)]))


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _report(num: int, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {status} ({elapsed:.2f}s / budget {budget:.0f}s): {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_funnel3_capacity_steps():
    with _Timer() as t:
        below = [F(0), F(1, 200), F(99, 10000)]
        middle = [F(1, 100), F(3, 200), F(199, 10000)]
        above = [F(1, 50), F(1, 10), F(1, 2), F(1)]
        ok = (
            all(max_capacity(_FUNNEL3, e).codebook_size == 1 for e in below)
            and all(max_capacity(_FUNNEL3, e).codebook_size == 2 for e in middle)
            and all(max_capacity(_FUNNEL3, e).codebook_size == 3 for e in above)
        )
    _report(1, ok, t.elapsed, 1.0,
            "funnel3 capacity k steps 1->2->3 exactly at 1/100 and 1/50")


def test_criterion_2_closed_form_equals_search():
    rng = random.Random(12021)
    with _Timer() as t:
        ok = True
        for _ in range(50):
            n = rng.randrange(2, 13)
            leaks: set[Fraction] = set()
            while len(leaks) < n - 1:
                leaks.add(F(rng.randrange(1, 97), 96))
            spec = FunnelSpec(n, tuple(sorted(leaks)))
            channel = gen_funnel(spec)
            probes = [F(rng.randrange(0, 1001), 1000) for _ in range(6)]
            probes += [rng.choice(spec.e) for _ in range(4)]  # exact thresholds
            for eps in probes:
                if funnel_closed_form(spec, eps) != max_capacity(channel, eps).codebook_size:
                    ok = False
    _report(2, ok, t.elapsed, 30.0,
            "closed form == packing engine on 50 random funnel specs x 10 eps")


def test_criterion_3_max_metric_three_way_equivalence():
    with _Timer() as t:
        ok = True
        count = 0
        for c in random_channels(100, seed0=5000):
            for eps in EPS_GRID:
                k_graph = max_capacity(c, eps).codebook_size
                k_pack = oracle_packing(c, eps)
                k_brute = brute_force_capacity(c, "maximum", eps).codebook_size
                count += 1
                if not (k_graph == k_pack == k_brute):
                    ok = False
    _report(3, ok, t.elapsed, 300.0,
            f"graph alpha == set packing == brute force on {count} max-metric instances")


def test_criterion_4_avg_metric_three_way_equivalence():
    with _Timer() as t:
        ok = True
        count = 0
        for c in random_channels(40, seed0=1000, square_ish=True):
            for eps in EPS_GRID:
                k_search = avg_capacity(c, eps).codebook_size
                g = build_avg_graph(c)
                k_sparse, _ = sparse_number(g, eps)
                k_brute = brute_force_capacity(c, "average", eps).codebook_size
                count += 1
                if not (k_search == k_sparse == k_brute):
                    ok = False
    _report(4, ok, t.elapsed, 600.0,
            f"codebook search == sparse number == brute force on {count} avg-metric instances")


def test_criterion_5_reduction_corpus():
    with _Timer() as t:
        graphs = list(named_cubic_graphs().values())
        for i in range(10):
            graphs.append(gen_random_cubic(4 + 2 * (i % 6), seed=3000 + i))
        ok = all(
            verify_reduction(g, eps).agree
            for g in graphs
            for eps in [F(0), F(1, 4), F(33, 100)]
        )
    _report(5, ok, t.elapsed, 120.0,
            "graph alpha == channel capacity for 5 named + 10 random cubic graphs")


def test_criterion_6_metric_separation():
    with _Timer() as t:
        k_avg = avg_capacity(_FUNNEL3, F(1, 200)).codebook_size
        k_max = max_capacity(_FUNNEL3, F(1, 200)).codebook_size
        k_avg_brute = brute_force_capacity(_FUNNEL3, "average", F(1, 200)).codebook_size
        k_max_brute = brute_force_capacity(_FUNNEL3, "maximum", F(1, 200)).codebook_size
        ok = (k_avg, k_max) == (2, 1) and (k_avg_brute, k_max_brute) == (2, 1)
    _report(6, ok, t.elapsed, 60.0,
            "funnel3 at eps=1/200: avg k=2 > max k=1, brute force concurring")


def test_criterion_7_monotonicity_and_ordering():
    with _Timer() as t:
        ok = True
        grid = sorted(EPS_GRID)
        for c in random_channels(100, seed0=5000):
            prev_max = prev_avg = 0
            for eps in grid:
                k_max = max_capacity(c, eps).codebook_size
                k_avg = avg_capacity(c, eps).codebook_size
                if k_max < prev_max or k_avg < prev_avg or k_avg < k_max:
                    ok = False
                prev_max, prev_avg = k_max, k_avg
    _report(7, ok, t.elapsed, 300.0,
            "k_max and k_avg non-decreasing in eps, k_avg >= k_max, over the corpus")


def test_criterion_8_monte_carlo_witnesses():
    trials = 10**5
    with _Timer() as t:
        witnesses = []
        for eps in [F(1, 200), F(1, 100), F(1, 50)]:
            witnesses.append((_FUNNEL3, max_capacity(_FUNNEL3, eps).witness))
            witnesses.append((_FUNNEL3, avg_capacity(_FUNNEL3, eps).witness))
        id3 = identity_channel(3)
        witnesses.append((id3, max_capacity(id3, F(0)).witness))
        witnesses.append((id3, avg_capacity(id3, F(0)).witness))
        for c in random_channels(16, seed0=1000, square_ish=True):
            for eps in [F(1, 10), F(1, 3)]:
                witnesses.append((c, max_capacity(c, eps).witness))
                witnesses.append((c, avg_capacity(c, eps).witness))

        ok = True
        checked = 0
        for sim_seed, (c, scheme) in enumerate(witnesses):
            report = simulate(c, scheme, trials=trials, seed=90000 + sim_seed)
            for stats in report.per_codeword:
                p = float(stats.exact_error)
                bound = 4 * (p * (1 - p) / trials) ** 0.5 + 1e-5
                if abs(stats.error_rate - p) > bound:
                    ok = False
                checked += 1
    _report(8, ok, t.elapsed, 120.0,
            f"{checked} per-codeword error rates within 4 sigma + 1e-5 of exact values")

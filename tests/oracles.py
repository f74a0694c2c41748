"""Independent brute-force oracles used across the test suite.

Everything here recomputes expected values from first principles, sharing
as little as possible with the library paths under test: subset loops
instead of pruned searches, per-pair weight sums instead of the collapsed
escape-sum form, literal definition checks instead of solver output.
"""

from fractions import Fraction
from itertools import combinations, product
from math import prod

from oneshotcap import Channel, Scheme

ZERO = Fraction(0)
ONE = Fraction(1)


def subset_mass(row, outputs) -> Fraction:
    return sum((row[y] for y in outputs), ZERO)


def oracle_minimal_sets(c: Channel, x: int, eps: Fraction) -> list[tuple[int, ...]]:
    """All inclusion-minimal output sets with mass >= 1-eps, by subset loop."""
    ny = c.num_outputs
    row = c.row(x)
    threshold = ONE - eps
    qualifying = []
    for mask in range(1 << ny):
        outputs = tuple(y for y in range(ny) if mask >> y & 1)
        if subset_mass(row, outputs) >= threshold:
            qualifying.append(set(outputs))
    minimal = [
        s for s in qualifying
        if not any(t < s for t in qualifying)
    ]
    return sorted((tuple(sorted(s)) for s in minimal), key=lambda t: (len(t), t))


def oracle_packing(c: Channel, eps: Fraction) -> int:
    """Max-error codebook size by packing pairwise-disjoint minimal sets.

    Depth-first over inputs, each taking one of its minimal sets or none,
    pruned only by "picked so far plus inputs left"; no conflict graph.
    At eps = 1 every row's only minimal set is the empty set.
    """
    nx = c.num_inputs
    sets = [[frozenset(d) for d in oracle_minimal_sets(c, x, eps)] for x in range(nx)]
    best = 0

    def dfs(x: int, used: frozenset, count: int) -> None:
        nonlocal best
        if count + (nx - x) <= best:
            return
        if x == nx:
            best = count
            return
        for d in sets[x]:
            if not d & used:
                dfs(x + 1, used | d, count + 1)
        dfs(x + 1, used, count)

    dfs(0, frozenset(), 0)
    return best


def oracle_curve_max(c: Channel) -> tuple[tuple[Fraction, int], ...]:
    """Max-metric curve breakpoints: ``oracle_packing`` at every candidate
    threshold 1 - mass(D), D any output subset of any row, in increasing
    order, keeping each threshold where the size grows.  No conflict graph,
    no bisection."""
    ny = c.num_outputs
    thresholds = {
        ONE - subset_mass(c.row(x), [y for y in range(ny) if mask >> y & 1])
        for x in range(c.num_inputs) for mask in range(1 << ny)
    }
    breakpoints = []
    for eps in sorted(thresholds):
        k = oracle_packing(c, eps)
        if not breakpoints or k > breakpoints[-1][1]:
            breakpoints.append((eps, k))
    return tuple(breakpoints)


def oracle_scheme_errors(c: Channel, s: Scheme) -> dict[int, Fraction]:
    """Per-codeword errors by explicit pre-image summation."""
    errors = {}
    for x in s.codebook:
        captured = ZERO
        for y in range(c.num_outputs):
            if s.decoder[y] == x:
                captured += c.prob(x, y)
        errors[x] = ONE - captured
    return errors


def oracle_mis(adjacency_masks) -> int:
    """Maximum independent set size by looping over every vertex subset."""
    n = len(adjacency_masks)
    assert n <= 16, "subset-loop oracle limited to 16 vertices"
    best = 0
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if mask >> v & 1 and adjacency_masks[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def oracle_capacity(c: Channel, metric: str, eps: Fraction) -> int:
    """Definition-level capacity: enumerate codebooks and total decoders."""
    nx, ny = c.num_inputs, c.num_outputs
    best = 0
    for k in range(1, nx + 1):
        for cb in combinations(range(nx), k):
            for dec in product(cb, repeat=ny):
                errors = oracle_scheme_errors(c, Scheme(cb, dec))
                if metric == "maximum":
                    err = max(errors.values())
                else:
                    err = sum(errors.values(), ZERO) / len(errors)
                if err <= eps:
                    best = max(best, k)
                    break
    return best


def oracle_avg_graph(c: Channel) -> list[tuple[int, tuple[int, ...], Fraction]]:
    """(input, outputs, escape) of every average-one-shot graph node: each
    output subset with positive mass, by subset loop, listed by input, then
    size, then output tuple; the escape is 1 minus the summed Fractions."""
    ny = c.num_outputs
    nodes = []
    for x in range(c.num_inputs):
        for mask in range(1, 1 << ny):
            outputs = tuple(y for y in range(ny) if mask >> y & 1)
            mass = subset_mass(c.row(x), outputs)
            if mass > 0:
                nodes.append((x, outputs, ONE - mass))
    return sorted(nodes, key=lambda n: (n[0], len(n[1]), n[1]))


def oracle_sparse_number(graph, eps: Fraction) -> int:
    """Largest eps-sparse node set by a loop over node sets with literal pair
    sums.  Two nodes of one input are joined by an infinite edge, so the loop
    takes at most one node per input; every set it skips holds such an edge."""
    choices: dict[int, list] = {}
    for i, node in enumerate(graph.nodes):
        choices.setdefault(node.input, [None]).append(i)
    assert prod(len(c) for c in choices.values()) <= 1 << 20, \
        "set-loop oracle limited to 2^20 node sets"
    best = 0
    for pick in product(*choices.values()):
        indices = [i for i in pick if i is not None]
        k = len(indices)
        if k <= best:
            continue
        total = ZERO
        infinite = False
        for a in range(k):
            for b in range(a + 1, k):
                w = graph.edge_weight(indices[a], indices[b])
                if w is None:
                    infinite = True
                    break
                total += w
            if infinite:
                break
        if not infinite and total <= eps * k * (k - 1):
            best = k
    return best

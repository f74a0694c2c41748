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
    row = c.rows[x]
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


def oracle_avg_codebook(c: Channel, eps: Fraction) -> tuple[int, ...]:
    """The avg-metric codebook ``avg_capacity`` must return: the first
    admissible one, largest size first, then in lexicographic order.  A
    codebook of size k is admissible when its pointwise-argmax decoder
    keeps mass >= k * (1 - eps), tested cross-multiplied over eps's
    denominator.

    Each size is a lexicographic depth-first search over prefixes, kept as
    tuples of column maxima.  A prefix is dropped only when no completion
    can be admissible: when its mass plus r * scale falls short, r the
    inputs still to choose, since a codeword adds at most its row's total;
    or when the column maxima of the prefix and of every later input fall
    short, since the kept mass only grows as inputs join.  So the
    codebook is the one trying every codebook in order finds."""
    nx, ny, scale, weights = c.num_inputs, c.num_outputs, c.scale, c.weights
    kept, whole = eps.denominator - eps.numerator, eps.denominator
    # later[x]: the column maxima of rows x, x + 1, ...
    later = [(0,) * ny]
    for row in reversed(weights):
        later.append(tuple(map(max, later[-1], row)))
    later.reverse()

    def first(k: int, need: int, start: int, cols: tuple, prefix: tuple):
        r = k - len(prefix)
        mass = sum(cols)
        if r == 0:
            return prefix if mass * whole >= need else None
        if (mass + r * scale) * whole < need:
            return None
        if sum(map(max, cols, later[start])) * whole < need:
            return None
        for x in range(start, nx - r + 1):
            found = first(k, need, x + 1, tuple(map(max, cols, weights[x])), prefix + (x,))
            if found is not None:
                return found
        return None

    for k in range(nx, 0, -1):
        found = first(k, k * scale * kept, 0, (0,) * ny, ())
        if found is not None:
            return found
    raise AssertionError("a singleton codebook keeps its whole row")


def oracle_curve_max(c: Channel) -> tuple[tuple[Fraction, int], ...]:
    """Max-metric curve breakpoints: ``oracle_packing`` at every candidate
    threshold 1 - mass(D), D any output subset of any row, in increasing
    order, keeping each threshold where the size grows.  No conflict graph,
    no bisection."""
    ny = c.num_outputs
    thresholds = {
        ONE - subset_mass(c.rows[x], [y for y in range(ny) if mask >> y & 1])
        for x in range(c.num_inputs) for mask in range(1 << ny)
    }
    breakpoints = []
    for eps in sorted(thresholds):
        k = oracle_packing(c, eps)
        if not breakpoints or k > breakpoints[-1][1]:
            breakpoints.append((eps, k))
    return tuple(breakpoints)


def oracle_curve_avg(c: Channel) -> tuple[tuple[Fraction, int], ...]:
    """Avg-metric curve breakpoints: each size's least mean error of the
    pointwise-argmax decoder over every codebook of that size, in
    increasing order, keeping each error where the size grows; on equal
    errors the larger size."""
    nx, ny = c.num_inputs, c.num_outputs
    sizes = {}
    for k in range(1, nx + 1):
        kept = max(sum((max(c.rows[x][y] for x in cb) for y in range(ny)), ZERO)
                   for cb in combinations(range(nx), k))
        sizes[ONE - kept / k] = k
    breakpoints = []
    for eps in sorted(sizes):
        if not breakpoints or sizes[eps] > breakpoints[-1][1]:
            breakpoints.append((eps, sizes[eps]))
    return tuple(breakpoints)


def oracle_scheme_errors(c: Channel, s: Scheme) -> dict[int, Fraction]:
    """Per-codeword errors by explicit pre-image summation."""
    errors = {}
    for x in s.codebook:
        captured = ZERO
        for y in range(c.num_outputs):
            if s.decoder[y] == x:
                captured += c.rows[x][y]
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


def is_independent_in(g, vertices) -> bool:
    """Whether no edge of the graph joins two of these vertices."""
    chosen = set(vertices)
    return not any(u in chosen and v in chosen for u, v in g.edges)


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
            mass = subset_mass(c.rows[x], outputs)
            if mass > 0:
                nodes.append((x, outputs, ONE - mass))
    return sorted(nodes, key=lambda n: (n[0], len(n[1]), n[1]))


def oracle_sparse_number(graph, eps: Fraction) -> int:
    """Largest eps-sparse node set by a loop over node sets with literal pair
    sums.  Two nodes of one input are joined by an infinite edge, so the loop
    takes at most one node per input; every set it skips holds such an edge."""
    choices: dict[int, list] = {}
    for node in graph.nodes:
        choices.setdefault(node.input, [None]).append(node)
    assert prod(len(c) for c in choices.values()) <= 1 << 20, \
        "set-loop oracle limited to 2^20 node sets"
    best = 0
    for pick in product(*choices.values()):
        nodes = [n for n in pick if n is not None]
        k = len(nodes)
        if k <= best:
            continue
        total = ZERO
        infinite = False
        for a in range(k):
            for b in range(a + 1, k):
                w = graph.edge_weight(nodes[a], nodes[b])
                if w is None:
                    infinite = True
                    break
                total += w
            if infinite:
                break
        if not infinite and total <= eps * k * (k - 1):
            best = k
    return best

"""Independent checks of the program's answers.

Everything here is recomputed in exact ``Fraction`` arithmetic from the
input file text the benchmark wrote; nothing calls into ``oneshotcap``, so
a defect in the program's own error metrics cannot hide one in its
engines.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb

from corpus import Op

ONE = Fraction(1)
HALF = Fraction(1, 2)
_MAXIMALITY_CODEBOOKS = 5000  # skip the avg maximality check above this many


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _content_lines(text: str) -> list[str]:
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def channel_rows(text: str) -> list[list[Fraction]]:
    lines = _content_lines(text)
    _, nx, ny = lines[0].split()
    rows = [[Fraction(tok) for tok in line.split()] for line in lines[1:]]
    if len(rows) != int(nx) or any(len(r) != int(ny) or sum(r) != ONE for r in rows):
        raise ValueError("malformed channel text")
    return rows


def graph_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges, sorted as (min, max); edge i is output i of
    the reduction channel."""
    lines = _content_lines(text)
    _, nv, _ = lines[0].split()
    edges = sorted(
        (min(u, v), max(u, v))
        for u, v in (map(int, line.split()) for line in lines[1:])
    )
    return int(nv), edges


def _scheme(rows, codebook, decoder) -> None:
    _require(len(codebook) >= 1, "empty codebook")
    _require(len(set(codebook)) == len(codebook), "codebook repeats an input")
    _require(all(0 <= x < len(rows) for x in codebook), "codebook index out of range")
    _require(len(decoder) == len(rows[0]), "decoder does not cover every output")
    _require(set(decoder) <= set(codebook), "decoder maps to a non-codeword")


def _errors(rows, codebook, decoder) -> list[Fraction]:
    captured = {x: Fraction(0) for x in codebook}
    for y, x in enumerate(decoder):
        captured[x] += rows[x][y]
    return [ONE - captured[x] for x in codebook]


def _within(metric: str, errors: list[Fraction], eps: Fraction) -> bool:
    if metric == "max":
        return max(errors) <= eps
    return sum(errors) <= eps * len(errors)


def check_capacity(op: Op, text: str, stdout: str) -> int:
    lines = stdout.splitlines()
    _require(len(lines) == 2, f"expected 2 output lines, got {len(lines)}")
    head = dict(field.split("=", 1) for field in lines[0].split())
    k = int(head["codebook_size"])
    data = json.loads(lines[1])
    _require(data["codebook_size"] == k, "JSON size differs from the summary line")
    _require(Fraction(data["epsilon"]) == op.eps, "result is for another epsilon")
    rows = channel_rows(text)
    codebook = data["witness"]["codebook"]
    decoder = data["witness"]["decoder"]
    _scheme(rows, codebook, decoder)
    _require(len(codebook) == k, f"witness has {len(codebook)} codewords, claim is {k}")
    _require(_within(op.metric, _errors(rows, codebook, decoder), op.eps),
             f"witness breaks the {op.metric} error budget")
    if op.metric == "avg" and k < len(rows) and comb(len(rows), k + 1) <= _MAXIMALITY_CODEBOOKS:
        # The pointwise-argmax decoder is avg-optimal for a fixed codebook,
        # so no codebook one larger may capture (k+1)(1-eps) in total.
        for cb in combinations(range(len(rows)), k + 1):
            captured = sum(max(rows[x][y] for x in cb) for y in range(len(rows[0])))
            _require(captured < (k + 1) * (ONE - op.eps),
                     f"codebook {list(cb)} beats the claimed avg capacity {k}")
    return k


def check_reduction(op: Op, text: str, stdout: str) -> int:
    data = json.loads(stdout)
    nv, edges = graph_edges(text)
    alpha, k = data["graph_alpha"], data["channel_capacity_k"]
    _require(data["agree"] is True and alpha == k,
             f"engines disagree: graph alpha {alpha}, channel k {k}")
    adjacent = set(edges)

    def independent(vertices) -> bool:
        vs = sorted(vertices)
        return all((u, v) not in adjacent for i, u in enumerate(vs) for v in vs[i + 1:])

    gw = data["graph_witness"]
    _require(len(set(gw)) == alpha and all(0 <= v < nv for v in gw),
             "graph witness has the wrong size")
    _require(independent(gw), "graph witness is not independent")
    codebook = data["channel_witness"]["codebook"]
    decoder = data["channel_witness"]["decoder"]
    third = Fraction(1, 3)
    rows = [[third if v in e else Fraction(0) for e in edges] for v in range(nv)]
    _scheme(rows, codebook, decoder)
    _require(len(codebook) == k, "channel witness has the wrong size")
    _require(independent(codebook), "channel witness is not independent")
    _require(_within("max", _errors(rows, codebook, decoder), op.eps),
             "channel witness breaks the error budget")
    return k


def check_curve(op: Op, text: str, stdout: str) -> tuple[tuple[Fraction, int], ...]:
    lines = stdout.splitlines()
    _require(lines[0] == "epsilon,codebook_size,capacity_bits", "bad CSV header")
    points = tuple(
        (Fraction(eps), int(k)) for eps, k, _ in (line.split(",") for line in lines[1:])
    )
    _require(bool(points) and points[0][0] == 0, "curve does not start at 0")
    for (t0, k0), (t1, k1) in zip(points, points[1:]):
        _require(t0 < t1 and k0 < k1, "curve is not strictly increasing")
    nx = len(channel_rows(text))
    _require(points[0][1] >= 1 and points[-1][1] <= nx and points[-1][0] <= 1,
             "curve leaves the possible range")
    return points


def check_sparse(op: Op, text: str, stdout: str) -> int:
    lines = stdout.splitlines()
    _require(len(lines) == 2 and lines[0].startswith("sparse_number="), "bad output")
    k = int(lines[0].split("=", 1)[1])
    pairs = [(x, tuple(ys)) for x, ys in json.loads(lines[1])]
    rows = channel_rows(text)
    _require(len(pairs) == k, f"witness has {len(pairs)} nodes, claim is {k}")
    inputs = [x for x, _ in pairs]
    _require(len(set(inputs)) == k and all(0 <= x < len(rows) for x in inputs),
             "witness inputs repeat or are out of range")
    owner = {}
    for x, ys in pairs:
        _require(len(ys) >= 1 and all(0 <= y < len(rows[0]) for y in ys),
                 "witness output set is empty or out of range")
        for y in ys:
            _require(y not in owner, "witness output sets overlap")
            owner[y] = x
    codebook = sorted(inputs)
    decoder = [owner.get(y, codebook[0]) for y in range(len(rows[0]))]
    _require(_within("avg", _errors(rows, codebook, decoder), op.eps),
             "witness scheme breaks the average error budget")
    if k >= 2:
        escapes = sum(ONE - sum(rows[x][y] for y in ys) for x, ys in pairs)
        _require(escapes <= op.eps * k, "witness escape sum exceeds eps * k")
    return k


CHECKS = {
    "capacity": check_capacity,
    "reduction": check_reduction,
    "curve": check_curve,
    "sparse": check_sparse,
}


def curve_value(points, eps: Fraction) -> int:
    return max(k for t, k in points if t <= eps)


def cross_check(ops: list[Op], answers: dict[str, object]) -> dict[str, str]:
    """Checks between answers of different ops on the same instance.

    Returns op key -> reason for every op involved in a disagreement.  Ops
    that failed on their own have no answer and are skipped.
    """
    failures: dict[str, str] = {}
    by_instance: dict[str, list[Op]] = {}
    for op in ops:
        if op.key in answers:
            by_instance.setdefault(op.instance, []).append(op)

    def fail(reason: str, *involved: Op) -> None:
        for op in involved:
            failures.setdefault(op.key, reason)

    for group in by_instance.values():
        sizes = {(op.metric, op.engine, op.eps): op for op in group if op.kind == "capacity"}
        for (metric, engine, eps), op in sizes.items():
            if metric != "max" or engine != "packing":
                continue
            k = answers[op.key]
            graph = sizes.get(("max", "graph", eps))
            if graph is not None and answers[graph.key] != k:
                fail(f"engines disagree: packing {k}, graph {answers[graph.key]}", op, graph)
            avg = sizes.get(("avg", "packing", eps))
            if avg is not None and answers[avg.key] < k:
                fail(f"avg capacity {answers[avg.key]} is below max capacity {k}", op, avg)
        curves = {op.metric: op for op in group if op.kind == "curve"}
        sparse = [op for op in group if op.kind == "sparse"]
        if "avg" in curves:
            avg_points = answers[curves["avg"].key]
            if "max" in curves:
                max_points = answers[curves["max"].key]
                for t, _ in avg_points + max_points:
                    if curve_value(max_points, t) > curve_value(avg_points, t):
                        fail(f"max curve is above avg curve at {t}", curves["max"], curves["avg"])
            for op in sparse:
                avg_k = curve_value(avg_points, op.eps)
                if answers[op.key] > avg_k:
                    fail(f"sparse number is above avg capacity at {op.eps}", op, curves["avg"])
                # Below eps 1/2, a two-codeword code within eps yields a sparse
                # pair: give each output to the input with more mass on it.
                if op.eps < HALF and answers[op.key] < min(avg_k, 2):
                    fail(f"avg capacity {avg_k} at {op.eps} implies a sparse pair",
                         op, curves["avg"])
        sparse.sort(key=lambda op: op.eps)
        for lo, hi in zip(sparse, sparse[1:]):
            if answers[lo.key] > answers[hi.key]:
                fail("sparse number decreases as eps grows", lo, hi)
    return failures

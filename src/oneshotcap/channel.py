"""Discrete channels with exact rational transition probabilities.

A channel is an |X| x |Y| matrix of transition probabilities P(Y=y|X=x),
held as integer ``weights`` over one common ``scale`` in lowest terms:
P(y|x) = weights[x][y] / scale.  The searches compare those integer masses
with ``min_mass(eps, k)``, so every admissibility test is exact; ``rows`` is
a `fractions.Fraction` view built when first read.  Binary floating point
never enters any capacity-relevant decision: capacity is a step function of
the error budget and jumps exactly at rational thresholds, so a float
epsilon could land on the wrong side of a breakpoint.

The module also provides the channel generators used throughout the test
suite and the demos:

* ``gen_funnel``       -- the "funnel" family: symbol 0 is noiseless, every
  other symbol i leaks into output 0 with probability e_i.  Its capacity
  has a simple closed form (see ``capacity.funnel_closed_form``).
* ``gen_from_cubic_graph`` -- the channel derived from a 3-regular graph
  (inputs = vertices, outputs = edges, mass 1/3 on incident edges), the
  instance family behind the hardness reduction.
* ``gen_random``       -- seeded random channels with exact row sums.

File formats (UTF-8 text, ``#`` starts a comment):

    channel <num_inputs> <num_outputs>
    <p> <p> ... <p>          one line per input row; p is "p/q" or a
    ...                      finite decimal such as 0.01

    graph <num_vertices> <num_edges>
    <u> <v>                  one 0-indexed edge per line
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

# "p/q" with integer p, q, or a plain finite decimal (no signs, no
# exponents); the lookahead makes a decimal start with a digit or ".<digit>".
_PROB_TOKEN = re.compile(r"^(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?)$")


class ChannelFormatError(ValueError):
    """Malformed channel or graph file, with a row/column location."""


def _prob_ratio(token: str, where: str) -> tuple[int, int]:
    """The (numerator, denominator) that ``parse_prob`` reduces, checked."""
    token = token.strip()
    match = _PROB_TOKEN.match(token)
    if match is None:
        raise ChannelFormatError(
            f"{where}: {token!r} is not a p/q fraction or finite decimal"
        )
    num, den, whole, digits = match.groups()
    if den is not None:
        n, d = int(num), int(den)
        if d == 0:
            raise ChannelFormatError(f"{where}: {token!r} has a zero denominator")
    else:
        digits = digits or ""
        n, d = int(whole + digits), 10 ** len(digits)
    if n > d:
        raise ChannelFormatError(f"{where}: {token!r} is outside [0, 1]")
    return n, d


def parse_prob(token: str, where: str = "probability") -> Fraction:
    """Parse "p/q" or a finite decimal into an exact Fraction in [0, 1].

    Decimals are converted in base 10 (d digits after the point become a
    numerator over 10^d); they are never routed through binary floats.
    """
    return Fraction(*_prob_ratio(token, where))


def _as_ratio(value, where: str) -> tuple[int, int]:
    """The (numerator, denominator) that ``as_prob`` reduces, checked."""
    if isinstance(value, str):
        return _prob_ratio(value, where)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(
            f"{where}: {value!r} is a {type(value).__name__}, "
            f"not an int, a Fraction or a str"
        )
    n, d = value.as_integer_ratio()
    if not (0 <= n <= d):
        raise ValueError(f"{where}: {value!r} is outside [0, 1]")
    return n, d


def as_prob(value, where: str = "probability") -> Fraction:
    """An int, a Fraction or a ``parse_prob`` string as an exact Fraction
    in [0, 1].  Floats and bools raise ValueError naming their type: a
    binary float cannot say which side of a rational threshold it means.
    """
    return Fraction(*_as_ratio(value, where))


def _format_ratio(n: int, d: int) -> str:
    """Render n/d in lowest terms as "p/q", or "p" when the denominator is 1."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_prob(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return _format_ratio(value.numerator, value.denominator)


@dataclass(frozen=True)
class Channel:
    """Immutable transition matrix, indexed [input][output]: P(y|x) =
    weights[x][y] / scale in lowest terms, so ``scale`` is the lcm of the
    reduced denominators and equal channels compare and hash equal."""

    weights: tuple[tuple[int, ...], ...]
    scale: int

    def __post_init__(self):
        scale = self.scale
        if not isinstance(scale, int) or scale < 1:
            raise ValueError(f"scale must be a positive int, got {scale!r}")
        weights = tuple(map(tuple, self.weights))
        if not weights:
            raise ValueError("channel needs at least one input")
        width = len(weights[0])
        if width == 0:
            raise ValueError("channel needs at least one output")
        for x, row in enumerate(weights):
            if len(row) != width:
                raise ValueError(f"row {x}: expected {width} entries, got {len(row)}")
            for y, w in enumerate(row):
                if not isinstance(w, int) or w < 0:
                    raise ValueError(f"entry ({x},{y}): {w!r} is not a non-negative int")
            if sum(row) != scale:
                total = _format_ratio(sum(row), scale)
                raise ValueError(f"row {x}: probabilities sum to {total}, not 1")
        g = math.gcd(scale, *(w for row in weights for w in row))
        if g > 1:
            scale //= g
            weights = tuple(tuple([w // g for w in row]) for row in weights)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def make(cls, rows: Iterable[Iterable]) -> "Channel":
        """Build a Channel from any nested iterable of ints/Fractions/strings."""
        ratios = []
        for x, row in enumerate(rows):
            row = tuple(row)
            if ratios and len(row) != len(ratios[0]):
                raise ValueError(f"row {x}: expected {len(ratios[0])} entries, got {len(row)}")
            ratios.append([_as_ratio(p, f"entry ({x},{y})") for y, p in enumerate(row)])
        scale = math.lcm(*{d for row in ratios for _, d in row})
        return cls([[n * (scale // d) for n, d in row] for row in ratios], scale)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as Fractions, built on first read."""
        return tuple(tuple(Fraction(w, self.scale) for w in row) for row in self.weights)

    @property
    def num_inputs(self) -> int:
        return len(self.weights)

    @property
    def num_outputs(self) -> int:
        return len(self.weights[0])

    def prob(self, x: int, y: int) -> Fraction:
        return self.rows[x][y]

    def row(self, x: int) -> tuple[Fraction, ...]:
        return self.rows[x]

    def support_mask(self, x: int) -> int:
        mask = 0
        for y, w in enumerate(self.weights[x]):
            if w:
                mask |= 1 << y
        return mask

    def min_mass(self, eps, k: int) -> int:
        """Least integer mass m with m / scale >= k * (1 - eps): k codewords
        keeping mass M have mean error <= eps exactly when M >= m."""
        n, d = _as_ratio(eps, "eps")
        need = k * self.scale * (d - n)
        return -(-need // d)


def identity_channel(n: int) -> Channel:
    """Noiseless n-symbol channel: P(y|x) = 1 iff y == x."""
    return Channel.make([[1 if y == x else 0 for y in range(n)] for x in range(n)])


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_channel(text: str) -> Channel:
    """Parse the channel file format into a validated Channel."""
    lines = list(_content_lines(text))
    if not lines:
        raise ChannelFormatError("empty channel file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "channel":
        raise ChannelFormatError(
            f"line {lineno}: expected 'channel <num_inputs> <num_outputs>'"
        )
    try:
        nx, ny = int(parts[1]), int(parts[2])
    except ValueError:
        raise ChannelFormatError(f"line {lineno}: dimensions must be integers") from None
    if nx < 1 or ny < 1:
        raise ChannelFormatError(f"line {lineno}: dimensions must be positive")
    body = lines[1:]
    if len(body) != nx:
        raise ChannelFormatError(f"expected {nx} rows, found {len(body)}")
    rows = []
    # Each distinct token is parsed once, where it first appears.
    known: dict[str, tuple[int, int]] = {}
    for x, (lineno, line) in enumerate(body):
        tokens = line.split()
        if len(tokens) != ny:
            raise ChannelFormatError(
                f"line {lineno}: row {x} has {len(tokens)} entries, expected {ny}"
            )
        entries = []
        for y, tok in enumerate(tokens):
            entry = known.get(tok)
            if entry is None:
                entry = known[tok] = _prob_ratio(tok, f"line {lineno}: row {x}, column {y}")
            entries.append(entry)
        common = math.lcm(*{d for _, d in entries})
        total = sum(n * (common // d) for n, d in entries)
        if total != common:
            raise ChannelFormatError(
                f"line {lineno}: row {x} sums to {_format_ratio(total, common)}, not 1"
            )
        rows.append(entries)
    scale = math.lcm(*{d for _, d in known.values()})
    return Channel([[n * (scale // d) for n, d in row] for row in rows], scale)


def serialize_channel(c: Channel) -> str:
    """Render a Channel in the channel file format. Round-trips exactly."""
    lines = [f"channel {c.num_inputs} {c.num_outputs}"]
    for row in c.weights:
        lines.append(" ".join(_format_ratio(w, c.scale) for w in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cubic graphs (reduction instances)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicGraph:
    """Simple 3-regular graph; edges stored as sorted (u, v) pairs with u < v."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    _incident: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        degree = [0] * self.num_vertices
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized as u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            degree[u] += 1
            degree[v] += 1
        for v, d in enumerate(degree):
            if d != 3:
                raise ValueError(f"vertex {v} has degree {d}, expected 3")
        incident: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for i, (u, v) in enumerate(self.edges):
            incident[u].append(i)
            incident[v].append(i)
        object.__setattr__(self, "_incident", tuple(map(tuple, incident)))

    @classmethod
    def make(cls, num_vertices: int, edges: Iterable[Sequence[int]]) -> "CubicGraph":
        normalized = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        return cls(num_vertices, normalized)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indices (into the edge list) of the three edges touching v."""
        return self._incident[v]


def parse_cubic_graph(text: str) -> CubicGraph:
    """Parse the graph file format into a validated CubicGraph."""
    lines = list(_content_lines(text))
    if not lines:
        raise ChannelFormatError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "graph":
        raise ChannelFormatError(
            f"line {lineno}: expected 'graph <num_vertices> <num_edges>'"
        )
    try:
        nv, ne = int(parts[1]), int(parts[2])
    except ValueError:
        raise ChannelFormatError(f"line {lineno}: dimensions must be integers") from None
    body = lines[1:]
    if len(body) != ne:
        raise ChannelFormatError(f"expected {ne} edges, found {len(body)}")
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ChannelFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ChannelFormatError(f"line {lineno}: vertex ids must be integers") from None
        edges.append((u, v))
    return CubicGraph.make(nv, edges)


def serialize_cubic_graph(g: CubicGraph) -> str:
    lines = [f"graph {g.num_vertices} {len(g.edges)}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunnelSpec:
    """Parameters of the funnel family: leak probabilities 0 < e_1 < ... <= 1.

    Symbol 0 is transmitted noiselessly; symbol i >= 1 arrives intact with
    probability 1 - e_i and collapses into output 0 with probability e_i.
    Zero leak probabilities are rejected: a symbol that never leaks changes
    the capacity structure and is not part of this family.
    """

    n: int
    e: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("funnel family needs n >= 2 symbols")
        if len(self.e) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} leak probabilities, got {len(self.e)}")
        prev = 0
        for i, ei in enumerate(self.e, start=1):
            if not isinstance(ei, Fraction):
                raise ValueError(f"e_{i} must be a Fraction")
            if ei <= prev:
                raise ValueError(
                    f"leak probabilities must be strictly increasing and positive; "
                    f"e_{i} = {ei} after {prev}"
                )
            prev = ei
        if self.e[-1] > 1:
            raise ValueError(f"e_{self.n - 1} = {self.e[-1]} exceeds 1")

    @classmethod
    def make(cls, n: int, e: Iterable) -> "FunnelSpec":
        return cls(n, tuple(Fraction(v) for v in e))


def gen_funnel(spec: FunnelSpec) -> Channel:
    """Channel of the funnel family: row i puts 1-e_i on output i, e_i on 0."""
    rows = [[1] + [0] * (spec.n - 1)]
    for i, ei in enumerate(spec.e, start=1):
        row = [0] * spec.n
        row[0], row[i] = ei, 1 - ei
        rows.append(row)
    return Channel.make(rows)


def gen_from_cubic_graph(g: CubicGraph) -> Channel:
    """Reduction channel: inputs = vertices, outputs = edges, mass 1/3 on
    each of a vertex's three incident edges.  Rows sum to 1 exactly because
    the graph is 3-regular."""
    rows = []
    for v in range(g.num_vertices):
        row = [0] * len(g.edges)
        for i in g.incident_edges(v):
            row[i] = 1
        rows.append(row)
    return Channel(rows, 3)


def gen_random(
    num_inputs: int, num_outputs: int, seed: int, denominator_bound: int
) -> Channel:
    """Seeded random channel with exact row sums.

    Each row is a random composition of d = denominator_bound: d unit
    masses are dropped independently into the num_outputs bins, so the row
    sums to d/d = 1 without any renormalization and every entry has
    denominator dividing d.
    """
    if num_inputs < 1 or num_outputs < 1:
        raise ValueError("dimensions must be >= 1")
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be >= 1")
    rng = random.Random(seed)
    d = denominator_bound
    rows = []
    for _ in range(num_inputs):
        counts = [0] * num_outputs
        for _ in range(d):
            counts[rng.randrange(num_outputs)] += 1
        rows.append(counts)
    return Channel(rows, d)

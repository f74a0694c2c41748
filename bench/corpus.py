"""Seeded corpora for the benchmark's workloads.

Every input comes from the program's own generators (``gen_random``,
``gen_random_cubic`` and the named cubic graphs) and is written to disk as
the program's file format; the program under test only ever sees those
files.  The workload seed picks the generator seeds, so the same seed
always yields byte-identical files.

Run as a script, this module only imports ``oneshotcap``, builds one
corpus, writes it out and prints ``time.monotonic()`` and the median
reference-task time measured around that work.  ``run.py`` times that in
fresh processes to measure set-up:

    python3 bench/corpus.py <workload> <seed> <scale> <out_dir>
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("reduction", "dense", "sweep")
SCALES = ("full", "tiny")

REDUCTION_EPS = "1/4"
DENSE_EPS = ("1/10", "1/3")
SPARSE_EPS = ("1/20", "1/10")
DENOMINATOR = 24

# Instances per size.  Search cost is exponential and varies widely
# between instances of one size, so the figures would depend on the seed
# drawn unless the sizes that carry them have many instances.  Sizes whose
# single ops take half a second or more (cubic 36 and up, dense 13x13 and
# up, sweep 6x10 and 8x10) are therefore left out, and the counts put the
# median op and the 90th-percentile op each in the middle of one group of
# like ops (one size, or one shape and command), not on the edge between
# two groups, where the percentile would jump with the instances drawn.
_REDUCTION_SIZES = {
    # median: 26 vertices; 90th percentile: 32 vertices.  The few 34-vertex
    # graphs are where the packing search is most of an op.
    "full": {20: 60, 22: 60, 24: 60, 26: 80, 28: 50, 30: 45, 32: 90, 34: 10},
    "tiny": {20: 1},
}
_DENSE_SIZES = {
    "full": {8: 16, 9: 16, 10: 16, 11: 16, 12: 45},
    "tiny": {6: 1},
}
_SWEEP_SHAPES = {
    # median: the 4x6 max curves and 4x8 sparse@1/10; 90th percentile: the
    # max curves of 8x8 and 4x10
    "full": {(4, 6): 16, (4, 8): 16, (6, 6): 28, (6, 8): 12, (8, 6): 16, (8, 8): 24,
             (4, 10): 24},
    "tiny": {(3, 4): 1},
}


@dataclass(frozen=True)
class Op:
    """One CLI call; ``key`` names it in golden answers and failure reports."""

    key: str
    instance: str
    kind: str  # "capacity", "reduction", "curve" or "sparse"
    args: tuple[str, ...]  # CLI arguments after the input file path
    command: str
    metric: str | None = None  # "max" or "avg"
    engine: str | None = None
    eps: Fraction | None = None

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args]


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    files: dict[str, str]  # instance name -> file text
    ops: tuple[Op, ...]

    def write(self, directory: Path) -> dict[str, str]:
        """Write every instance file; return instance name -> path."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, text in self.files.items():
            path = directory / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        return paths


def _gen_seed(workload: str, seed: int, name: str) -> int:
    """Generator seed of one instance.  It depends only on the workload,
    the workload seed and the instance name, so changing how many instances
    a size has leaves the others as they were.  String seeding is stable
    across runs."""
    return random.Random(f"oneshotcap-bench:{workload}:{seed}:{name}").randrange(1 << 31)


def _reduction(seed: int, scale: str) -> Corpus:
    from oneshotcap.channel import serialize_cubic_graph
    from oneshotcap.hardness import gen_random_cubic, named_cubic_graphs

    graphs = dict(named_cubic_graphs())
    for n, count in _REDUCTION_SIZES[scale].items():
        for j in range(count):
            name = f"cubic{n}-{j}"
            graphs[name] = gen_random_cubic(n, _gen_seed("reduction", seed, name))
    files = {name: serialize_cubic_graph(g) for name, g in graphs.items()}
    ops = tuple(
        Op(f"{name}/verify", name, "reduction", ("--epsilon", REDUCTION_EPS),
           "verify-reduction", "max", None, Fraction(REDUCTION_EPS))
        for name in files
    )
    return Corpus("reduction", seed, files, ops)


def _dense(seed: int, scale: str) -> Corpus:
    from oneshotcap.channel import gen_random, serialize_channel

    files = {}
    ops = []
    for n, count in _DENSE_SIZES[scale].items():
        for j in range(count):
            name = f"dense{n}x{n}-{j}"
            files[name] = serialize_channel(
                gen_random(n, n, _gen_seed("dense", seed, name), DENOMINATOR))
            for eps in DENSE_EPS:
                e = Fraction(eps)
                tag = eps.replace("/", "_")
                ops.append(Op(f"{name}/max-packing@{tag}", name, "capacity",
                              ("--metric", "max", "--engine", "packing", "--epsilon", eps, "--json"),
                              "capacity", "max", "packing", e))
                ops.append(Op(f"{name}/max-graph@{tag}", name, "capacity",
                              ("--metric", "max", "--engine", "graph", "--epsilon", eps, "--json"),
                              "capacity", "max", "graph", e))
                ops.append(Op(f"{name}/avg@{tag}", name, "capacity",
                              ("--metric", "avg", "--epsilon", eps, "--json"),
                              "capacity", "avg", "packing", e))
    return Corpus("dense", seed, files, tuple(ops))


def _sweep(seed: int, scale: str) -> Corpus:
    from oneshotcap.channel import gen_random, serialize_channel

    files = {}
    ops = []
    for (nx, ny), count in _SWEEP_SHAPES[scale].items():
        for j in range(count):
            name = f"sweep{nx}x{ny}-{j}"
            files[name] = serialize_channel(
                gen_random(nx, ny, _gen_seed("sweep", seed, name), DENOMINATOR))
            for metric in ("max", "avg"):
                ops.append(Op(f"{name}/curve-{metric}", name, "curve",
                              ("--metric", metric), "curve", metric))
            for eps in SPARSE_EPS:
                ops.append(Op(f"{name}/sparse@{eps.replace('/', '_')}", name, "sparse",
                              ("--epsilon", eps), "sparse", "avg", None, Fraction(eps)))
    return Corpus("sweep", seed, files, tuple(ops))


_CORPORA = {"reduction": _reduction, "dense": _dense, "sweep": _sweep}


def build_corpus(workload: str, seed: int, scale: str = "full") -> Corpus:
    """The workload's corpus, ops in a seeded random order.

    Ordered by size, each size's ops would run in one short stretch of the
    pass, and the latency percentiles would sample the machine's speed
    over that stretch only; shuffled, every size spans the whole pass."""
    if workload not in _CORPORA:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    corpus = _CORPORA[workload](seed, scale)
    ops = list(corpus.ops)
    random.Random(f"oneshotcap-bench:{workload}:{seed}:order").shuffle(ops)
    return Corpus(corpus.workload, seed, corpus.files, tuple(ops))


def _main(argv: list[str]) -> int:
    from reference import reference_task

    workload, seed, scale, out_dir = argv
    references = [reference_task() for _ in range(3)]
    import oneshotcap  # noqa: F401  -- part of the set-up being timed

    build_corpus(workload, int(seed), scale).write(Path(out_dir))
    done = time.monotonic()
    references += [reference_task() for _ in range(3)]
    print(done, statistics.median(references))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(_main(sys.argv[1:]))

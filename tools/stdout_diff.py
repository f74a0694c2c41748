"""Compare the command-line tool's output in this checkout and another one.

    python3 tools/stdout_diff.py <other-checkout>

One worker process per checkout imports that checkout's ``src`` and runs
every op in-process through ``oneshotcap.cli.main``; the input files are
written once, and both read them.  The groups, in order:

- ``errors``: usage errors and failing ops, so later ops run after ``SystemExit``.
- ``generators``: ``gen``, ``reduce``, ``validate`` and ``simulate`` on generated inputs.
- ``reduction``, ``dense``, ``sweep``: the benchmark's seed-1 corpora (``bench/corpus.py``).
- ``graph-dump``: max and avg dumps and ``sparse`` at the budget's edges, on small channels.
- ``wide``: curves, capacities and sparse numbers where the searches' bounds prune most.
- ``hardness``: ``verify-reduction`` on cubic graphs of 60 to 160 vertices.
- ``cross-check``: ``capacity --cross-check`` and each engine choice of ``capacity``.
- ``demos``: each ``demos/*.py`` script of its own checkout; its stderr is not compared.

Stdout, stderr and the exit code are compared op by op; every differing
op is printed on one line, and the first five with the first line of
each difference.  An op of the three workload groups whose stdout
differs is re-checked on both sides with ``bench/check.py``'s checker
for its kind, and each group counts apart the ops whose witness differs
but re-checks ok, whose size differs, and whose answer fails its check.
Exits 1 on any difference, 0 when every op matches.
"""

from __future__ import annotations

import json
import runpy
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SHOWN = 5  # differences printed in full; every later one gets its DIFF line


def _error_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """Ops that end in a usage error (exit 2) or an error message (exit 1)."""
    from oneshotcap.channel import gen_random, serialize_channel, serialize_cubic_graph
    from oneshotcap.hardness import cubic_k4

    errors = directory / "errors"
    errors.mkdir()
    channel, big, unsummed, graph, bad_graph = (
        errors / f"{name}.txt" for name in ("channel", "random6x6", "unsummed", "k4", "bad-graph"))
    channel.write_text("channel 2 2\n1 0\n1/4 3/4\n", encoding="utf-8")
    big.write_text(serialize_channel(gen_random(6, 6, SEED, 24)), encoding="utf-8")
    unsummed.write_text("channel 2 2\n1 0\n49/100 1/2\n", encoding="utf-8")
    graph.write_text(serialize_cubic_graph(cubic_k4()), encoding="utf-8")
    bad_graph.write_text("graph 4 -1\n", encoding="utf-8")
    ops = {
        "bad-epsilon": ["capacity", str(channel), "--metric", "max", "--epsilon", "one tenth"],
        "epsilon-3_2": ["capacity", str(channel), "--metric", "max", "--epsilon", "3/2"],
        "epsilon-1_0": ["capacity", str(channel), "--metric", "max", "--epsilon", "1/0"],
        "epsilon-1_4": ["capacity", str(channel), "--metric", "max", "--epsilon", "1/4"],
        "epsilon-0.25": ["capacity", str(channel), "--metric", "max", "--epsilon", "0.25"],
        "unknown-metric": ["capacity", str(channel), "--metric", "mean", "--epsilon", "0"],
        "unknown-command": ["capacities", str(channel)],
        "missing-file": ["validate", str(errors / "missing.txt")],
        "row-sum": ["validate", str(unsummed)],
        "verify-reduction@1_3": ["verify-reduction", str(graph), "--epsilon", "1/3"],
        "bad-graph-header": ["verify-reduction", str(bad_graph), "--epsilon", "1/4"],
        "brute-6x6": ["capacity", str(big), "--metric", "max", "--epsilon", "1/10",
                      "--engine", "brute"],
        "graph-dump-max-no-epsilon": ["graph-dump", str(channel), "--variant", "max"],
        "gen-funnel-1_0": ["gen", "funnel", "--n", "2", "--e", "1/0"],
    }
    return [("errors", key, argv) for key, argv in ops.items()]


def _generator_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """Ops that print generated channels, and ops on those channels."""
    from oneshotcap.capacity import avg_capacity, max_capacity
    from oneshotcap.channel import (FunnelSpec, as_prob, gen_from_cubic_graph, gen_funnel,
                                    gen_random, serialize_channel, serialize_cubic_graph)
    from oneshotcap.hardness import gen_random_cubic, named_cubic_graphs

    gens = directory / "generators"
    gens.mkdir()
    ops, channels = [], {}
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 5), (5, 3), (6, 6), (8, 12)]
    for i, (nx, ny) in enumerate(shapes):
        for denom in (1, 2, 12, 24, 60):
            name = f"random{nx}x{ny}d{denom}"
            ops.append(("generators", f"{name}/gen", [
                "gen", "random", "--nx", str(nx), "--ny", str(ny),
                "--seed", str(SEED + i), "--denom", str(denom)]))
            channels[name] = gen_random(nx, ny, SEED + i, denom)
    for n, leaks in [(2, "1"), (3, "1/100,2/100"), (4, "0.1,1/4,1/2"), (5, "1/6,1/3,1/2,2/3")]:
        name = f"funnel{n}"
        ops.append(("generators", f"{name}/gen", ["gen", "funnel", "--n", str(n), "--e", leaks]))
        spec = FunnelSpec(n, tuple(as_prob(e) for e in leaks.split(",")))
        channels[name] = gen_funnel(spec)
    ops.append(("generators", "funnel3-mixed/gen", ["gen", "funnel", "--n", "3",
                                                    "--e", "0.01,1/50"]))
    graphs = dict(named_cubic_graphs())
    for i in range(10):
        graphs[f"cubic{8 + 2 * i}"] = gen_random_cubic(8 + 2 * i, SEED + i)
    for name, g in graphs.items():
        path = gens / f"{name}.graph"
        path.write_text(serialize_cubic_graph(g), encoding="utf-8")
        ops.append(("generators", f"{name}/reduce", ["reduce", str(path)]))
        channels[f"{name}-channel"] = gen_from_cubic_graph(g)
    for name, c in channels.items():
        path = gens / f"{name}.txt"
        path.write_text(serialize_channel(c), encoding="utf-8")
        ops.append(("generators", f"{name}/validate", ["validate", str(path)]))
        if c.num_inputs * c.num_outputs > 64:
            continue
        for metric, solve in (("max", max_capacity), ("avg", avg_capacity)):
            scheme = gens / f"{name}-{metric}.json"
            scheme.write_text(json.dumps(solve(c, "1/4").witness.to_json_dict()),
                              encoding="utf-8")
            ops.append(("generators", f"{name}/simulate-{metric}", [
                "simulate", str(path), "--scheme", str(scheme),
                "--trials", "200", "--seed", str(SEED)]))
    return ops


def _wide_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """Ops on channels with many inputs per output, or budgets of 1/2 and
    more, where the searches' packing bounds prune most."""
    from oneshotcap.channel import Channel, gen_random, identity_channel, serialize_channel

    wide = directory / "wide"
    wide.mkdir()
    max_curve = [("curve-max", "curve", ["--metric", "max"])]
    avg_curve = [("curve-avg", "curve", ["--metric", "avg"])]
    narrow_max = [(f"max@{eps}", "capacity", ["--metric", "max", "--epsilon", eps, "--json"])
                  for eps in ("1/3", "2/3")]
    # (nx, ny) -> (channels of that shape, ops on each)
    runs = {
        (8, 6): (2, max_curve), (10, 6): (2, max_curve), (12, 8): (2, max_curve),
        (8, 12): (3, max_curve), (10, 12): (3, max_curve), (12, 12): (3, max_curve + avg_curve),
        (10, 10): (2, [(f"{metric}@{eps}", "capacity",
                        ["--metric", metric, "--epsilon", eps, "--json"])
                       for metric, budgets in (("max", ("1/2", "3/4")), ("avg", ("1/2", "2/3")))
                       for eps in budgets] + avg_curve),
        (8, 14): (1, narrow_max), (6, 16): (1, narrow_max), (16, 16): (1, narrow_max),
        (8, 8): (2, [(f"sparse@{eps}", "sparse", ["--epsilon", eps])
                     for eps in ("1/4", "1/2")]),
    }
    ops = []
    for (nx, ny), (copies, shape_runs) in runs.items():
        for i in range(copies):
            path = wide / f"random{nx}x{ny}-{i}.txt"
            path.write_text(serialize_channel(gen_random(nx, ny, SEED + i, 24)),
                            encoding="utf-8")
            ops += [("wide", f"{path.stem}/{name}", [command, str(path), *args])
                    for name, command, args in shape_runs]
    for name, c in (("identity6", identity_channel(6)),
                    ("random6x6d4", gen_random(6, 6, SEED, 4))):
        path = wide / f"{name}.txt"
        path.write_text(serialize_channel(c), encoding="utf-8")
        ops += [("wide", f"{name}/sparse@{eps}", ["sparse", str(path), "--epsilon", eps])
                for eps in ("0", "1/4", "1/2")]
    # the avg search's packed rows of 32 and 64 fields
    for n in (24, 40):
        path = wide / f"random{n}x{n}.txt"
        path.write_text(serialize_channel(gen_random(n, n, SEED, 24)), encoding="utf-8")
        ops += [("wide", f"{path.stem}/avg@{eps}",
                 ["capacity", str(path), "--metric", "avg", "--epsilon", eps, "--json"])
                for eps in ("1/10", "1/3")]
    # x goes to x and x + 1 (mod n): at eps 0 the avg codebook is 0, 2, 4, ...
    for n in (12, 16):
        path = wide / f"typewriter{n}.txt"
        path.write_text(serialize_channel(
            Channel([[int(y in (x, (x + 1) % n)) for y in range(n)] for x in range(n)], 2)),
            encoding="utf-8")
        ops.append(("wide", f"typewriter{n}/avg@0",
                    ["capacity", str(path), "--metric", "avg", "--epsilon", "0", "--json"]))
    # at eps 1/2 the packing bound is 1, 1 and 2, and a first-fit packing
    # meets it; 1x22 has C(22, 11) minimal sets in its row, and the other
    # two more than 2^15 between their rows
    for nx, ny in ((1, 22), (2, 17), (3, 16)):
        path = wide / f"uniform{nx}x{ny}.txt"
        path.write_text(serialize_channel(Channel([[1] * ny] * nx, ny)), encoding="utf-8")
        ops.append(("wide", f"{path.stem}/max@1/2",
                    ["capacity", str(path), "--metric", "max", "--epsilon", "1/2", "--json"]))
    # the search's slowest case against the subset DP it replaced: 5 of a
    # packing bound of 6
    path = wide / "random16x12.txt"
    path.write_text(serialize_channel(gen_random(16, 12, 2, 24)), encoding="utf-8")
    ops.append(("wide", f"{path.stem}/max@2/3",
                ["capacity", str(path), "--metric", "max", "--epsilon", "2/3", "--json"]))
    # no row reaches output 15: first-fit packs 15 of a packing bound of 16
    path = wide / "points2000x16.txt"
    path.write_text(serialize_channel(
        Channel([[int(y == x % 15) for y in range(16)] for x in range(2000)], 1)),
        encoding="utf-8")
    ops.append(("wide", f"{path.stem}/max@1/10",
                ["capacity", str(path), "--metric", "max", "--epsilon", "1/10", "--json"]))
    # 18 outputs, past the search's own range; first-fit meets the packing
    # bound, 2
    path = wide / "random6x18.txt"
    path.write_text(serialize_channel(gen_random(6, 18, 4, 24)), encoding="utf-8")
    ops.append(("wide", f"{path.stem}/max@1/3 --cross-check",
                ["capacity", str(path), "--metric", "max", "--epsilon", "1/3", "--cross-check"]))
    # every row needs output 0: first-fit packs 1 of a packing bound of 2,
    # and a search that does not count the rows' forced outputs walks every
    # row under every set of row 0
    path = wide / "forced80x13.txt"
    path.write_text(serialize_channel(Channel([[12] + [1] * 12] * 80, 24)), encoding="utf-8")
    ops.append(("wide", f"{path.stem}/max@1/3",
                ["capacity", str(path), "--metric", "max", "--epsilon", "1/3", "--json"]))
    # each row's one minimal set at eps 0 holds all 1100 outputs
    path = wide / "uniform2x1100.txt"
    path.write_text(serialize_channel(Channel([[1] * 1100] * 2, 1100)), encoding="utf-8")
    ops.append(("wide", "uniform2x1100/max@0",
                ["capacity", str(path), "--metric", "max", "--epsilon", "0", "--json"]))
    # 1197 uniform rows, then the 3x3 identity: the sparse search skips
    # down 1197 inputs before its answer of 3
    path = wide / "uniform1197-identity3.txt"
    path.write_text(serialize_channel(
        Channel([[1, 1, 1]] * 1197 + [[3, 0, 0], [0, 3, 0], [0, 0, 3]], 3)), encoding="utf-8")
    ops.append(("wide", f"{path.stem}/sparse@0", ["sparse", str(path), "--epsilon", "0"]))
    # half of every row on output 0, so the packing bound, which counts set
    # sizes only, is loose wherever the rows need output 0
    rest = gen_random(8, 7, SEED, 12)
    path = wide / "shared8x8.txt"
    path.write_text(serialize_channel(
        Channel([[rest.scale, *row] for row in rest.weights], 2 * rest.scale)), encoding="utf-8")
    ops.append(("wide", f"{path.stem}/curve-max", ["curve", str(path), "--metric", "max"]))
    # every row the same, so the bound stays loose over long runs of
    # thresholds; every row needs output 0 from mass 5/8 up
    equal = gen_random(1, 8, SEED, 24)
    for name, c in (("equal8x8", Channel([equal.weights[0]] * 8, equal.scale)),
                    ("shared4x4", Channel([[5, 1, 1, 1]] * 4, 8))):
        path = wide / f"{name}.txt"
        path.write_text(serialize_channel(c), encoding="utf-8")
        ops.append(("wide", f"{name}/curve-max", ["curve", str(path), "--metric", "max"]))
    # avg curves whose sizes tie: sizes 1 and 2 both fit at eps 0, then 3
    # and 4 alone; every size at eps 0 (twice)
    for name, c in (("random4x7d3", gen_random(4, 7, 6, 3)),
                    ("random3x7d2", gen_random(3, 7, 7, 2)),
                    ("identity6", identity_channel(6))):
        path = wide / f"{name}.txt"
        path.write_text(serialize_channel(c), encoding="utf-8")
        ops.append(("wide", f"{name}/curve-avg", ["curve", str(path), "--metric", "avg"]))
    return ops


def _hardness_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """Ops on the independent-set search's largest instances: cubic graphs
    of 60 to 160 vertices, and the 60-vertex graph's channel."""
    from oneshotcap.channel import gen_from_cubic_graph, serialize_channel, serialize_cubic_graph
    from oneshotcap.hardness import gen_random_cubic

    hardness = directory / "hardness"
    hardness.mkdir()
    ops = []
    for n in (60, 80, 100, 120, 160):
        g = gen_random_cubic(n, SEED)
        path = hardness / f"cubic{n}.graph"
        path.write_text(serialize_cubic_graph(g), encoding="utf-8")
        ops.append(("hardness", f"cubic{n}/verify@1/4",
                    ["verify-reduction", str(path), "--epsilon", "1/4"]))
        if n == 60:
            path = hardness / f"cubic{n}-channel.txt"
            path.write_text(serialize_channel(gen_from_cubic_graph(g)), encoding="utf-8")
            ops.append(("hardness", f"cubic{n}-channel/max@1/4",
                        ["capacity", str(path), "--metric", "max", "--epsilon", "1/4", "--json"]))
    return ops


def _cross_check_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """``capacity --cross-check`` ops: max and avg, with and without a
    brute-force leg, narrow and wide, and the edges of the max cross-check's
    graph leg (a first-fit answer on 1000 inputs, a graph too large to
    build, and ``--engine brute`` past its size limit); and each engine
    choice of the handler: ``--engine brute`` alone and with the check,
    ``--engine graph`` with it, and max at eps 1, where no search runs."""
    from fractions import Fraction

    from oneshotcap.channel import (Channel, FunnelSpec, gen_funnel, gen_random,
                                    serialize_channel)

    cross = directory / "cross-check"
    cross.mkdir()
    channels = {
        "funnel3": gen_funnel(FunnelSpec.make(3, [Fraction(1, 100), Fraction(1, 50)])),
        "random8x8": gen_random(8, 8, SEED, 24),
        "random8x17": gen_random(8, 17, SEED, 24),
        "random6x6": gen_random(6, 6, SEED, 24),
        "gap": Channel([[1], [1]], 1),
        "points1000x16": gen_random(1000, 16, SEED, 1),
        "uniform3x16": Channel([[1] * 16] * 3, 16),
    }
    check, brute = ["--cross-check"], ["--engine", "brute"]
    runs = [
        ("funnel3", "max", "1/100", check), ("random8x8", "max", "1/3", check),
        ("random8x17", "max", "1/3", check), ("random6x6", "avg", "1/10", check),
        ("gap", "avg", "1/2", check), ("points1000x16", "max", "1/10", check),
        ("uniform3x16", "max", "1/2", check), ("random6x6", "max", "1/3", brute + check),
        ("funnel3", "max", "1/100", brute), ("funnel3", "avg", "1/200", brute),
        ("funnel3", "max", "1/100", brute + check),
        ("random8x8", "max", "1/3", ["--engine", "graph", *check]),
        ("funnel3", "max", "1", check),
    ]
    for name, c in channels.items():
        (cross / f"{name}.txt").write_text(serialize_channel(c), encoding="utf-8")
    return [("cross-check", f"{name}/{metric}@{eps}{''.join(' ' + a for a in flags)}",
             ["capacity", str(cross / f"{name}.txt"), "--metric", metric, "--epsilon", eps,
              *flags])
            for name, metric, eps, flags in runs]


def _corpus_ops(directory: Path) -> tuple[list[tuple[str, str, list[str]]], dict]:
    """(group, key, argv) of every op, with the input files written; the
    ``errors`` group comes first.  Also (group, key) -> (op, input text)
    of each benchmark workload's op, for ``bench/check.py``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from corpus import WORKLOADS, build_corpus
    from oneshotcap.channel import gen_random, serialize_channel

    ops = _error_ops(directory) + _generator_ops(directory)
    checked = {}
    for workload in WORKLOADS:
        corpus = build_corpus(workload, SEED)
        paths = corpus.write(directory / workload)
        for op in corpus.ops:
            ops.append((workload, op.key, op.argv(paths[op.instance])))
            checked[workload, op.key] = (op, corpus.files[op.instance])
    dumps = directory / "graph-dump"
    dumps.mkdir()
    for i in range(10):
        path = dumps / f"random{i}.txt"
        path.write_text(serialize_channel(gen_random(3 + i % 3, 3 + i % 4, SEED + i, 24)),
                        encoding="utf-8")
        variants = [("avg", "avg", [])]
        for eps in ("1/10", "1/3"):
            variants += [(f"max@{eps}", "max", ["--epsilon", eps]),
                         (f"max-minimal@{eps}", "max", ["--epsilon", eps, "--minimal-only"])]
        for name, variant, extra in variants:
            argv = ["graph-dump", str(path), "--variant", variant, *extra]
            ops.append(("graph-dump", f"{path.stem}/{name}", argv))
        for eps in ("0", "1/3", "1/2", "1"):
            ops.append(("graph-dump", f"{path.stem}/sparse@{eps}",
                        ["sparse", str(path), "--epsilon", eps]))
    for i, (nx, ny, denom) in enumerate(((5, 9, 24), (4, 12, 12))):
        path = dumps / f"random{nx}x{ny}.txt"
        path.write_text(serialize_channel(gen_random(nx, ny, SEED + i, denom)), encoding="utf-8")
        ops.append(("graph-dump", f"{path.stem}/max-minimal@1/3",
                    ["graph-dump", str(path), "--variant", "max", "--epsilon", "1/3",
                     "--minimal-only"]))
    demos = [("demos", path.name, ["demo", path.name])
             for path in sorted((ROOT / "demos").glob("*.py"))]
    return (ops + _wide_ops(directory) + _hardness_ops(directory)
            + _cross_check_ops(directory) + demos), checked


def _worker(src: str, manifest: str, out: str) -> int:
    """Run every op of the manifest with the ``oneshotcap`` under ``src``."""
    sys.path.insert(0, src)
    import oneshotcap.cli

    if Path(oneshotcap.cli.__file__).resolve().parent != (Path(src) / "oneshotcap").resolve():
        raise SystemExit(f"error: imported oneshotcap from {oneshotcap.cli.__file__}")
    demos = Path(src).parent / "demos"
    results = []
    for argv in json.loads(Path(manifest).read_text(encoding="utf-8")):
        stdout, stderr = StringIO(), StringIO()
        demo = argv[0] == "demo"  # not a command of the tool
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if demo:
                    runpy.run_path(str(demos / argv[1]), run_name="__main__")
                    code = 0
                else:
                    code = oneshotcap.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded and compared like any other outcome
            code = f"exception {type(exc).__name__}: {exc}"
        results.append([stdout.getvalue(), "" if demo else stderr.getvalue(), code])
    Path(out).write_text(json.dumps(results), encoding="utf-8")
    return 0


def _first_line_diff(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"line {n}: {x!r} != {y!r}"
    if len(la) != len(lb):
        return f"{len(la)} lines != {len(lb)} lines"
    return "the lines match; the line endings differ"


def _recheck(op, text: str, outputs: dict[str, str]) -> str:
    """How a differing op's two answers fare under ``bench/check.py``'s
    checker for its kind: "witness", when both pass with equal sizes (or
    curves), "size" when both pass with different ones, else "check"."""
    from check import CHECKS

    answers = {}
    for side, stdout in outputs.items():
        try:
            answers[side] = CHECKS[op.kind](op, text, stdout)
        except Exception as exc:  # a malformed answer fails its check too
            return f"check: {side} fails: {type(exc).__name__}: {exc}"
    if answers["this"] != answers["other"]:
        # a size, or a curve's (epsilon, size) breakpoints
        shown = {side: a if isinstance(a, int) else " ".join(f"{t}:{k}" for t, k in a)
                 for side, a in answers.items()}
        return f"size: this {shown['this']}, other {shown['other']}"
    return "witness: differs, re-checked ok"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return _worker(*argv[1:])
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "oneshotcap").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = {"this": ROOT, "other": Path(argv[0]).resolve()}
    with tempfile.TemporaryDirectory(prefix="stdout_diff-") as tmp:
        work = Path(tmp)
        ops, checked = _corpus_ops(work)
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps([a for _, _, a in ops]), encoding="utf-8")
        workers = {
            side: subprocess.Popen([sys.executable, __file__, "--worker",
                                    str(checkout / "src"), str(manifest),
                                    str(work / f"{side}.json")])
            for side, checkout in checkouts.items()
        }
        for side, proc in workers.items():
            if proc.wait() != 0:
                print(f"error: the worker for {checkouts[side]} failed", file=sys.stderr)
                return 2
        results = {side: json.loads((work / f"{side}.json").read_text(encoding="utf-8"))
                   for side in checkouts}

    counts: dict[str, list[int]] = {}
    rechecks: dict[str, Counter] = {}  # group -> verdict -> ops
    shown = 0
    for (group, key, op_argv), mine, theirs in zip(ops, results["this"], results["other"]):
        tally = counts.setdefault(group, [0, 0])
        tally[0] += 1
        if mine == theirs:
            continue
        tally[1] += 1
        shown_argv = ["python3", f"demos/{key}"] if group == "demos" else \
            ["oneshotcap", *op_argv[:1], *op_argv[2:]]
        print(f"DIFF {group} {key}: {' '.join(shown_argv)}")
        if (group, key) in checked and mine[0] != theirs[0]:
            verdict = _recheck(*checked[group, key], {"this": mine[0], "other": theirs[0]})
            rechecks.setdefault(group, Counter())[verdict.split(":", 1)[0]] += 1
            print(f"  re-check: {verdict}")
        if shown < SHOWN:
            shown += 1
            for field, a, b in zip(("stdout", "stderr"), mine, theirs):
                if a != b:
                    print(f"  {field}: {_first_line_diff(a, b)}")
            if mine[2] != theirs[2]:
                print(f"  exit code: {mine[2]!r} != {theirs[2]!r}")
    for group, (total, differ) in counts.items():
        v = rechecks.get(group)
        detail = "" if not v else (f" ({v['witness']} witness differs, re-checked ok, "
                                   f"{v['size']} size differs, {v['check']} fail their check)")
        print(f"{group}: {total} ops, {differ} differ{detail}")
    return 1 if any(differ for _, differ in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

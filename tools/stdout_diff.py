"""Compare the command-line tool's output in this checkout and another one.

    python3 tools/stdout_diff.py <other-checkout>

Builds each benchmark workload's seed-1 corpus with ``bench/corpus.py``
(imported as it is), plus a ``graph-dump`` group: the max variant at
eps 1/10 and 1/3, with and without ``--minimal-only``, the avg
variant, and ``sparse`` at eps 0, 1/3, 1/2 and 1 (edges of the escape
budget), on 10 seeded random channels; and a ``generators`` group: ``gen
random`` from 1x1 up over denominators whose counts share factors, ``gen
funnel``, ``reduce`` on the 5 named and 10 random cubic graphs,
``validate`` on each of those channels written to a file, and
``simulate`` on the max and avg witness schemes of a few of them; and a
``wide`` group, where the searches' packing bounds prune most: ``curve
--metric max`` on two 8x6, 10x6 and 12x8 channels each, ``capacity
--metric max --json`` at eps 1/2 and 3/4 on two 10x10 channels, and
``sparse`` at eps 1/4 and 1/2 on two 8x8 channels (a checkout without
those bounds takes minutes over this group), and ``sparse`` at eps 0, 1/4
and 1/2 on ``identity_channel(6)`` and on a 6x6 random channel with
denominator 4, two channels with zero entries whose sparse numbers run from
2 to 6, so their witnesses name nodes past the first.  An ``errors`` group runs
first:
usage errors (a bad epsilon, an unknown ``--metric`` choice, an unknown
command) and failing ops (a missing file, a row that does not sum to 1,
``verify-reduction`` at eps 1/3, ``--engine brute`` past its size limit,
``graph-dump --variant max`` without ``--epsilon``), so every later op
runs after the parser has raised ``SystemExit``.  The files are written
once and both checkouts read the same files.  One worker process per
checkout imports that checkout's ``src`` and runs every op in-process
through ``oneshotcap.cli.main``.  Stdout, stderr and the exit code are
compared op by op; the first differences are printed.  Exits 1 on any
difference, 0 when every op matches.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SHOWN = 5  # differences printed in full


def _error_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """Ops that end in a usage error (exit 2) or an error message (exit 1)."""
    from oneshotcap.channel import gen_random, serialize_channel, serialize_cubic_graph
    from oneshotcap.hardness import cubic_k4

    errors = directory / "errors"
    errors.mkdir()
    channel, big, unsummed, graph = (errors / f"{name}.txt" for name in
                                     ("channel", "random6x6", "unsummed", "k4"))
    channel.write_text("channel 2 2\n1 0\n1/4 3/4\n", encoding="utf-8")
    big.write_text(serialize_channel(gen_random(6, 6, SEED, 24)), encoding="utf-8")
    unsummed.write_text("channel 2 2\n1 0\n49/100 1/2\n", encoding="utf-8")
    graph.write_text(serialize_cubic_graph(cubic_k4()), encoding="utf-8")
    ops = {
        "bad-epsilon": ["capacity", str(channel), "--metric", "max", "--epsilon", "one tenth"],
        "unknown-metric": ["capacity", str(channel), "--metric", "mean", "--epsilon", "0"],
        "unknown-command": ["capacities", str(channel)],
        "missing-file": ["validate", str(errors / "missing.txt")],
        "row-sum": ["validate", str(unsummed)],
        "verify-reduction@1_3": ["verify-reduction", str(graph), "--epsilon", "1/3"],
        "brute-6x6": ["capacity", str(big), "--metric", "max", "--epsilon", "1/10",
                      "--engine", "brute"],
        "graph-dump-max-no-epsilon": ["graph-dump", str(channel), "--variant", "max"],
    }
    return [("errors", key, argv) for key, argv in ops.items()]


def _generator_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """Ops that print generated channels, and ops on those channels."""
    from oneshotcap.capacity import avg_capacity, max_capacity
    from oneshotcap.channel import (FunnelSpec, gen_from_cubic_graph, gen_funnel, gen_random,
                                    parse_prob, serialize_channel, serialize_cubic_graph)
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
        spec = FunnelSpec(n, tuple(parse_prob(e) for e in leaks.split(",")))
        channels[name] = gen_funnel(spec)
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
    from oneshotcap.channel import gen_random, identity_channel, serialize_channel

    wide = directory / "wide"
    wide.mkdir()
    max_curve = [("curve-max", "curve", ["--metric", "max"])]
    runs = {
        (8, 6): max_curve, (10, 6): max_curve, (12, 8): max_curve,
        (10, 10): [(f"max@{eps}", "capacity", ["--metric", "max", "--epsilon", eps, "--json"])
                   for eps in ("1/2", "3/4")],
        (8, 8): [(f"sparse@{eps}", "sparse", ["--epsilon", eps]) for eps in ("1/4", "1/2")],
    }
    ops = []
    for (nx, ny), shape_runs in runs.items():
        for i in range(2):
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
    return ops


def _corpus_ops(directory: Path) -> list[tuple[str, str, list[str]]]:
    """(group, key, argv) of every op, with the input files written; the
    ``errors`` group comes first."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from corpus import WORKLOADS, build_corpus
    from oneshotcap.channel import gen_random, serialize_channel

    ops = _error_ops(directory) + _generator_ops(directory)
    for workload in WORKLOADS:
        corpus = build_corpus(workload, SEED)
        paths = corpus.write(directory / workload)
        ops += [(workload, op.key, op.argv(paths[op.instance])) for op in corpus.ops]
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
    return ops + _wide_ops(directory)


def _worker(src: str, manifest: str, out: str) -> int:
    """Run every op of the manifest with the ``oneshotcap`` under ``src``."""
    sys.path.insert(0, src)
    import oneshotcap.cli

    if Path(oneshotcap.cli.__file__).resolve().parent != (Path(src) / "oneshotcap").resolve():
        raise SystemExit(f"error: imported oneshotcap from {oneshotcap.cli.__file__}")
    results = []
    for argv in json.loads(Path(manifest).read_text(encoding="utf-8")):
        stdout, stderr = StringIO(), StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = oneshotcap.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded and compared like any other outcome
            code = f"exception {type(exc).__name__}: {exc}"
        results.append([stdout.getvalue(), stderr.getvalue(), code])
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


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return _worker(*argv[1:])
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "oneshotcap").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = {"this": ROOT, "other": Path(argv[0]).resolve()}
    with tempfile.TemporaryDirectory(prefix="stdout_diff-") as tmp:
        work = Path(tmp)
        ops = _corpus_ops(work)
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
    shown = 0
    for (group, key, op_argv), mine, theirs in zip(ops, results["this"], results["other"]):
        tally = counts.setdefault(group, [0, 0])
        tally[0] += 1
        if mine == theirs:
            continue
        tally[1] += 1
        if shown < SHOWN:
            shown += 1
            print(f"DIFF {group} {key}: oneshotcap {' '.join(op_argv[:1] + op_argv[2:])}")
            for field, a, b in zip(("stdout", "stderr"), mine, theirs):
                if a != b:
                    print(f"  {field}: {_first_line_diff(a, b)}")
            if mine[2] != theirs[2]:
                print(f"  exit code: {mine[2]!r} != {theirs[2]!r}")
    for group, (total, differ) in counts.items():
        print(f"{group}: {total} ops, {differ} differ")
    return 1 if any(differ for _, differ in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

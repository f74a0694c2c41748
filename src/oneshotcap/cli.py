"""Command-line surface over the capacity engines.

Epsilon is accepted only as exact text ("p/q" or a finite decimal): the
capacity step function jumps exactly at rational thresholds and a float
flag could land on the wrong side of a breakpoint.  Human-readable
summaries go to stdout, machine-readable output is JSON or CSV, and
diagnostics go to stderr.  Identical invocations (including seeds)
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .capacity import (
    _BRUTE_FORCE_LIMIT,
    METRIC_MAX,
    _max_engine,
    avg_capacity,
    brute_force_capacity,
    capacity_curve,
    max_capacity,
    normalize_metric,
    render_bits,
)
from .channel import (
    Channel,
    ChannelFormatError,
    FunnelSpec,
    as_prob,
    gen_from_cubic_graph,
    gen_funnel,
    gen_random,
    parse_channel,
    parse_cubic_graph,
    serialize_channel,
    serialize_cubic_graph,
)
from .decoding import Scheme, simulate
from .graphs import (
    build_avg_graph,
    build_max_graph,
    dump_graph,
    independence_number,
    sparse_number,
)
from .hardness import gen_random_cubic, verify_reduction


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_channel(path: str) -> Channel:
    return parse_channel(_read(path))


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _eps_arg(text: str) -> Fraction:
    try:
        return as_prob(text, "epsilon")
    except ChannelFormatError as exc:  # argparse would drop a ValueError's reason
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    c = _load_channel(args.channel_file)
    print(f"ok: {c.num_inputs} inputs, {c.num_outputs} outputs, every row sums to 1")
    return 0


def _cmd_capacity(args) -> int:
    c = _load_channel(args.channel_file)
    metric = normalize_metric(args.metric)
    eps = args.epsilon
    brute = c.num_inputs <= _BRUTE_FORCE_LIMIT and c.num_outputs <= _BRUTE_FORCE_LIMIT
    if args.engine == "brute" and not brute:
        raise ValueError("engine 'brute' not applicable here (available: packing)")
    results, answered = {}, None
    if args.engine != "brute" or args.cross_check:
        if metric == METRIC_MAX and eps < 1:
            answered, results["packing"] = _max_engine(c, eps)
        else:
            results["packing"] = (max_capacity if metric == METRIC_MAX else avg_capacity)(c, eps)
    if args.engine == "brute" or args.cross_check and brute:
        results["brute"] = brute_force_capacity(c, metric, eps)
    result = results["brute" if args.engine == "brute" else "packing"]
    if args.cross_check:
        sizes = {name: r.codebook_size for name, r in results.items()}
        if answered == "search":
            # the conflict graph's size checks the search
            try:
                sizes["graph"] = independence_number(build_max_graph(c, eps))[0]
            except ValueError as exc:
                print(f"cross-check: graph not compared: {exc}", file=sys.stderr)
        if len(set(sizes.values())) != 1:
            detail = ", ".join(f"{n}={k}" for n, k in sizes.items())
            print(f"engine disagreement: {detail}", file=sys.stderr)
            return 1
        print(f"cross-check ok: {', '.join(sorted(sizes))}" if len(sizes) > 1
              else "cross-check: no second engine applies")
    print(f"codebook_size={result.codebook_size} capacity_bits={render_bits(result.codebook_size)}")
    if args.json:
        print(json.dumps(result.to_json_dict()))
    if args.witness:
        Path(args.witness).write_text(
            json.dumps(result.witness.to_json_dict()) + "\n", encoding="utf-8"
        )
    return 0


def _cmd_curve(args) -> int:
    c = _load_channel(args.channel_file)
    curve = capacity_curve(c, normalize_metric(args.metric))
    _emit(curve.to_csv(), args.out)
    return 0


def _cmd_sparse(args) -> int:
    c = _load_channel(args.channel_file)
    g = build_avg_graph(c)
    size, witness = sparse_number(g, args.epsilon)
    print(f"sparse_number={size}")
    print(json.dumps([[n.input, list(n.outputs)] for n in witness]))
    return 0


def _cmd_graph_dump(args) -> int:
    c = _load_channel(args.channel_file)
    if args.variant == "max":
        if args.epsilon is None:
            raise ValueError("--epsilon is required for the max variant")
        g = build_max_graph(c, args.epsilon, minimal_only=args.minimal_only)
    elif args.epsilon is not None or args.minimal_only:
        raise ValueError("--epsilon and --minimal-only are for the max variant only")
    else:
        g = build_avg_graph(c)
    _emit(dump_graph(g), args.out)
    return 0


def _cmd_reduce(args) -> int:
    g = parse_cubic_graph(_read(args.graph_file))
    _emit(serialize_channel(gen_from_cubic_graph(g)), args.out)
    return 0


def _cmd_verify_reduction(args) -> int:
    g = parse_cubic_graph(_read(args.graph_file))
    report = verify_reduction(g, args.epsilon)
    print(json.dumps(report.to_json_dict()))
    return 0


def _cmd_simulate(args) -> int:
    c = _load_channel(args.channel_file)
    scheme = Scheme.from_json_dict(json.loads(_read(args.scheme)))
    report = simulate(c, scheme, trials=args.trials, seed=args.seed)
    print(json.dumps(report.to_json_dict()))
    return 0


def _cmd_gen_funnel(args) -> int:
    e = [as_prob(tok, "leak probability") for tok in args.e.split(",")]
    spec = FunnelSpec(args.n, tuple(e))
    _emit(serialize_channel(gen_funnel(spec)), args.out)
    return 0


def _cmd_gen_random(args) -> int:
    c = gen_random(args.nx, args.ny, seed=args.seed, denominator_bound=args.denom)
    _emit(serialize_channel(c), args.out)
    return 0


def _cmd_gen_cubic(args) -> int:
    g = gen_random_cubic(args.vertices, seed=args.seed)
    _emit(serialize_cubic_graph(g), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the one parser shared by every ``main`` call in this process,
    built on the first call (not at import).  Parsing leaves it unchanged:
    each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="oneshotcap",
        description="Exact one-shot capacity of discrete channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a channel file and report dimensions")
    p.add_argument("channel_file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("capacity", help="capacity at a given error budget")
    p.add_argument("channel_file")
    p.add_argument("--metric", required=True, choices=["max", "avg"])
    p.add_argument("--epsilon", required=True, type=_eps_arg)
    p.add_argument("--engine", default="packing", choices=["packing", "graph", "brute"],
                   help="packing (also named graph): the metric's exact engine, "
                        "max_capacity or avg_capacity; brute: brute force, 5x5 at most")
    p.add_argument("--witness", help="write the witness scheme JSON here")
    p.add_argument("--cross-check", action="store_true",
                   help="also run brute force where it applies, and for max the conflict "
                        "graph where the search answered (noted on stderr when too large); "
                        "fail on disagreement")
    p.add_argument("--json", action="store_true", help="also print the result as JSON")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("curve", help="exact capacity-vs-epsilon breakpoints as CSV")
    p.add_argument("channel_file")
    p.add_argument("--metric", required=True, choices=["max", "avg"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("sparse", help="eps-sparse number of the average-one-shot graph")
    p.add_argument("channel_file")
    p.add_argument("--epsilon", required=True, type=_eps_arg)
    p.set_defaults(func=_cmd_sparse)

    p = sub.add_parser("graph-dump", help="dump a one-shot graph in text form")
    p.add_argument("channel_file")
    p.add_argument("--variant", required=True, choices=["max", "avg"])
    p.add_argument("--epsilon", type=_eps_arg, default=None,
                   help="error budget (max variant only)")
    p.add_argument("--minimal-only", action="store_true",
                   help="max variant: restrict nodes to minimal decoding sets")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_graph_dump)

    p = sub.add_parser("reduce", help="turn a cubic graph into its reduction channel")
    p.add_argument("graph_file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify-reduction",
                       help="check graph alpha against channel capacity at eps < 1/3")
    p.add_argument("graph_file")
    p.add_argument("--epsilon", required=True, type=_eps_arg)
    p.set_defaults(func=_cmd_verify_reduction)

    p = sub.add_parser("simulate", help="Monte-Carlo check of a scheme's error rates")
    p.add_argument("channel_file")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen", help="channel and graph generators")
    gen_sub = p.add_subparsers(dest="generator", required=True)

    q = gen_sub.add_parser("funnel", help="funnel family channel")
    q.add_argument("--n", required=True, type=int)
    q.add_argument("--e", required=True,
                   help="comma-separated leak probabilities, e.g. 1/100,1/50")
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_gen_funnel)

    q = gen_sub.add_parser("random", help="seeded random channel with exact row sums")
    q.add_argument("--nx", required=True, type=int)
    q.add_argument("--ny", required=True, type=int)
    q.add_argument("--seed", required=True, type=int)
    q.add_argument("--denom", required=True, type=int)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_gen_random)

    q = gen_sub.add_parser("cubic", help="seeded random cubic graph")
    q.add_argument("--vertices", required=True, type=int)
    q.add_argument("--seed", required=True, type=int)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_gen_cubic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

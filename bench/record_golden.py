"""Record ``golden.json``: the default seed's answers, each confirmed twice.

    python3 bench/record_golden.py

One pass of every workload runs with all of ``run.py``'s checks, which
already hold the cross-engine confirmations: packing against graph on
``dense``, and both sides of ``verify-reduction``.  On top of that every
curve is confirmed by direct ``capacity`` queries at each breakpoint, at
the midpoint between breakpoints and at eps = 1.  Nothing is written
unless every check passes.  ``sparse`` has no second engine in the
program; its answers are bounded by the avg curve at the same eps.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

from check import check_capacity, curve_value
from corpus import WORKLOADS, Op, build_corpus
from run import DEFAULT_SEED, GOLDEN, WORK, answer_json, import_program, run_op, run_workload


def confirm_curve(cli, op: Op, path: str, text: str, points) -> list[str]:
    thresholds = [t for t, _ in points]
    probes = set(thresholds) | {Fraction(1)}
    probes |= {(a + b) / 2 for a, b in zip(thresholds, thresholds[1:])}
    problems = []
    for eps in sorted(probes):
        query = Op(op.key, op.instance, "capacity", ("--metric", op.metric, "--epsilon", str(eps),
                                                      "--json"), "capacity", op.metric, "packing", eps)
        _, status, stdout = run_op(cli, query.argv(path))
        if status != "ok":
            problems.append(f"{op.key} at {eps}: {status}")
        elif check_capacity(query, text, stdout) != curve_value(points, eps):
            problems.append(f"{op.key}: direct capacity at {eps} differs from the curve")
    return problems


def main() -> int:
    cli = import_program()
    golden = {"seed": DEFAULT_SEED, "answers": {}}
    problems = []
    for workload in WORKLOADS:
        report = run_workload(workload, DEFAULT_SEED, float("inf"), False, max_passes=1)
        problems += [f"{r.op.key}: {r.status}" for r in report.failures]
        corpus = build_corpus(workload, DEFAULT_SEED)
        work = WORK / f"golden-{workload}"
        paths = corpus.write(work)
        for r in report.results:
            if r.ok and r.op.kind == "curve":
                problems += confirm_curve(cli, r.op, paths[r.op.instance],
                                          corpus.files[r.op.instance], r.answer)
        shutil.rmtree(work)
        golden["answers"][workload] = {r.op.key: answer_json(r.answer) for r in report.results}
        print(f"{workload}: {report.attempted} answers, {len(problems)} problems so far")
    if problems:
        print("\n".join(problems[:50]), file=sys.stderr)
        return 1
    GOLDEN.write_text(_dumps(golden), encoding="utf-8")
    return 0


def _dumps(golden: dict) -> str:
    """JSON with one answer per line, so a changed answer is a one-line diff."""
    blocks = [
        f"{json.dumps(workload)}: {{\n"
        + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(answers.items()))
        + "\n}"
        for workload, answers in golden["answers"].items()
    ]
    return f'{{"seed": {golden["seed"]}, "answers": {{\n' + ",\n".join(blocks) + "\n}}\n"


if __name__ == "__main__":
    sys.exit(main())

"""Seeded benchmark of the ``oneshotcap`` command-line tool.

    python3 bench/run.py --workload reduction|dense|sweep --seed N \
        --seconds S --trace 0|1

One op is one in-process call ``oneshotcap.cli.main(argv)`` on an input
file written during set-up, with its stdout captured.  The workload runs
in this process as a closed loop with one client: whole passes over the
workload's fixed corpus, one op at a time, until ``--seconds`` have gone
by.  Every answer is checked outside the timed op (``check.py``), against
other engines' answers on the same instance, and, for the default seed,
against ``golden.json``.

The end-to-end times are calibrated (``reference.py``): a short fixed
reference task is timed before every op, and each op's wall time is scaled
by ``REF_NOMINAL_S`` over the median reference time around it.  The raw
wall figures are printed as well, on the lines for people.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every op runs twice in a row, untraced and then traced,
and it carries the per-layer metrics from ``spans.py`` plus the tracing
overhead measured on those pairs.
Lines before it repeat each metric with its unit for people.  The exit
code is 0 whenever a result is printed, wrong answers included (they show
as ``"correct": false``); anything else exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

# Single-threaded: keep numpy's BLAS pools at one thread in this process
# and in the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from check import CHECKS, CheckError, cross_check  # noqa: E402
from corpus import WORKLOADS, Corpus, Op, build_corpus  # noqa: E402
from reference import REF_NOMINAL_S, reference_task  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
OP_BUDGET_S = 10.0  # one op over this is recorded as a timeout
RUN_DEADLINE_S = 120.0  # no op starts later than this into the measurement
MIN_SAMPLES = 100  # an untraced pass cut short at --seconds still has this many ops
SETUP_SAMPLES = 9

# An op is calibrated by the median reference time of the REF_WINDOW ops
# on each side of it and its own: the machine's speed changes within a
# second, and one reference sample can be hit by an interrupt.
REF_WINDOW = 2

END_TO_END = (
    ("solves_per_s", "1/s"),
    ("solve_p50_s", "s"),
    ("solve_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class OpTimeout(BaseException):
    """Raised from SIGALRM when an op exceeds its budget.

    Not an ``Exception``: ``cli.main`` turns ValueError, RuntimeError,
    OSError and KeyError into a plain exit code 1, and the program must
    not be able to swallow the stop."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class OpResult:
    op: Op
    latency: float
    status: str  # "ok", or why the op failed
    traced: bool = False
    answer: object = None
    reference: float = REF_NOMINAL_S  # reference_task time just before the op

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class PassResult:
    results: list[OpResult]
    span_range: tuple[int, int] = (0, 0)

    def wall(self, traced: bool = False) -> float:
        return sum(r.latency for r in self.results if r.traced == traced)

    def calibrated(self) -> list[float]:
        """Untraced op times scaled to the nominal reference speed; a failed
        op counts as no less than the budget."""
        ops = [r for r in self.results if not r.traced]
        refs = [r.reference for r in ops]
        out = []
        for i, r in enumerate(ops):
            around = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
            t = r.latency * REF_NOMINAL_S / statistics.median(around)
            out.append(t if r.ok else max(t, OP_BUDGET_S))
        return out


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    passes: list[PassResult]
    metrics: dict[str, float]
    units: dict[str, str]
    missing_spans: list[str] = field(default_factory=list)
    wall: dict[str, float] = field(default_factory=dict)  # uncalibrated timings

    @property
    def results(self) -> list[OpResult]:
        return [r for p in self.passes for r in p.results]

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[OpResult]:
        return [r for r in self.results if not r.ok]


def import_program():
    """Import ``oneshotcap`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "oneshotcap" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oneshotcap
    import oneshotcap.cli

    if Path(oneshotcap.__file__).resolve().parent != (SRC / "oneshotcap").resolve():
        raise SystemExit(f"error: imported oneshotcap from {oneshotcap.__file__}")
    return oneshotcap.cli


def measure_setup(workload: str, seed: int, scale: str,
                  work: Path) -> tuple[list[float], list[float], dict[str, str]]:
    """Time fresh processes from start to corpus written: interpreter start,
    ``import oneshotcap``, corpus generation and file writes.  The probe
    reads the system-wide monotonic clock when done, so its exit and this
    process's wake-up are not counted.  Returns the wall times, the same
    calibrated by the reference time the probe measured in its own process
    (the machine's cores do not run at one speed), and the corpus files."""
    samples, calibrated = [], []
    for i in range(SETUP_SAMPLES):
        out = work / f"setup{i}"
        start = time.monotonic()
        probe = subprocess.run([sys.executable, str(BENCH / "corpus.py"), workload, str(seed),
                                scale, str(out)], check=True, timeout=120,
                               capture_output=True, text=True)
        done, reference = map(float, probe.stdout.split()[-2:])
        samples.append(done - start)
        calibrated.append(samples[-1] * REF_NOMINAL_S / reference)
    files = {p.stem: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}
    return samples, calibrated, files


def run_op(cli, argv: list[str]) -> tuple[float, str, str]:
    out, err = StringIO(), StringIO()
    status = "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            status = f"exit code {code}: {err.getvalue().strip()[:200]}"
    except OpTimeout:
        status = f"timeout after {OP_BUDGET_S:g}s"
    except (Exception, SystemExit) as exc:
        status = f"exception {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, status, out.getvalue()


def answer_json(answer):
    """Golden-file form of an answer: curves become [[eps, k], ...]."""
    if isinstance(answer, tuple):
        return [[str(t), k] for t, k in answer]
    return answer


def run_pass(cli, corpus: Corpus, paths: dict[str, str], golden: dict | None,
             deadline: float, tracer: Tracer | None, index: int,
             stop_at: float = float("inf")) -> PassResult:
    """One pass over the corpus.  With a tracer, each op runs untraced and
    then traced, so the tracing overhead is measured on the same op at
    nearly the same time, whatever the machine's speed does meanwhile.
    After ``stop_at``, once ``MIN_SAMPLES`` ops have run, no further op
    starts; the ops are in random order, so those run are a fair sample."""
    results = []
    span_start = len(tracer.spans) if tracer else 0
    for op in corpus.ops:
        if len(results) >= MIN_SAMPLES and time.perf_counter() > stop_at:
            break
        for traced in ((False, True) if tracer else (False,)):
            if time.perf_counter() > deadline:
                results.append(OpResult(op, OP_BUDGET_S, "not started: run deadline passed",
                                        traced))
                continue
            if traced:
                tracer.op = f"{index}:{op.key}"
                tracer.install()
            reference = reference_task()
            try:
                latency, status, stdout = run_op(cli, op.argv(paths[op.instance]))
            finally:
                if traced:
                    tracer.uninstall()
            result = OpResult(op, latency, status, traced, reference=reference)
            if result.ok:
                try:
                    result.answer = CHECKS[op.kind](op, corpus.files[op.instance], stdout)
                except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                    result.status = f"check failed: {type(exc).__name__}: {exc}"
            results.append(result)
    for traced in {r.traced for r in results}:
        group = [r for r in results if r.traced == traced]
        reasons = cross_check(list(corpus.ops), {r.op.key: r.answer for r in group if r.ok})
        for r in group:
            if r.ok and r.op.key in reasons:
                r.status = f"cross-check failed: {reasons[r.op.key]}"
            elif r.ok and golden is not None:
                expected = golden.get(r.op.key)
                if expected != answer_json(r.answer):
                    r.status = (f"golden mismatch: expected {expected}, "
                                f"got {answer_json(r.answer)}")
    return PassResult(results, (span_start, len(tracer.spans) if tracer else 0))


def load_golden(workload: str, seed: int) -> dict | None:
    """Golden answers apply to the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["answers"][workload]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", golden: dict | None = None,
                 max_passes: int | None = None) -> Report:
    cli = import_program()
    corpus = build_corpus(workload, seed, scale)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if trace else None
    try:
        setup, setup_calibrated, probe_files = measure_setup(workload, seed, scale, work)
        if probe_files != corpus.files:
            raise SystemExit("error: set-up probe wrote a different corpus for the same seed")
        paths = corpus.write(work / "corpus")
        passes: list[PassResult] = []
        start = time.perf_counter()
        deadline = start + RUN_DEADLINE_S
        # On a slow machine the first untraced pass stops at --seconds.  A
        # traced pass always runs whole, so its per-layer totals cover the
        # whole corpus.
        stop_at = float("inf") if trace else start + seconds
        while True:
            passes.append(run_pass(cli, corpus, paths, golden, deadline, tracer, len(passes),
                                   stop_at))
            # Otherwise whole passes only: stop before a pass that would end past --seconds.
            elapsed = time.perf_counter() - start
            if (elapsed * (len(passes) + 1) / len(passes) > seconds
                    or time.perf_counter() > deadline or len(passes) == max_passes):
                break
        if trace:
            tracer.write(WORK / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
        shutil.rmtree(work, ignore_errors=True)
    report = Report(workload, seed, trace, passes, {}, {}, tracer.missing if trace else [])
    if trace:
        _layer_report(report, tracer)
    else:
        _end_to_end_report(report, setup, setup_calibrated)
    return report


def _timing_metrics(passes: list[PassResult], op_times, setup: list[float]) -> dict:
    latencies = [t for p in passes for t in op_times(p)]
    rates = [sum(r.ok for r in p.results) / sum(op_times(p)) for p in passes]
    return {
        "solves_per_s": statistics.median(rates),
        "solve_p50_s": statistics.median(latencies),
        "solve_p90_s": _p90(latencies),
        "setup_s": statistics.median(setup),
    }


def _wall_times(p: PassResult) -> list[float]:
    return [r.latency if r.ok else max(r.latency, OP_BUDGET_S) for r in p.results]


def _end_to_end_report(report: Report, setup: list[float], setup_calibrated: list[float]) -> None:
    metrics = _timing_metrics(report.passes, PassResult.calibrated, setup_calibrated)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.metrics = {name: metrics[name] for name, _ in END_TO_END}
    report.units = dict(END_TO_END)
    report.wall = _timing_metrics(report.passes, _wall_times, setup)
    report.wall["reference_s"] = statistics.median(r.reference for r in report.results)


def _layer_report(report: Report, tracer: Tracer) -> None:
    per_pass = [layer_metrics(tracer.spans[slice(*p.span_range)]) for p in report.passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.missing_spans"] = len(report.missing_spans)
    metrics["trace.overhead_frac"] = (sum(p.wall(traced=True) for p in report.passes)
                                      / sum(p.wall() for p in report.passes) - 1)
    report.metrics = metrics
    report.units = {name: unit for name, unit, _, _ in LAYER_METRICS}


def result_line(report: Report) -> str:
    failed = len(report.failures)
    return json.dumps({
        "correct": failed == 0,
        "attempted": report.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": report.units[name]}
                    for name, value in report.metrics.items()},
    })


def describe(report: Report) -> str:
    ops = report.attempted
    failed = len(report.failures)
    lines = [
        f"workload {report.workload}  seed {report.seed}  trace {int(report.trace)}  "
        f"passes {len(report.passes)}  samples (ops) {ops}  failed {failed}",
        f"  {'failed_frac':<28} {failed / ops:.6g} ratio",
    ]
    moves = {name: move for name, _, _, move in LAYER_METRICS}
    for name, value in report.metrics.items():
        note = f"  -> {moves[name]}" if name in moves else ""
        lines.append(f"  {name:<28} {value:.6g} {report.units[name]}{note}")
    for name, value in report.wall.items():
        lines.append(f"  wall {name:<23} {value:.6g}  (uncalibrated)")
    for name in report.missing_spans:
        lines.append(f"  missing span: {name}")
    for r in report.failures[:20]:
        lines.append(f"  FAILED {report.workload} {r.op.instance} "
                     f"{' '.join(r.op.argv('<file>'))}: {r.status}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          golden=load_golden(args.workload, args.seed))
    print(describe(report))
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own tests.  Not collected by the repository's test run:

    python3 -m pytest -q bench/selftest.py

The smoke tests run every workload at tiny scale.  The attribution test
runs traced ops from the default-seed corpus and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from corpus import WORKLOADS, Corpus, build_corpus  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload: str, trace: bool, golden=None) -> run.Report:
    return run.run_workload(workload, run.DEFAULT_SEED, 0, trace, scale="tiny",
                            golden=golden, max_passes=2)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(workload, trace):
    report = _tiny(workload, trace)
    assert report.failures == []
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = json.loads(run.result_line(report))
    assert result["correct"] and result["attempted"] == report.attempted >= 1
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    text = run.describe(report)
    printed = {tuple(line.split()[0:3:2]) for line in text.splitlines()[1:]}
    for m in listed + [{"name": "failed_frac", "unit": "ratio"}]:
        assert (m["name"], m["unit"]) in printed


def test_benchmark_json_matches_layer_table():
    assert [m["name"] for m in SPEC["per_layer"]] == [m[0] for m in LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_planted_wrong_golden_value_fails():
    answers = {r.op.key: run.answer_json(r.answer) for r in _tiny("reduction", False).results}
    key = next(iter(answers))
    planted = dict(answers, **{key: answers[key] + 1})
    report = _tiny("reduction", False, golden=planted)
    assert {r.op.key for r in report.failures} == {key}
    assert all(r.status.startswith("golden mismatch") for r in report.failures)
    assert json.loads(run.result_line(report))["failed"] == len(report.failures) > 0


def test_over_budget_op_is_a_recorded_timeout(monkeypatch):
    for caught in (ValueError, RuntimeError, OSError, KeyError, Exception):
        assert not issubclass(run.OpTimeout, caught)
    monkeypatch.setattr(run, "OP_BUDGET_S", 1e-4)
    report = _tiny("dense", False)
    assert report.attempted == len(build_corpus("dense", run.DEFAULT_SEED, "tiny").ops)
    assert report.failures and all(r.status.startswith("timeout") for r in report.failures)
    text = run.describe(report)
    assert "FAILED dense dense6x6-0 capacity <file>" in text


def test_missing_boundary_is_reported_not_failed(monkeypatch):
    cli = run.import_program()
    monkeypatch.delattr(cli, "verify_reduction")
    report = _tiny("dense", True)
    assert report.missing_spans == ["hardness.verify_reduction"]
    assert report.failures == [] and report.metrics["trace.missing_spans"] == 1


def _traced_share(workload: str, select, metric: str) -> float:
    """Share of the selected ops' traced time that ``metric`` accounts for."""
    cli = run.import_program()
    full = build_corpus(workload, run.DEFAULT_SEED)
    corpus = Corpus(workload, full.seed, full.files, tuple(op for op in full.ops if select(op)))
    assert corpus.ops
    work = run.WORK / f"selftest-{workload}"
    tracer = Tracer()
    assert tracer.install() == []
    try:
        paths = corpus.write(work)
        result = run.run_pass(cli, corpus, paths, None, float("inf"), tracer, 0)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    assert [r for r in result.results if not r.ok] == []
    op_time = sum(s.duration for s in tracer.spans if s.parent is None)
    return layer_metrics(tracer.spans)[metric] / op_time


def test_attribution_on_default_seed():
    # The corpus's largest instances of each kind: where the workload's
    # claimed bottleneck should dominate.
    assert _traced_share("reduction", lambda op: op.instance.startswith("cubic34-"),
                         "capacity.max_self_s") >= 0.9
    assert _traced_share("dense", lambda op: op.instance.startswith("dense12x12-")
                         and op.key.endswith("max-graph@1_3"), "graphs.build_max_s") >= 2 / 3
    assert _traced_share("sweep", lambda op: op.instance.startswith("sweep8x8-")
                         and op.key.endswith("sparse@1_10"), "graphs.sparse_s") >= 0.9

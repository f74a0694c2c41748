"""Outside-in spans at the boundaries between ``oneshotcap`` modules.

For a traced run, ``Tracer.install`` replaces every function that one
``oneshotcap`` module imports from another with a wrapper that records a
span: name, start, end, parent span and op id.  ``capacity.max_capacity``
is also replaced in its own module, so the calls ``capacity_curve`` makes
internally get spans too, and ``cli.main`` is wrapped as each op's root
span.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover,
including the wrapper's own bookkeeping for those children, so the layer
metrics below add up to the op time less the root wrapper's overhead.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter

PACKAGE = "oneshotcap"
MODULES = ("cli", "capacity", "channel", "decoding", "graphs", "hardness")

# Functions whose spans feed a layer metric.  One that a later change
# removes or stops importing across modules is reported as missing.
EXPECTED_SPANS = (
    "cli.main",
    "channel.parse_channel",
    "channel.parse_cubic_graph",
    "channel.gen_from_cubic_graph",
    "decoding.minimal_decoding_masks",
    "decoding.scheme_from_disjoint_sets",
    "decoding.optimal_avg_decoder",
    "decoding.max_error",
    "graphs.build_max_graph",
    "graphs.build_avg_graph",
    "graphs.independence_number",
    "graphs.max_independent_set",
    "graphs.sparse_number",
    "capacity.max_capacity",
    "capacity.capacity_curve",
    "capacity.avg_capacity",
    "hardness.verify_reduction",
)

# Replaced in their home module as well as at every importer.
_WRAP_AT_HOME = ("cli.main", "capacity.max_capacity")

# (metric, unit, better, which end-to-end metric it should move, where)
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", "solve_p50_s on dense (cheap eps 1/10 ops)"),
    ("channel.parse_s", "s", "lower", "solve_p50_s on dense"),
    ("channel.reduce_s", "s", "lower", "solve_p50_s on reduction"),
    ("decoding.minsets_s", "s", "lower", "solves_per_s on sweep; solve_p90_s on dense"),
    ("decoding.minsets_calls", "count", "lower", "solves_per_s on sweep; solve_p90_s on dense"),
    ("decoding.minsets_found", "count", "lower", "solves_per_s on sweep; solve_p90_s on dense"),
    ("decoding.witness_s", "s", "lower", "nothing (guard metric)"),
    ("graphs.build_max_s", "s", "lower", "solve_p90_s and solves_per_s on dense"),
    ("graphs.max_nodes", "count", "lower", "solve_p90_s and solves_per_s on dense"),
    ("graphs.max_edges", "count", "lower", "solve_p90_s and solves_per_s on dense"),
    ("graphs.mis_s", "s", "lower", "solve_p50_s on reduction (graph side)"),
    ("graphs.build_avg_s", "s", "lower", "solve_p50_s on sweep"),
    ("graphs.avg_nodes", "count", "lower", "solve_p50_s on sweep"),
    ("graphs.sparse_s", "s", "lower", "solves_per_s and solve_p90_s on sweep"),
    ("capacity.max_self_s", "s", "lower",
     "solves_per_s and solve_p90_s on reduction; solve_p90_s on dense"),
    ("capacity.max_calls", "count", "lower", "solves_per_s on sweep"),
    ("capacity.curve_self_s", "s", "lower", "solves_per_s on sweep"),
    ("capacity.curve_useful_ratio", "ratio", "higher", "solves_per_s on sweep"),
    ("capacity.avg_self_s", "s", "lower", "solve_p50_s on dense"),
    ("hardness.verify_self_s", "s", "lower", "solve_p50_s on reduction"),
    *((f"{layer}.errors", "count", "lower", "failed_frac") for layer in MODULES),
    ("trace.missing_spans", "count", "lower", "nothing (a renamed or removed boundary)"),
    ("trace.overhead_frac", "ratio", "lower", "nothing"),
)


@dataclass
class Span:
    id: int
    name: str
    op: str | None
    parent: int | None
    parent_name: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _count_max_graph(g, args, kwargs) -> dict:
    return {"nodes": g.num_nodes, "edges": sum(a.bit_count() for a in g.adj) // 2}


def _count_curve(curve, args, kwargs) -> dict:
    metric = args[1] if len(args) > 1 else kwargs.get("metric")
    return {"breakpoints": len(curve.breakpoints), "max_metric": metric == "maximum"}


# Counters read from a boundary's result after its span has ended.
_COUNTERS = {
    "decoding.minimal_decoding_masks": lambda r, a, k: {"found": len(r)},
    "graphs.build_max_graph": _count_max_graph,
    "graphs.build_avg_graph": lambda r, a, k: {"nodes": r.num_nodes},
    "capacity.capacity_curve": _count_curve,
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[Span] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), name, tracer.op,
                        parent.id if parent else None,
                        parent.name if parent else None, perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.end = perf_counter()
                if count is not None:
                    span.counts = count(result, args, kwargs)
                return result
            except BaseException:
                span.end = perf_counter()
                span.error = True
                raise
            finally:
                stack.pop()
                if parent is not None:
                    parent.child_s += perf_counter() - span.start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> list[str]:
        """Wrap every cross-module boundary; return (and keep in
        ``missing``) the expected spans not found."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        wrapped: set[str] = set()

        def patch(module, attr: str, fn) -> None:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            self._patched.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])
            wrapped.add(name)

        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ != module.__name__
                        and obj.__module__.startswith(PACKAGE + ".")):
                    patch(module, attr, obj)
        for name in _WRAP_AT_HOME:
            mod, attr = name.split(".")
            fn = getattr(modules[mod], attr, None)
            if inspect.isfunction(fn) and fn.__module__ == modules[mod].__name__:
                patch(modules[mod], attr, fn)
        self.missing = [name for name in EXPECTED_SPANS if name not in wrapped]
        return self.missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over a set of spans (one op, or one corpus pass)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    errors = {layer: 0 for layer in MODULES}
    breakpoints = curve_max_calls = 0
    for s in spans:
        self_s[s.name] += s.self_s
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}:{key}"] += value
        if s.error:
            errors[s.layer] += 1
        if s.name == "capacity.capacity_curve" and s.counts.get("max_metric"):
            breakpoints += s.counts["breakpoints"]
        if s.name == "capacity.max_capacity" and s.parent_name == "capacity.capacity_curve":
            curve_max_calls += 1

    def total(*names: str) -> float:
        return sum(self_s[n] for n in names)

    metrics = {
        "cli.self_s": total("cli.main"),
        "channel.parse_s": total("channel.parse_channel", "channel.parse_cubic_graph"),
        "channel.reduce_s": total("channel.gen_from_cubic_graph"),
        "decoding.minsets_s": total("decoding.minimal_decoding_masks"),
        "decoding.minsets_calls": calls["decoding.minimal_decoding_masks"],
        "decoding.minsets_found": counts["decoding.minimal_decoding_masks:found"],
        "decoding.witness_s": total("decoding.scheme_from_disjoint_sets",
                                    "decoding.optimal_avg_decoder", "decoding.max_error"),
        "graphs.build_max_s": total("graphs.build_max_graph"),
        "graphs.max_nodes": counts["graphs.build_max_graph:nodes"],
        "graphs.max_edges": counts["graphs.build_max_graph:edges"],
        "graphs.mis_s": total("graphs.independence_number", "graphs.max_independent_set"),
        "graphs.build_avg_s": total("graphs.build_avg_graph"),
        "graphs.avg_nodes": counts["graphs.build_avg_graph:nodes"],
        "graphs.sparse_s": total("graphs.sparse_number"),
        "capacity.max_self_s": total("capacity.max_capacity"),
        "capacity.max_calls": calls["capacity.max_capacity"],
        "capacity.curve_self_s": total("capacity.capacity_curve"),
        "capacity.curve_useful_ratio": breakpoints / curve_max_calls if curve_max_calls else 0.0,
        "capacity.avg_self_s": total("capacity.avg_capacity"),
        "hardness.verify_self_s": total("hardness.verify_reduction"),
    }
    metrics.update({f"{layer}.errors": n for layer, n in errors.items()})
    return metrics

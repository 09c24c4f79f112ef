"""Spans at the package's module boundaries, recorded from outside it.

A boundary is a name one module imports from another, such as
``provpolicy.evaluator.apply_remove``. Tracing rebinds that name, in the
importing module only, to a wrapper that records a span around the call
and counts taken from its return value. Nothing in the package changes;
uninstalling puts the original objects back. A boundary whose name a
later refactor removed is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import logging
from collections import Counter
from time import perf_counter_ns
from typing import Callable

# A span is [name, start_ns, end_ns, parent_index, request_id]; the
# parent index is -1 for a request's root span.
Span = list


class Tracer:
    """Spans and counts of the traced requests, kept in memory.

    The wrappers are built once; ``on`` and ``off`` swap them in and out
    of the importing modules, so untraced requests run the package's own
    objects untouched.
    """

    def __init__(self, boundaries: list[Boundary]) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[int, Counter] = {}
        self.absent: list[str] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        for module_name, attr, name, counter in boundaries:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._swaps.append((module, attr, original, self._wrap(original, name, counter)))

    def on(self) -> None:
        for module, attr, _, traced in self._swaps:
            setattr(module, attr, traced)

    def off(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def open(self, name: str) -> Span:
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span[2] = perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counts[self.request][key] += n

    def begin_request(self, request_id: int) -> Span:
        self.request = request_id
        self.counts[request_id] = Counter()
        return self.open("request")

    def _wrap(self, fn: Callable, name: str | Callable, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced


# ==== the boundary table ====


_SPEC_KINDS = {
    "VerticesSpec": "vertices",
    "DirectedPathSpec": "directed",
    "GeneralPathSpec": "general",
    "SubgraphSpec": "subgraphs",
}


def _resolve_name(args: tuple) -> str:
    kind = type(args[1]).__name__
    return "partition.resolve." + _SPEC_KINDS.get(kind, kind)


def _selected(t: Tracer, args: tuple, partition) -> None:
    t.count("partition.selected_vertices", len(partition.vertex_ids))


def _paths(t: Tracer, args: tuple, paths) -> None:
    t.count("query.paths_enumerated", len(paths))


def _resolve_paths(t: Tracer, args: tuple, paths) -> None:
    _paths(t, args, paths)
    t.count("query.resolve_paths", len(paths))


def _clusters(t: Tracer, args: tuple, clusters) -> None:
    t.count("transform.clusters", len(clusters))


def _step(t: Tracer, args: tuple, result) -> None:
    t.count("transform.steps", 1)
    t.count("transform.bridges", sum(len(r.get("bridges", ())) for r in result.log))


def _decision(t: Tracer, args: tuple, result) -> None:
    decision, view = result
    t.count("evaluator.skipped_steps", sum(r.get("op") == "skip" for r in view.log))
    t.count("evaluator.hidden_vertices", decision.hidden_vertex_count)


# (importing module, imported name, span name or a function of the call's
# arguments giving it, counter over the return value)
Boundary = tuple[str, str, "str | Callable", "Callable | None"]

BENCH_MODULE = "perfbench.workloads"

BOUNDARIES: list[Boundary] = [
    (BENCH_MODULE, "load_graph", "graph.load_graph", None),
    (BENCH_MODULE, "save_graph", "graph.save_graph", None),
    (BENCH_MODULE, "parse_policy", "policy.parse_policy", None),
    (BENCH_MODULE, "parse_path_expr", "pathexpr.parse_path_expr", None),
    (BENCH_MODULE, "evaluate", "evaluator.evaluate", _decision),
    ("provpolicy.evaluator", "applicable", "policy.applicable", None),
    ("provpolicy.evaluator", "resolve", _resolve_name, _selected),
    ("provpolicy.evaluator", "expand_scope", "transform.expand_scope", _clusters),
    ("provpolicy.evaluator", "combine_effects", "evaluator.combine_effects", None),
    ("provpolicy.evaluator", "apply_remove", "transform.apply_remove", _step),
    ("provpolicy.evaluator", "apply_replace", "transform.apply_replace", _step),
    ("provpolicy.evaluator", "eval_query", "query.eval_query", _paths),
    ("provpolicy.evaluator", "ProvenanceGraph", "graph.build", None),
    ("provpolicy.transform", "ProvenanceGraph", "graph.build", None),
    ("provpolicy.transform", "validate_graph", "graph.validate_graph", None),
    ("provpolicy.partition", "eval_directed_path", "query.eval_directed_path", _resolve_paths),
    ("provpolicy.partition", "eval_general_path", "query.eval_general_path", _resolve_paths),
]


# ==== reading the spans ====


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_request(spans: list[Span]) -> dict[int, dict[str, list[int]]]:
    """Per request, per span name: [self ns, calls]."""
    own = self_times(spans)
    out: dict[int, dict[str, list[int]]] = {}
    for (name, _, _, _, request), ns in zip(spans, own):
        row = out.setdefault(request, {}).setdefault(name, [0, 0])
        row[0] += ns
        row[1] += 1
    return out


def evaluate_roots(spans: list[Span]) -> list[int]:
    """Per span, the index of the evaluate span it runs inside (its own
    index for an evaluate span), or -1 outside evaluate. A parent is
    always opened, and so listed, before its children."""
    roots: list[int] = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "evaluator.evaluate":
            roots.append(i)
        else:
            roots.append(roots[parent] if parent >= 0 else -1)
    return roots


def evaluate_subtrees(spans: list[Span]) -> list[tuple[int, list[int]]]:
    """For each evaluate span: its duration and the self times of every
    span inside it, itself included."""
    own = self_times(spans)
    inside: dict[int, list[int]] = {}
    for i, root in enumerate(evaluate_roots(spans)):
        if root >= 0:
            inside.setdefault(root, []).append(own[i])
    return [(spans[r][2] - spans[r][1], selfs) for r, selfs in sorted(inside.items())]


class WarningCounter(logging.Handler):
    """Counts the package's log records. Attached to the ``provpolicy``
    logger, it also keeps them off stderr, where logging's last-resort
    handler would otherwise print each one."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.seen = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.seen += 1

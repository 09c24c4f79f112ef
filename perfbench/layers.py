"""The per-layer metrics of a traced run.

Layers are the package's modules. Each row names a metric, its unit, how
it is read from the trace, and which end-to-end metric it should move on
which workload. That last column is the layer-to-end-to-end map the
benchmark commits to: a change that speeds up a layer should move the
named end-to-end metric, and leave the workloads not named alone.

Every metric is a median over traced requests of a per-request value: a
self time in ms (span duration minus its child spans), a count, or a
ratio of two counts. A request without the span or count reads 0.
"""

from __future__ import annotations

import statistics

from .tracing import evaluate_roots, per_request, self_times

# how a value is read: ("self", span) self time in ms, ("calls", span)
# call count, ("count", key) a counter, ("ratio", key, key) one counter
# over another (requests whose divisor is 0 are left out)
LAYER_METRICS: tuple[tuple[str, str, tuple, str], ...] = (
    ("graph.validate_graph.ms", "ms", ("self", "graph.validate_graph"),
     "bulk-remove latency_p50_ms and throughput_rps; absent on staff-read"),
    ("graph.validate_graph.calls_per_request", "count", ("calls", "graph.validate_graph"),
     "bulk-remove latency_p50_ms and throughput_rps"),
    ("graph.build.ms", "ms", ("self", "graph.build"),
     "bulk-remove latency_p50_ms and throughput_rps; absent on staff-read"),
    ("graph.build.calls_per_request", "count", ("calls", "graph.build"),
     "bulk-remove latency_p50_ms and throughput_rps"),
    ("graph.load_graph.ms", "ms", ("self", "graph.load_graph"), "doc-store latency"),
    ("graph.save_graph.ms", "ms", ("self", "graph.save_graph"), "doc-store latency"),
    ("policy.parse_policy.ms", "ms", ("self", "policy.parse_policy"), "doc-store latency"),
    ("policy.applicable.ms", "ms", ("self", "policy.applicable"),
     "doc-store latency; staff-read by a small amount"),
    ("pathexpr.parse_path_expr.ms", "ms", ("self", "pathexpr.parse_path_expr"),
     "doc-store latency"),
    ("partition.resolve.vertices.ms", "ms", ("self", "partition.resolve.vertices"),
     "staff-read latency_p50_ms (resolve is about 80% of it); bulk-remove by at most 7%"),
    ("partition.resolve.directed.ms", "ms", ("self", "partition.resolve.directed"),
     "staff-read latency_p50_ms; doc-store latency"),
    ("partition.resolve.general.ms", "ms", ("self", "partition.resolve.general"),
     "doc-store latency"),
    ("partition.resolve.subgraphs.ms", "ms", ("self", "partition.resolve.subgraphs"),
     "doc-store latency"),
    ("partition.selected_vertices_per_request", "count",
     ("count", "partition.selected_vertices"), "staff-read latency_p50_ms"),
    ("query.eval_directed_path.ms", "ms", ("self", "query.eval_directed_path"),
     "staff-read latency_p50_ms and latency_p90_ms; none on bulk-remove"),
    ("query.eval_general_path.ms", "ms", ("self", "query.eval_general_path"),
     "doc-store latency; none on bulk-remove"),
    ("query.eval_query.ms", "ms", ("self", "query.eval_query"), "doc-store latency"),
    ("query.paths_enumerated_per_request", "count", ("count", "query.paths_enumerated"),
     "staff-read and doc-store latency"),
    ("query.paths_per_selected_vertex", "paths/vertex",
     ("ratio", "query.resolve_paths", "partition.selected_vertices"),
     "wasted work: staff-read and doc-store latency"),
    ("transform.expand_scope.ms", "ms", ("self", "transform.expand_scope"),
     "staff-read latency_p50_ms"),
    ("transform.clusters_per_request", "count", ("count", "transform.clusters"),
     "staff-read latency_p50_ms"),
    ("transform.scope_warnings_per_request", "count", ("count", "transform.scope_warnings"),
     "staff-read latency_p50_ms"),
    ("transform.apply_remove.ms", "ms", ("self", "transform.apply_remove"),
     "bulk-remove latency_p50_ms and throughput_rps"),
    ("transform.apply_replace.ms", "ms", ("self", "transform.apply_replace"),
     "doc-store latency"),
    ("transform.steps_per_request", "count", ("count", "transform.steps"),
     "bulk-remove latency_p50_ms and throughput_rps"),
    ("transform.bridges_per_request", "count", ("count", "transform.bridges"),
     "bulk-remove latency_p50_ms"),
    ("evaluator.evaluate.ms", "ms", ("self", "evaluator.evaluate"), "all three workloads"),
    ("evaluator.combine_effects.ms", "ms", ("self", "evaluator.combine_effects"),
     "all three workloads, mostly staff-read"),
    ("evaluator.skipped_steps_per_request", "count", ("count", "evaluator.skipped_steps"),
     "bulk-remove latency_p50_ms"),
    ("evaluator.hidden_vertices_per_request", "count", ("count", "evaluator.hidden_vertices"),
     "none: fixed by the policies; a change here is a change of answers"),
)

# Two rows describe the tracing itself rather than a layer.
TRACE_METRICS: tuple[tuple[str, str, str], ...] = (
    ("trace.overhead_ms", "ms", "traced p50 minus untraced p50 of the same requests"),
    ("trace.absent_boundaries", "count", "traced names a refactor removed"),
)


def layer_values(spans: list, counts: dict) -> dict[str, float]:
    """Every LAYER_METRICS value, from the traced requests' spans and
    counters."""
    rows = per_request(spans)
    requests = sorted(rows)
    out: dict[str, float] = {}
    for name, _, how, _ in LAYER_METRICS:
        values: list[float] = []
        for r in requests:
            if how[0] == "self":
                values.append(rows[r].get(how[1], (0, 0))[0] / 1e6)
            elif how[0] == "calls":
                values.append(rows[r].get(how[1], (0, 0))[1])
            elif how[0] == "count":
                values.append(counts[r][how[1]])
            elif counts[r][how[2]]:
                values.append(counts[r][how[1]] / counts[r][how[2]])
        out[name] = statistics.median(values) if values else 0.0
    return out


def evaluate_shares(spans: list) -> dict[str, float]:
    """Per span name, its self time inside evaluate as a share of all
    evaluate time, over every traced request."""
    own = self_times(spans)
    total = 0
    by_name: dict[str, int] = {}
    for i, root in enumerate(evaluate_roots(spans)):
        if root < 0:
            continue
        name = spans[i][0]
        by_name[name] = by_name.get(name, 0) + own[i]
        if root == i:
            total += spans[i][2] - spans[i][1]
    return {name: round(ns / total, 4) for name, ns in sorted(by_name.items())} if total else {}

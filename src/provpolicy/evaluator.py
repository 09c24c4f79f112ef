"""Access-request evaluation: policy selection, per-vertex effect
combination, and application of the winning transformation plan; also
the in-order application of a bare transformation list.

Effects combine per vertex under absolute permit > deny > permit; a
vertex no applicable policy covers defaults to permit, and a request no
policy applies to at all is denied outright. Deny-side transformations
whose clusters survive the absolute-permit shield are applied in
canonical (policy id, transformation index) order; where a remove
cluster and a replace cluster overlap, removal wins.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum

from .errors import EvaluationError, TransformError
from .graph import EdgeLabel, ProvenanceGraph
from .partition import partition_to_text, resolve
from .policy import (
    AccessRequest,
    CategoryDictionary,
    EdgeMergeTable,
    Effect,
    Mode,
    Policy,
    Transformation,
    applicable,
)
from .query import eval_query
from .transform import (
    Cluster,
    TransformResult,
    apply_remove,
    apply_replace,
    check_view,
    cluster_category,
    expand_scope,
)

__all__ = [
    "AccessRequest",
    "Decision",
    "Outcome",
    "PlanStep",
    "apply_transformations",
    "combine_effects",
    "decision_to_dict",
    "evaluate",
]


class Outcome(Enum):
    PERMIT_FULL = "PermitFull"
    PERMIT_TRANSFORMED = "PermitTransformed"
    DENY_ALL = "DenyAll"


@dataclass(frozen=True)
class PlanStep:
    """One concrete transformation application: which policy asked for
    it (none, ``""``, for a step of a bare transformation list), the
    transformation's index inside that policy, and the cluster it acts
    on after shielding and overlap resolution."""

    policy_id: str
    tindex: int
    transformation: Transformation
    cluster: Cluster


@dataclass(frozen=True)
class Decision:
    outcome: Outcome
    applied_policies: tuple[str, ...]
    plan: tuple[PlanStep, ...]
    effects: Mapping[str, Effect]
    hidden_vertex_count: int


def combine_effects(
    per_policy: Iterable[tuple[Effect, Iterable[str]]],
    vertices: Iterable[str] = (),
) -> dict[str, Effect]:
    """Winning effect per vertex: the strongest effect of any covering
    policy, permit for vertices in no coverage set."""
    out: dict[str, Effect] = dict.fromkeys(vertices, Effect.PERMIT)
    for effect, ids in per_policy:
        if effect is Effect.PERMIT:
            continue  # a permit never beats the default
        # deny and absolute permit both beat permit, and only an
        # absolute permit beats deny
        for vid in ids:
            if out.get(vid) is not Effect.ABSOLUTE_PERMIT:
                out[vid] = effect
    return out


def evaluate(
    req: AccessRequest,
    policies: Iterable[Policy],
    g: ProvenanceGraph,
    vcd: CategoryDictionary,
    emt: EdgeMergeTable,
) -> tuple[Decision, TransformResult]:
    if req.graph_id != g.id:
        raise EvaluationError(
            f"request targets graph {req.graph_id!r} but got {g.id!r}"
        )
    policies = list(policies)
    seen_ids: set[str] = set()
    for p in policies:
        if p.id in seen_ids:
            raise EvaluationError(f"duplicate policy id {p.id!r}")
        seen_ids.add(p.id)

    apps = sorted((p for p in policies if applicable(p, req, g)), key=lambda p: p.id)
    if not apps:
        effects = {vid: Effect.DENY for vid in g.vertices}
        decision = Decision(Outcome.DENY_ALL, (), (), effects, len(g.vertices))
        empty = ProvenanceGraph(g.id, (), ())
        record = {"op": "deny-all", "reason": "no applicable policy"}
        return decision, TransformResult(empty, (record,))

    # Every policy's clusters resolve against the original graph; they
    # declare coverage even when the policy's effect never transforms.
    clusters_of: dict[str, list[tuple[int, Transformation, Cluster]]] = {}
    for p in apps:
        rows: list[tuple[int, Transformation, Cluster]] = []
        for ti, t in enumerate(p.transformations):
            part = resolve(g, t.partition)
            for c in expand_scope(g, part, t.scope, vcd):
                rows.append((ti, t, c))
        clusters_of[p.id] = rows

    # a permit policy's coverage changes no effect, and only a deny or
    # absolute-permit policy can make a vertex hidden or protected
    coverage = [
        (p.effect, set().union(*(c.vertex_ids for _, _, c in clusters_of[p.id])))
        for p in apps
        if p.effect is not Effect.PERMIT
    ]
    effects = combine_effects(coverage, g.vertices)
    covered = set().union(*(ids for _, ids in coverage))
    protected = {vid for vid in covered if effects[vid] is Effect.ABSOLUTE_PERMIT}
    hidden = {vid for vid in covered if effects[vid] is Effect.DENY}

    steps: list[PlanStep] = []
    for p in apps:
        if p.effect is not Effect.DENY:
            continue
        for ti, t, c in clusters_of[p.id]:
            live = c.vertex_ids - protected
            if live:
                steps.append(PlanStep(p.id, ti, t, Cluster(live, c.category)))

    remove_union: set[str] = set()
    for s in steps:
        if s.transformation.mode is Mode.REMOVE:
            remove_union |= s.cluster.vertex_ids
    plan: list[PlanStep] = []
    for s in steps:
        if s.transformation.mode is Mode.REPLACE:
            live = s.cluster.vertex_ids - remove_union
            if not live:
                continue
            s = PlanStep(s.policy_id, s.tindex, s.transformation,
                         Cluster(live, s.cluster.category))
        plan.append(s)

    records: list[dict] = []
    view, applied = _apply_steps(
        g,
        ((s, {"policy": s.policy_id, "transformation": s.tindex},
          f"policy {s.policy_id!r}: ") for s in plan),
        vcd, emt, records,
    )
    if applied:
        check_view(view, "transformation plan")
    outcome = Outcome.PERMIT_FULL if not applied else Outcome.PERMIT_TRANSFORMED
    if req.query is not None:
        matches = eval_query(view, req.query)
        keep = {vid for m in matches for vid in m.vertices}
        keep |= {
            e.dst
            for e in view.edges
            if e.label is EdgeLabel.HAS_ATTRIBUTES and e.src in keep
        }
        view = ProvenanceGraph(
            view.id,
            (v for vid, v in sorted(view.vertices.items()) if vid in keep),
            (e for e in view.edges if e.src in keep and e.dst in keep),
        )
        records.append({"op": "query", "matches": len(matches),
                        "kept_vertices": len(keep)})

    decision = Decision(
        outcome, tuple(p.id for p in apps), tuple(applied), effects, len(hidden)
    )
    return decision, TransformResult(view, tuple(records))


def apply_transformations(
    g: ProvenanceGraph,
    transformations: list[Transformation] | tuple[Transformation, ...],
    vcd: CategoryDictionary,
    emt: EdgeMergeTable,
) -> TransformResult:
    """Apply a transformation list in order, each resolving its partition
    on the current intermediate graph. Empty partitions are logged no-ops."""
    working = g
    records: list[dict] = []
    for ti, t in enumerate(transformations):
        context = {
            "transformation": ti,
            "partition": partition_to_text(t.partition),
            "scope": t.scope.value,
            "mode": t.mode.value,
        }
        part = resolve(working, t.partition)
        if part.is_empty:
            records.append({**context, "op": "skip", "reason": "empty partition"})
            continue
        # a skipped step's record names the whole cluster; an applied
        # step's own record replaces it with the part the step acted on
        steps = [
            (PlanStep("", ti, t, c), {**context, "cluster": sorted(c.vertex_ids)}, "")
            for c in expand_scope(working, part, t.scope, vcd)
        ]
        working, _ = _apply_steps(working, steps, vcd, emt, records)
    check_view(working, "transformation pipeline")
    return TransformResult(working, tuple(records))


def _apply_steps(
    g: ProvenanceGraph,
    steps: Iterable[tuple[PlanStep, dict, str]],
    vcd: CategoryDictionary,
    emt: EdgeMergeTable,
    records: list[dict],
) -> tuple[ProvenanceGraph, list[PlanStep]]:
    """Apply each step, in order, to the graph the steps before it left.

    A step comes with the context its log records start with and the
    label put in front of its TransformError. It acts on the part of its
    cluster still in the graph, and is logged as skipped when none is.
    Returns the last graph and the steps as applied.
    """
    working = g
    applied: list[PlanStep] = []
    for s, context, label in steps:
        live = frozenset(v for v in s.cluster.vertex_ids if v in working.vertices)
        if not live:
            records.append({**context, "op": "skip",
                            "reason": "cluster already removed"})
            continue
        c = Cluster(live, s.cluster.category)
        t = s.transformation
        try:
            if t.mode is Mode.REMOVE:
                step = apply_remove(working, c, t.label, emt)
            else:
                category = cluster_category(working, c, vcd)
                step = apply_replace(
                    working, c, vcd, t.label,
                    vertex_id=f"merged:{s.tindex}:{category.name}",
                )
        except TransformError as e:
            raise TransformError(f"{label}{e}") from e
        working = step.graph
        applied.append(PlanStep(s.policy_id, s.tindex, t, c))
        records.extend({**context, **r} for r in step.log)
    return working, applied


def decision_to_dict(decision: Decision, result: TransformResult) -> dict:
    """The JSON shape the command line prints for an apply run."""
    return {
        "outcome": decision.outcome.value,
        "appliedPolicies": list(decision.applied_policies),
        "hiddenVertexCount": decision.hidden_vertex_count,
        "log": list(result.log),
    }

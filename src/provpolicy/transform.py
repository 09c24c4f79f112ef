"""Graph transformations: scope expansion, cluster removal with edge
merging, and cluster replacement.

Removal deletes a vertex cluster and bridges every dependency that ran
through it; with the original-dependency label the bridge label is folded
pairwise through the edge-merge table, and any ambiguity or schema
violation falls back to wasCausedBy. Replacement collapses a cluster into
a single vertex named by its category. Both return a fresh graph plus a
JSON-serializable audit log; inputs are never mutated.

Both steps take a graph that passes ``validate_graph(g,
allow_was_caused_by=True)`` and return one, without checking the whole
result: ``evaluator``, which applies every plan and transformation
list, checks the view it produces once, after its last step, with
``check_view``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from .errors import TransformError
from .graph import (
    Edge,
    EdgeLabel,
    ProvenanceGraph,
    Vertex,
    VertexType,
    edge_is_legal,
    kahn_order,
    validate_graph,
)
from .partition import Partition
from .policy import (
    Category,
    CategoryDictionary,
    DependencyLabel,
    EdgeMergeTable,
    Scope,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Cluster:
    """A nonempty vertex group slated for one transformation step;
    ``category`` names the dictionary category that formed it, if any."""

    vertex_ids: frozenset[str]
    category: str | None = None


@dataclass(frozen=True)
class TransformResult:
    graph: ProvenanceGraph
    log: tuple[dict, ...]


# ==== scope expansion ====


def expand_scope(
    g: ProvenanceGraph, base: Partition, scope: Scope, vcd: CategoryDictionary
) -> list[Cluster]:
    """Grow a resolved partition into the clusters a transformation acts
    on.

    Original keeps the partition as one cluster. Conjunction grows one
    cluster by transitively absorbing neighbors that share a category
    with a base member: the union of the components, over the base's
    categories together, that hold a base vertex. Extension collects
    every connected component of each base category's member set
    anywhere in the graph. Under the latter two, base vertices in no
    category become singleton clusters.
    """
    ids = base.vertex_ids
    if not ids:
        return []
    if not ids <= g.vertices.keys():
        for vid in ids:
            g.vertex(vid)  # raises for the first missing id
    if scope is Scope.ORIGINAL:
        return [Cluster(ids)]

    cats, cache = vcd._cache_entry(g)
    names = frozenset(cats[vid].name for vid in ids if vid in cats)
    singletons = sorted(vid for vid in ids if vid not in cats)
    if singletons:
        log.warning(
            "scope %s: %d base vertex(es) in no category kept as singletons: %s",
            scope.value,
            len(singletons),
            ", ".join(singletons),
        )

    clusters: list[Cluster] = []
    if scope is Scope.CONJUNCTION:
        if names:
            comps, index = _category_components(g, cats, cache, names)
            hit = {index[vid] for vid in ids if vid in index}
            grown = frozenset().union(*(comps[i].vertex_ids for i in hit))
            # every component is named when the base spans one category
            clusters.append(Cluster(grown, comps[0].category))
    else:  # Scope.EXTENSION
        for cat in vcd.categories:
            if cat.name in names:
                clusters.extend(_category_components(g, cats, cache, frozenset((cat.name,)))[0])
    clusters.extend(Cluster(frozenset((vid,))) for vid in singletons)
    return clusters


def _category_components(
    g: ProvenanceGraph,
    cats: dict[str, Category],
    cache: dict[frozenset[str], Any],
    names: frozenset[str],
) -> tuple[list[Cluster], dict[str, int]]:
    """The connected components of the vertices whose category in
    ``cats`` is in ``names``, as clusters named when ``names`` is one
    category, and each member's index in that list. They depend only on
    the graph and the dictionary, so each set's are built once and kept
    in ``cache``, the dictionary's entry on the graph (``_cache_entry``);
    callers must not change them."""
    table = cache.get(names)
    if table is None:
        only = next(iter(names)) if len(names) == 1 else None
        members = {vid for vid, cat in cats.items() if cat.name in names}
        comps = [Cluster(frozenset(comp), only) for comp in _components(g, members)]
        index = {vid: i for i, c in enumerate(comps) for vid in c.vertex_ids}
        table = cache[names] = (comps, index)
    return table


def _components(g: ProvenanceGraph, ids: set[str]) -> list[set[str]]:
    """Connected components of ``ids`` under every edge kind, ordered by
    smallest member id."""
    seen: set[str] = set()
    out: list[set[str]] = []
    for start in sorted(ids):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            vid = stack.pop()
            for n in g.all_neighbors(vid):
                if n in ids and n not in comp:
                    comp.add(n)
                    stack.append(n)
        seen |= comp
        out.append(comp)
    return out


# ==== removal ====


def apply_remove(
    g: ProvenanceGraph,
    c: Cluster,
    label: DependencyLabel,
    emt: EdgeMergeTable,
) -> TransformResult:
    """Delete a cluster, bridging external dependencies that passed
    through it.

    A bridge u→w is created when u had an edge into the cluster and some
    internal path led on to an edge out to w. Removing a cluster that is
    entirely absent from the graph is a no-op; a partially absent cluster
    is an error.
    """
    present = {vid for vid in c.vertex_ids if vid in g.vertices}
    if not present:
        record = {"op": "remove", "cluster": [], "category": c.category,
                  "label": label.value, "bridges": [], "removed_attributes": []}
        return TransformResult(g, (record,))
    if present != set(c.vertex_ids):
        missing = sorted(set(c.vertex_ids) - present)
        raise TransformError(
            f"cluster is partially absent from graph {g.id!r}: missing {missing}"
        )
    internal = present

    # The cluster's own adjacency: edges crossing into it, out of it, and
    # between its members, keyed by source.
    in_edges: list[Edge] = []
    out_edges: list[Edge] = []
    succ: dict[str, list[Edge]] = {vid: [] for vid in internal}
    for vid in internal:
        in_edges.extend(e for e in g.cause_edges(vid) if e.src not in internal)
        for e in g.effect_edges(vid):
            (succ[vid] if e.dst in internal else out_edges).append(e)
    topo = kahn_order({vid: [e.dst for e in edges] for vid, edges in succ.items()})

    # Per external pair, every bridge label obtainable by folding the
    # merge table left to right along some internal route; under the
    # false-dependency label every fold gives wasCausedBy.
    if label is DependencyLabel.ORIGINAL:
        fold = emt.merged
    else:
        def fold(a: EdgeLabel, b: EdgeLabel) -> EdgeLabel:
            return EdgeLabel.WAS_CAUSED_BY
    folds: dict[tuple[str, str], set[EdgeLabel]] = {}
    for e_in in in_edges:
        labels_at: dict[str, set[EdgeLabel]] = {e_in.dst: {e_in.label}}
        for vid in topo:
            if vid not in labels_at:
                continue
            for e in succ[vid]:
                labels_at.setdefault(e.dst, set()).update(
                    fold(l, e.label) for l in labels_at[vid]
                )
        for e_out in out_edges:
            if e_out.src in labels_at:
                folds.setdefault((e_in.src, e_out.dst), set()).update(
                    fold(l, e_out.label) for l in labels_at[e_out.src]
                )

    bridges: list[Edge] = []
    for (u, w), labels in sorted(folds.items()):
        merged = labels.pop() if len(labels) == 1 else EdgeLabel.WAS_CAUSED_BY
        if not edge_is_legal(
            g.vertices[u].vtype, g.vertices[w].vtype, merged, allow_was_caused_by=True
        ):
            merged = EdgeLabel.WAS_CAUSED_BY
        bridges.append(Edge(u, w, merged))

    # Bridges keep reachability among the survivors, so they close no
    # cycle, and each falls back to a label legal between its ends: the
    # result is valid whenever ``g`` is.
    orphans = _orphaned_attributes(g, internal)
    out = g._successor(internal | orphans, (), bridges)

    record = {
        "op": "remove",
        "cluster": sorted(internal),
        "category": c.category,
        "label": label.value,
        "bridges": [
            {"src": e.src, "dst": e.dst, "label": e.label.value} for e in bridges
        ],
        "removed_attributes": sorted(orphans),
    }
    return TransformResult(out, (record,))


def _orphaned_attributes(g: ProvenanceGraph, removed: set[str]) -> set[str]:
    """Attribute vertices all of whose hosts are being removed."""
    orphans: set[str] = set()
    for host in removed:
        for e in g.attribute_edges(host):
            vid = e.dst
            if vid in removed or g.vertices[vid].vtype is not VertexType.ATTRIBUTE:
                continue
            if all(h.src in removed for h in g.attribute_host_edges(vid)):
                orphans.add(vid)
    return orphans


def check_view(g: ProvenanceGraph, op: str) -> None:
    """Raise TransformError unless ``g`` passes ``validate_graph(g,
    allow_was_caused_by=True)``.

    A graph derived by steps from a graph known valid is checked only for
    what the steps added, as ``_successor`` recorded it: edges between
    present vertices in legal triples, new vertices without a value. The
    step contract covers the rest. Any other graph, or one whose chain
    ever added something illegal, even if a later step removed it, is
    validated in full. Whether a graph is valid is cached on it, so a
    chain's first graph is validated once however many chains start
    from it.
    """
    origin, additions_legal = g._derived or (g, True)
    if not (additions_legal and _known_valid(origin)):
        violations = validate_graph(g, allow_was_caused_by=True)
        if violations:
            detail = "; ".join(f"{v.kind}: {v.message}" for v in violations)
            raise TransformError(f"{op} produced an invalid graph: {detail}")
    g._valid = True


def _known_valid(g: ProvenanceGraph) -> bool:
    if g._valid is None:
        g._valid = not validate_graph(g, allow_was_caused_by=True)
    return g._valid


# ==== replacement ====


def apply_replace(
    g: ProvenanceGraph,
    c: Cluster,
    vcd: CategoryDictionary,
    label: DependencyLabel,
    *,
    vertex_id: str | None = None,
) -> TransformResult:
    """Collapse a cluster into one vertex named by its category label.

    External non-attribute edges are rewired to the new vertex; under the
    false-dependency label they all become wasCausedBy, otherwise each
    keeps its label when still schema-legal and falls back to wasCausedBy.
    Attribute attachments of the cluster are dropped, not carried over.
    A collapse that would close a cycle is rejected.
    """
    internal = set(c.vertex_ids)
    if not internal:
        raise TransformError("cannot replace an empty cluster")
    for vid in internal:
        g.vertex(vid)
    category = cluster_category(g, c, vcd)

    orphans = _orphaned_attributes(g, internal)
    removed = internal | orphans
    base = vertex_id if vertex_id is not None else f"merged:{category.name}"
    new_id = _fresh_id(base, set(g.vertices) - removed)
    new_vertex = Vertex(new_id, category.replacement_type, category.label)

    edges: set[Edge] = set()
    dropped_attribute_edges = 0
    rewired: list[dict] = []
    depends_on_cluster: set[str] = set()
    cluster_depends_on: set[str] = set()
    touching = [
        e
        for vid in sorted(removed)
        for e in (*g.effect_edges(vid), *g.cause_edges(vid),
                  *g.attribute_edges(vid), *g.attribute_host_edges(vid))
    ]
    for e in touching:
        src_in = e.src in removed
        dst_in = e.dst in removed
        if src_in and dst_in:
            continue
        if e.label is EdgeLabel.HAS_ATTRIBUTES:
            dropped_attribute_edges += 1
            continue
        if src_in:
            cluster_depends_on.add(e.dst)
        else:
            depends_on_cluster.add(e.src)
        src = new_id if src_in else e.src
        dst = new_id if dst_in else e.dst
        src_type = new_vertex.vtype if src_in else g.vertices[e.src].vtype
        dst_type = new_vertex.vtype if dst_in else g.vertices[e.dst].vtype
        if label is DependencyLabel.FALSE:
            new_label = EdgeLabel.WAS_CAUSED_BY
        elif edge_is_legal(src_type, dst_type, e.label, allow_was_caused_by=True):
            new_label = e.label
        else:
            new_label = EdgeLabel.WAS_CAUSED_BY
        if not edge_is_legal(src_type, dst_type, new_label, allow_was_caused_by=True):
            raise TransformError(
                f"no legal label for rewired edge {src!r} -> {dst!r} "
                f"(replacement type {new_vertex.vtype.value})"
            )
        edges.add(Edge(src, dst, new_label, e.tag))
        rewired.append(
            {"src": src, "dst": dst, "label": new_label.value, "was": e.label.value}
        )

    # The new vertex sits on a cycle exactly when something the cluster
    # depends on depends, outside the cluster, on something that depends
    # on the cluster. Any other cycle was in ``g`` already.
    closing = _reaches(g, cluster_depends_on, depends_on_cluster, removed)
    if closing is not None:
        raise TransformError(
            f"replace produced an invalid graph: cycle: collapsing "
            f"{', '.join(sorted(internal))} into {new_id!r} closes a cycle "
            f"through {closing!r}"
        )
    out = g._successor(removed, (new_vertex,), edges)

    record = {
        "op": "replace",
        "cluster": sorted(internal),
        "category": category.name,
        "label": label.value,
        "new_vertex": {
            "id": new_id,
            "type": category.replacement_type.value,
            "name": category.label,
        },
        "rewired": sorted(rewired, key=lambda r: (r["src"], r["dst"], r["label"])),
        "removed_attributes": sorted(orphans),
        "dropped_attribute_edges": dropped_attribute_edges,
    }
    return TransformResult(out, (record,))


def _reaches(
    g: ProvenanceGraph, sources: set[str], targets: set[str], avoid: set[str]
) -> str | None:
    """A target reachable from a source along stored edges without
    entering ``avoid``, or None."""
    seen = set(sources)
    stack = sorted(sources)
    while stack:
        vid = stack.pop()
        if vid in targets:
            return vid
        for e in g.effect_edges(vid):
            if e.dst not in seen and e.dst not in avoid:
                seen.add(e.dst)
                stack.append(e.dst)
    return None


def cluster_category(
    g: ProvenanceGraph, c: Cluster, vcd: CategoryDictionary
) -> Category:
    if c.category is not None:
        cat = vcd.by_name(c.category)
        if cat is None:
            raise TransformError(f"cluster names unknown category {c.category!r}")
        return cat
    cats = vcd.category_map(g)
    found: dict[str, Category] = {}
    for vid in sorted(c.vertex_ids):
        cat = cats.get(vid)
        if cat is not None:
            found[cat.name] = cat
    if len(found) == 1:
        return next(iter(found.values()))
    if not found:
        raise TransformError(
            "no category covers any cluster member; replacement needs one"
        )
    raise TransformError(
        "cluster members span categories "
        + ", ".join(sorted(found))
        + "; replacement needs exactly one"
    )


def _fresh_id(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    n = 2
    while f"{base}-{n}" in taken:
        n += 1
    return f"{base}-{n}"

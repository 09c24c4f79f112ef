"""Independent reference implementations used to check the library.

Everything here recomputes answers from first principles with plain
brute force: exhaustive DFS for path semantics, literal tables for the
edge schema, naive fixpoints for scope expansion. The implementations
deliberately share no traversal code with the package so that agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

from collections import deque

from provpolicy.graph import Edge, EdgeLabel, ProvenanceGraph, VertexType
from provpolicy.pathexpr import (
    Axis,
    NodeTest,
    PathExpr,
    Terminal,
    pred_matches,
    test_matches,
)

# ==== literal edge schema (hand-typed copy of the allowed triples) ====

LEGAL_TRIPLES = {
    ("process", "artifact", "used"),
    ("artifact", "process", "wasGeneratedBy"),
    ("process", "agent", "wasControlledBy"),
    ("artifact", "artifact", "wasDerivedFrom"),
    ("process", "process", "wasTriggeredBy"),
    ("agent", "attribute", "hasAttributes"),
    ("process", "attribute", "hasAttributes"),
    ("artifact", "attribute", "hasAttributes"),
}

WCSD_TRIPLES = {
    (a, b, "wasCausedBy")
    for a in ("agent", "artifact", "process")
    for b in ("agent", "artifact", "process")
}


def triple_is_legal(g: ProvenanceGraph, e: Edge, *, allow_wcsd: bool = False) -> bool:
    # _value_ is the plain attribute behind the .value property; it is read
    # for every edge of every checked view, and the property costs more
    # than the rest of the check (as would hashing enum members)
    vs = g.vertices
    triple = (vs[e.src].vtype._value_, vs[e.dst].vtype._value_, e.label._value_)
    if triple in LEGAL_TRIPLES:
        return True
    return allow_wcsd and triple in WCSD_TRIPLES


# ==== adjacency rebuilt from the edge list alone ====


def stored_out(g: ProvenanceGraph, vid: str) -> list[Edge]:
    return [
        e
        for e in g.edges
        if e.src == vid and e.label is not EdgeLabel.HAS_ATTRIBUTES
    ]


def stored_in(g: ProvenanceGraph, vid: str) -> list[Edge]:
    return [
        e
        for e in g.edges
        if e.dst == vid and e.label is not EdgeLabel.HAS_ATTRIBUTES
    ]


def _stored_map(g: ProvenanceGraph, *, forward: bool) -> dict[str, list[str]]:
    """Per vertex, the ends of its non-attribute edges, read from the edge
    list in one pass: the sources of the edges entering it when
    ``forward``, else the targets of the edges leaving it."""
    adj: dict[str, list[str]] = {}
    ha = EdgeLabel.HAS_ATTRIBUTES
    if forward:
        for e in g.edges:
            if e.label is not ha:
                adj.setdefault(e.dst, []).append(e.src)
    else:
        for e in g.edges:
            if e.label is not ha:
                adj.setdefault(e.src, []).append(e.dst)
    return adj


def has_cycle(g: ProvenanceGraph) -> bool:
    """Cycle among non-attribute edges, by iterative three-color DFS."""
    WHITE, GRAY, BLACK = 0, 1, 2
    succ = _stored_map(g, forward=False)
    color = {vid: WHITE for vid in g.vertices}
    for root in g.vertices:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, bool]] = [(root, False)]
        while stack:
            vid, done = stack.pop()
            if done:
                color[vid] = BLACK
                continue
            if color[vid] == GRAY:
                continue
            color[vid] = GRAY
            stack.append((vid, True))
            for dst in succ.get(vid, ()):
                if color[dst] == GRAY:
                    return True
                if color[dst] == WHITE:
                    stack.append((dst, False))
    return False


def closure(g: ProvenanceGraph, vid: str, *, forward: bool) -> set[str]:
    """Transitive closure over non-attribute edges. ``forward`` walks
    with the arrow of time (against the stored orientation)."""
    step = _stored_map(g, forward=forward)
    seen = {vid}
    queue = deque([vid])
    while queue:
        for nxt in step.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def connected_over_all_edges(g: ProvenanceGraph, ids: set[str] | frozenset[str]) -> bool:
    """Is the vertex set connected in the undirected view of every edge
    (attribute attachments included)?"""
    if not ids:
        return True
    ids = set(ids)
    adj: dict[str, set[str]] = {vid: set() for vid in ids}
    for e in g.edges:
        if e.src in ids and e.dst in ids:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
    start = next(iter(sorted(ids)))
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in adj[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen == ids


# ==== canonical serialization as a plain dict ====


def canonical_dict(g: ProvenanceGraph) -> dict:
    """The document ``save_graph`` writes, as a dict that
    ``json.dumps(..., indent=2, ensure_ascii=False)`` turns into the same
    text."""
    vertices = []
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        entry = {"id": v.id, "type": v.vtype.value, "name": v.name}
        if v.value is not None:
            entry["value"] = v.value
        vertices.append(entry)
    edges = []
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst, e.label.value, e.tag or "")):
        entry = {"src": e.src, "dst": e.dst, "label": e.label.value}
        if e.tag is not None:
            entry["tag"] = e.tag
        edges.append(entry)
    return {"id": g.id, "vertices": vertices, "edges": edges}


# ==== path semantics by exhaustive DFS ====


def _mixed_steps(g: ProvenanceGraph, vid: str) -> list[tuple[str, str]]:
    steps = [(e.dst, "effect") for e in stored_out(g, vid)]
    steps += [(e.src, "cause") for e in stored_in(g, vid)]
    return steps


def enumerate_general_paths(
    g: ProvenanceGraph, src: str, dst: str
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All simple mixed-direction paths of three or more vertices."""
    out: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    steps: dict[str, list[tuple[str, str]]] = {}  # each vertex's, read once

    def walk(path: list[str], dirs: list[str]) -> None:
        cur = path[-1]
        if cur == dst and len(path) >= 3:
            out.append((tuple(path), tuple(dirs)))
        if cur == dst:
            return
        if cur not in steps:
            steps[cur] = sorted(_mixed_steps(g, cur))
        for nxt, d in steps[cur]:
            if nxt not in path:
                walk(path + [nxt], dirs + [d])

    if src != dst and src in g.vertices and dst in g.vertices:
        walk([src], [])
    return sorted(set(out))


def enumerate_cause_paths(
    g: ProvenanceGraph, src: str, dst: str
) -> list[tuple[str, ...]]:
    """All chronological paths of three or more vertices (each hop moves
    forward in time, i.e. against the stored orientation)."""
    out: list[tuple[str, ...]] = []

    def walk(path: list[str]) -> None:
        cur = path[-1]
        if cur == dst and len(path) >= 3:
            out.append(tuple(path))
        if cur == dst:
            return
        for e in stored_in(g, cur):
            if e.src not in path:
                walk(path + [e.src])

    if src != dst and src in g.vertices and dst in g.vertices:
        walk([src])
    return sorted(set(out))


def oracle_directed(
    g: ProvenanceGraph,
    from_test: NodeTest,
    to_test: NodeTest,
    vias: tuple[NodeTest, ...] = (),
) -> set[tuple[str, ...]]:
    """Vertex sequences of chronological paths between test matches whose
    interior contains the via tests as an ordered subsequence."""
    sources = [v for v in g.vertices if test_matches(from_test, g, v)]
    sinks = [v for v in g.vertices if test_matches(to_test, g, v)]
    found: set[tuple[str, ...]] = set()
    for s in sources:
        for e in sinks:
            for path in enumerate_cause_paths(g, s, e):
                interior = path[1:-1]
                if _subsequence_matches(g, interior, vias):
                    found.add(path)
    return found


def _subsequence_matches(
    g: ProvenanceGraph, interior: tuple[str, ...], vias: tuple[NodeTest, ...]
) -> bool:
    pos = 0
    for test in vias:
        while pos < len(interior) and not test_matches(test, g, interior[pos]):
            pos += 1
        if pos == len(interior):
            return False
        pos += 1
    return True


def oracle_general(
    g: ProvenanceGraph, from_test: NodeTest, to_test: NodeTest
) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
    sources = [v for v in g.vertices if test_matches(from_test, g, v)]
    sinks = [v for v in g.vertices if test_matches(to_test, g, v)]
    found: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for s in sources:
        for e in sinks:
            found.update(enumerate_general_paths(g, s, e))
    return found


def oracle_query(g: ProvenanceGraph, expr: PathExpr) -> set[tuple[str, ...]]:
    """Vertex sequences matched by an effect-direction query.

    The first step anchors anywhere its test matches; a child step
    extends the path by exactly one stored edge; a descendant step by one
    or more. Predicates are checked at the step's matched vertex. Paths
    stay simple.
    """
    steps = expr.steps
    if any(s.axis in (Axis.FOLLOWING, Axis.PRECEDING) for s in steps):
        raise ValueError("query oracle handles child/descendant axes only")

    def step_ok(step, vid: str) -> bool:
        if not test_matches(step.test, g, vid):
            return False
        return pred_matches(step.pred, g, vid)

    results: set[tuple[str, ...]] = set()

    def extend(path: tuple[str, ...], idx: int) -> None:
        if idx == len(steps):
            results.add(path)
            return
        step = steps[idx]
        if step.axis is Axis.CHILD:
            for e in stored_out(g, path[-1]):
                if e.dst not in path and step_ok(step, e.dst):
                    extend(path + (e.dst,), idx + 1)
            return
        # descendant: one or more stored hops, target matches the test
        seenpaths = [path]
        while seenpaths:
            nxt: list[tuple[str, ...]] = []
            for pp in seenpaths:
                for e in stored_out(g, pp[-1]):
                    if e.dst in pp:
                        continue
                    cand = pp + (e.dst,)
                    if step_ok(step, e.dst):
                        extend(cand, idx + 1)
                    nxt.append(cand)
            seenpaths = nxt

    first = steps[0]
    for vid in g.vertices:
        if step_ok(first, vid):
            extend((vid,), 1)
    return results


# ==== partition semantics ====


def oracle_vertices(g: ProvenanceGraph, selector: NodeTest) -> set[str]:
    return {vid for vid in g.vertices if test_matches(selector, g, vid)}


def _endpoint_matches(g: ProvenanceGraph, endpoint) -> list[str]:
    if endpoint is Terminal.START:
        return [
            vid
            for vid, v in g.vertices.items()
            if v.vtype is not VertexType.ATTRIBUTE and not stored_out(g, vid)
        ]
    if endpoint is Terminal.END:
        return [
            vid
            for vid, v in g.vertices.items()
            if v.vtype is not VertexType.ATTRIBUTE and not stored_in(g, vid)
        ]
    return [vid for vid in g.vertices if test_matches(endpoint, g, vid)]


def oracle_subgraph(g: ProvenanceGraph, start, end) -> set[str]:
    """General-path union between endpoint matches, self-matching
    singletons, then one hull step to adjacent agents/attributes."""
    sources = _endpoint_matches(g, start)
    sinks = _endpoint_matches(g, end)
    core: set[str] = set()
    for s in sources:
        for e in sinks:
            for path, _dirs in enumerate_general_paths(g, s, e):
                core.update(path)
    core.update(set(sources) & set(sinks))
    hull = set(core)
    for vid in core:
        for e in g.edges:
            for other, mine in ((e.dst, e.src), (e.src, e.dst)):
                # a dangling edge's missing end is no vertex to add
                if mine == vid and other in g.vertices and g.vertices[other].vtype in (
                    VertexType.AGENT,
                    VertexType.ATTRIBUTE,
                ):
                    hull.add(other)
    return hull


# ==== merge-table folding ====


def fold_labels(emt, labels: list[EdgeLabel]) -> EdgeLabel:
    """Left-associative fold of a label chain through the merge table."""
    acc = labels[0]
    for nxt in labels[1:]:
        acc = emt.merged(acc, nxt)
    return acc


# ==== scope expansion ====


def naive_conjunction(g: ProvenanceGraph, base: set[str], categories: set[str], category_of) -> set[str]:
    """Grow the base over any-edge adjacency, absorbing neighbors whose
    category belongs to the base's categories, until nothing changes."""
    grown = set(base)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            for a, b in ((e.src, e.dst), (e.dst, e.src)):
                if a in grown and b not in grown:
                    cat = category_of(b)
                    if cat is not None and cat in categories:
                        grown.add(b)
                        changed = True
    return grown


def naive_same_category_components(
    g: ProvenanceGraph, members: set[str]
) -> list[set[str]]:
    """Connected components of ``members`` under any-edge adjacency."""
    remaining = set(members)
    comps: list[set[str]] = []
    while remaining:
        seed = sorted(remaining)[0]
        comp = {seed}
        queue = deque([seed])
        while queue:
            cur = queue.popleft()
            for e in g.edges:
                for a, b in ((e.src, e.dst), (e.dst, e.src)):
                    if a == cur and b in remaining and b not in comp:
                        comp.add(b)
                        queue.append(b)
        comps.append(comp)
        remaining -= comp
    return comps


# ==== effect combination ====


def naive_combine(rows, vertices) -> dict:
    """Per vertex, the highest-ranked effect of any row naming it; every
    one of ``vertices`` starts at permit, and an id outside them enters
    the result when a row first ranks it above permit."""
    from provpolicy.policy import Effect

    out = {vid: Effect.PERMIT for vid in vertices}
    for effect, ids in rows:
        for vid in ids:
            if effect.rank > out.get(vid, Effect.PERMIT).rank:
                out[vid] = effect
    return out


# ==== expressiveness (bounded brute force over the partition grammar) ====


def oracle_spec_union(g: ProvenanceGraph, spec) -> set[str]:
    """Resolve a partition spec by exhaustive enumeration only."""
    from provpolicy.partition import (
        DirectedPathSpec,
        GeneralPathSpec,
        SubgraphSpec,
        VerticesSpec,
    )

    if isinstance(spec, VerticesSpec):
        return oracle_vertices(g, spec.selector)
    if isinstance(spec, DirectedPathSpec):
        return {v for path in oracle_directed(g, spec.start, spec.end, spec.vias) for v in path}
    if isinstance(spec, GeneralPathSpec):
        return {v for path, _ in oracle_general(g, spec.start, spec.end) for v in path}
    if isinstance(spec, SubgraphSpec):
        return oracle_subgraph(g, spec.start, spec.end)
    raise TypeError(f"not a partition spec: {spec!r}")


def oracle_expressible(g: ProvenanceGraph, p, candidates) -> bool:
    return any(oracle_spec_union(g, spec) == set(p.vertex_ids) for spec in candidates)

"""Builders and randomizers shared across test modules."""

from __future__ import annotations

import random

from provpolicy.graph import Edge, EdgeLabel, ProvenanceGraph, Vertex, VertexType
from provpolicy.pathexpr import (
    AttributeValueTest,
    Axis,
    AttrPred,
    NameTest,
    PathExpr,
    PathStep,
    TypedNameTest,
    TypeTest,
    WildcardTest,
)

_T = {
    "Ag": VertexType.AGENT,
    "A": VertexType.ARTIFACT,
    "P": VertexType.PROCESS,
    "Att": VertexType.ATTRIBUTE,
}
_L = {
    "used": EdgeLabel.USED,
    "wgb": EdgeLabel.WAS_GENERATED_BY,
    "wcb": EdgeLabel.WAS_CONTROLLED_BY,
    "wdf": EdgeLabel.WAS_DERIVED_FROM,
    "wtb": EdgeLabel.WAS_TRIGGERED_BY,
    "ha": EdgeLabel.HAS_ATTRIBUTES,
    "wcsd": EdgeLabel.WAS_CAUSED_BY,
}


def V(vid: str, code: str, name: str | None = None, value: str | None = None) -> Vertex:
    return Vertex(vid, _T[code], name if name is not None else vid, value)


def E(src: str, dst: str, label: str, tag: str | None = None) -> Edge:
    return Edge(src, dst, _L[label], tag)


def G(graph_id: str, vertices, edges) -> ProvenanceGraph:
    return ProvenanceGraph(graph_id, vertices, edges)


def random_node_test(rng: random.Random, g: ProvenanceGraph):
    """A node test drawn from the grammar, biased toward tests that hit."""
    vids = sorted(g.vertices)
    v = g.vertices[rng.choice(vids)]
    roll = rng.random()
    if roll < 0.30:
        pool = {v.name}
        while rng.random() < 0.3:
            pool.add(g.vertices[rng.choice(vids)].name)
        if rng.random() < 0.1:
            pool.add("no-such-name")
        return NameTest(tuple(sorted(pool)))
    if roll < 0.45:
        return TypeTest(rng.choice(list(VertexType)))
    if roll < 0.70:
        return TypedNameTest(v.vtype, (v.name,))
    if roll < 0.80:
        return WildcardTest()
    values = [
        w.value for w in g.vertices.values() if w.value is not None
    ] or ["2016"]
    return AttributeValueTest(rng.choice(list(VertexType)), rng.choice(values))


def random_path_expr(rng: random.Random, g: ProvenanceGraph) -> PathExpr:
    """A random effect-direction query of one to four steps."""
    steps = [PathStep(Axis.DESCENDANT, random_node_test(rng, g), _maybe_pred(rng, g))]
    for _ in range(rng.randint(0, 3)):
        axis = rng.choice((Axis.CHILD, Axis.DESCENDANT))
        steps.append(PathStep(axis, random_node_test(rng, g), _maybe_pred(rng, g)))
    return PathExpr(tuple(steps))


def _maybe_pred(rng: random.Random, g: ProvenanceGraph):
    if rng.random() >= 0.15:
        return None
    atts = [v for v in g.vertices.values() if v.vtype is VertexType.ATTRIBUTE]
    if not atts:
        return None
    att = rng.choice(atts)
    return AttrPred(att.name, att.value or "")


def corrupt_graph(
    rng: random.Random, g: ProvenanceGraph, mode: str | None = None
) -> ProvenanceGraph:
    """A structurally broken variant: illegal triple, dangling endpoint,
    cycle, or a value on a non-attribute vertex, drawn at random unless
    ``mode`` names one; ``mode="attribute"`` instead joins an attribute
    vertex to two other vertices by non-hasAttributes edges."""
    vertices = list(g.vertices.values())
    edges = list(g.edges)
    if mode is None:
        mode = rng.choice(("illegal", "dangling", "cycle", "value"))
    if mode == "attribute":
        atts = [v.id for v in vertices if v.vtype is VertexType.ATTRIBUTE]
        others = [v.id for v in vertices if v.vtype is not VertexType.ATTRIBUTE]
        if atts and len(others) >= 2:
            att = rng.choice(atts)
            a, b = rng.sample(others, 2)
            edges += [Edge(a, att, EdgeLabel.USED), Edge(att, b, EdgeLabel.WAS_DERIVED_FROM)]
        else:
            mode = "dangling"
    if mode == "illegal":
        agents = [v.id for v in vertices if v.vtype is VertexType.AGENT]
        artifacts = [v.id for v in vertices if v.vtype is VertexType.ARTIFACT]
        if agents and artifacts:
            edges.append(Edge(rng.choice(agents), rng.choice(artifacts), EdgeLabel.USED))
        else:
            mode = "dangling"
    if mode == "dangling":
        edges.append(Edge("ghost-src", vertices[0].id, EdgeLabel.WAS_DERIVED_FROM))
    if mode == "cycle":
        stored = [e for e in edges if e.label is not EdgeLabel.HAS_ATTRIBUTES]
        if stored:
            e = rng.choice(stored)
            back = {
                EdgeLabel.USED: EdgeLabel.WAS_GENERATED_BY,
                EdgeLabel.WAS_GENERATED_BY: EdgeLabel.USED,
                EdgeLabel.WAS_DERIVED_FROM: EdgeLabel.WAS_DERIVED_FROM,
                EdgeLabel.WAS_TRIGGERED_BY: EdgeLabel.WAS_TRIGGERED_BY,
                EdgeLabel.WAS_CONTROLLED_BY: EdgeLabel.WAS_CONTROLLED_BY,
            }[e.label]
            edges.append(Edge(e.dst, e.src, back))
        else:
            edges.append(Edge("ghost-src", vertices[0].id, EdgeLabel.WAS_DERIVED_FROM))
    if mode == "value":
        target = next(
            (v for v in vertices if v.vtype is not VertexType.ATTRIBUTE), None
        )
        if target is None:
            edges.append(Edge("ghost-src", vertices[0].id, EdgeLabel.WAS_DERIVED_FROM))
        else:
            vertices = [
                Vertex(v.id, v.vtype, v.name, "stray") if v.id == target.id else v
                for v in vertices
            ]
    return ProvenanceGraph(g.id + "-broken", vertices, edges)

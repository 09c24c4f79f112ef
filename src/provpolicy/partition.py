"""Partition selectors and their resolution against a graph.

A partition is the unit a policy protects: a set of vertices plus the
edges they induce. Four spec kinds exist::

    vertices (SEL)               every vertex matching one node test
    directed (SEL // SEL ...)    union of chronological paths, optional
                                 via selectors between the endpoints
    general (SEL // SEL)         union of mixed-direction paths
    subgraphs (SEL // SEL)       general-path union plus a one-step hull
                                 of adjacent agent/attribute vertices

Subgraph endpoints may also be the terminals START / END, which expand to
the chronologically first / last vertices of the graph. The sugar forms
``subgraphs(SEL /following::*)`` and ``subgraphs(SEL /preceding::*)``
denote the span from the graph's beginning to the selector and from the
selector to the graph's end, respectively.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ExprSyntaxError
from .graph import Edge, ProvenanceGraph, VertexType, induced_edges
from .pathexpr import (
    ExpressionParser,
    IdSetTest,
    NodeTest,
    Terminal,
    matching_ids,
    node_test_to_text,
)
from .query import eval_directed_path, eval_general_path, general_union


@dataclass(frozen=True)
class VerticesSpec:
    selector: NodeTest


@dataclass(frozen=True)
class DirectedPathSpec:
    start: NodeTest
    vias: tuple[NodeTest, ...]
    end: NodeTest


@dataclass(frozen=True)
class GeneralPathSpec:
    start: NodeTest
    end: NodeTest


@dataclass(frozen=True)
class SubgraphSpec:
    start: NodeTest | Terminal
    end: NodeTest | Terminal


PartitionSpec = VerticesSpec | DirectedPathSpec | GeneralPathSpec | SubgraphSpec


@dataclass(frozen=True)
class Partition:
    """A resolved partition: vertex ids of ``graph``. The edges among them
    are listed on first read."""

    vertex_ids: frozenset[str]
    graph: ProvenanceGraph = field(compare=False, repr=False)

    @property
    def is_empty(self) -> bool:
        return not self.vertex_ids

    @cached_property
    def induced(self) -> tuple[Edge, ...]:
        return induced_edges(self.graph, self.vertex_ids)


# ==== resolution ====


def resolve_vertices(g: ProvenanceGraph, spec: VerticesSpec) -> Partition:
    return Partition(matching_ids(spec.selector, g), g)


def _anchor_test(g: ProvenanceGraph, endpoint: NodeTest | Terminal) -> NodeTest:
    if endpoint is Terminal.START:
        return IdSetTest(g.start_vertices())
    if endpoint is Terminal.END:
        return IdSetTest(g.end_vertices())
    return endpoint


def agent_attribute_hull(g: ProvenanceGraph, core: Collection[str]) -> frozenset[str]:
    """``core`` plus the agent and attribute vertices adjacent to it (but
    not their own neighbors)."""
    hull = set(core)
    for vid in core:
        for n in g.all_neighbors(vid):
            if g.vertices[n].vtype in (VertexType.AGENT, VertexType.ATTRIBUTE):
                hull.add(n)
    return frozenset(hull)


def resolve_path(g: ProvenanceGraph, spec: DirectedPathSpec | GeneralPathSpec) -> Partition:
    if isinstance(spec, DirectedPathSpec):
        paths = eval_directed_path(g, spec.start, spec.end, via=spec.vias)
    else:
        paths = eval_general_path(g, spec.start, spec.end)
    return Partition(frozenset(vid for p in paths for vid in p.vertices), g)


def resolve_subgraph(g: ProvenanceGraph, spec: SubgraphSpec) -> Partition:
    """General-path union between the endpoint matches, from the block-cut
    forest (``query.general_union``), then a one-step hull: agent and
    attribute vertices adjacent to the core join the partition (their own
    neighbors do not). A vertex matched by both endpoints joins the core
    by itself."""
    starts = matching_ids(_anchor_test(g, spec.start), g)
    ends = matching_ids(_anchor_test(g, spec.end), g)
    core = general_union(g, starts, ends) | (starts & ends)
    return Partition(agent_attribute_hull(g, core), g)


def resolve(g: ProvenanceGraph, spec: PartitionSpec) -> Partition:
    if isinstance(spec, VerticesSpec):
        return resolve_vertices(g, spec)
    if isinstance(spec, (DirectedPathSpec, GeneralPathSpec)):
        return resolve_path(g, spec)
    if isinstance(spec, SubgraphSpec):
        return resolve_subgraph(g, spec)
    raise TypeError(f"not a partition spec: {spec!r}")


# ==== text form ====

PARTITION_KINDS = ("vertices", "directed", "general", "subgraphs")


def parse_partition_expr(text: str) -> PartitionSpec:
    """Parse the text form of a partition spec.

    Separators between selectors may be written ``//``, ``/``,
    ``,`` or the gap token ``\\v+`` in any combination. Stray ``>``
    characters are skipped: they appear in hand-authored policy text.
    """
    p = ExpressionParser(text, tolerate_gt=True)
    p.skip_ws()
    kind = None
    for candidate in PARTITION_KINDS:
        if p.try_literal(candidate):
            kind = candidate
            break
    if kind is None:
        raise p.error("expected a partition kind", PARTITION_KINDS)
    p.expect_literal("(")

    if kind == "vertices":
        sel = _parse_endpoint(p, allow_terminal=False)
        p.expect_literal(")")
        _expect_done(p)
        return VerticesSpec(sel)

    endpoints: list[NodeTest | Terminal] = [
        _parse_endpoint(p, allow_terminal=kind == "subgraphs")
    ]
    tail: Terminal | None = None
    while True:
        sep, axis_tail = _parse_separator(p)
        if axis_tail is not None:
            tail = axis_tail
            break
        if not sep:
            break
        endpoints.append(_parse_endpoint(p, allow_terminal=kind == "subgraphs"))
    p.expect_literal(")")
    _expect_done(p)

    if tail is not None:
        if kind != "subgraphs" or len(endpoints) != 1:
            raise p.error("following/preceding is only valid after a single "
                          "subgraphs selector", ())
        sel = endpoints[0]
        if isinstance(sel, Terminal):
            raise p.error("terminal cannot combine with following/preceding", ())
        # (v/following::*) spans from the graph's beginning to v;
        # (v/preceding::*) spans from v to the graph's end.
        if tail is Terminal.START:
            return SubgraphSpec(Terminal.START, sel)
        return SubgraphSpec(sel, Terminal.END)

    if len(endpoints) < 2:
        raise p.error(f"{kind} needs a start and an end selector", ("//",))
    if kind == "directed":
        start, *vias, end = endpoints
        return DirectedPathSpec(start, tuple(vias), end)  # type: ignore[arg-type]
    if len(endpoints) != 2:
        raise p.error(f"{kind} takes exactly two selectors", (")",))
    start, end = endpoints
    if kind == "general":
        if isinstance(start, Terminal) or isinstance(end, Terminal):
            raise p.error("terminals are only valid in subgraphs(...)", ())
        return GeneralPathSpec(start, end)
    return SubgraphSpec(start, end)


def _parse_endpoint(p: ExpressionParser, *, allow_terminal: bool) -> NodeTest | Terminal:
    save = p.pos
    if p.peek().isalpha():
        word = p.scan_name()
        if word in ("START", "END"):
            if not allow_terminal:
                raise p.error("terminals are only valid in subgraphs(...)", ())
            return Terminal[word]
        p.pos = save
    return p.parse_node_test()


def _parse_separator(p: ExpressionParser) -> tuple[bool, Terminal | None]:
    """Consume selector separators; returns (saw a gap, following/preceding)."""
    saw = False
    while True:
        if p.try_literal("//") or p.try_literal(",") or p.try_literal("\\v+"):
            saw = True
            continue
        if p.try_literal("/"):
            if p.try_literal("following::*"):
                return saw, Terminal.START
            if p.try_literal("preceding::*"):
                return saw, Terminal.END
            saw = True
            continue
        return saw, None


def _expect_done(p: ExpressionParser) -> None:
    if not p.at_end():
        raise p.error("trailing input after partition expression", ())


def partition_to_text(spec: PartitionSpec) -> str:
    def end_text(e: NodeTest | Terminal) -> str:
        return e.value if isinstance(e, Terminal) else node_test_to_text(e)

    if isinstance(spec, VerticesSpec):
        return f"vertices({node_test_to_text(spec.selector)})"
    if isinstance(spec, DirectedPathSpec):
        parts = [spec.start, *spec.vias, spec.end]
        return "directed(" + " // ".join(node_test_to_text(s) for s in parts) + ")"
    if isinstance(spec, GeneralPathSpec):
        return (
            f"general({node_test_to_text(spec.start)} // {node_test_to_text(spec.end)})"
        )
    if isinstance(spec, SubgraphSpec):
        return f"subgraphs({end_text(spec.start)} // {end_text(spec.end)})"
    raise TypeError(f"not a partition spec: {spec!r}")

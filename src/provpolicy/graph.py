"""Data model for typed, labelled provenance DAGs.

Vertices are agents, artifacts, processes, or attributes. Edges carry a
dependency label and point from an effect to its cause, i.e. backward in
time: ``(replace1, o1v1, used)`` records that process replace1 used
artifact o1v1, which therefore existed first. Attribute vertices hang off
the other kinds via hasAttributes edges and take no part in traversal or
acyclicity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from typing import Any, Iterable, Iterator, KeysView

from .errors import GraphFormatError, UnknownVertexError


class VertexType(Enum):
    """The four vertex kinds a provenance graph may contain."""

    AGENT = "agent"
    ARTIFACT = "artifact"
    PROCESS = "process"
    ATTRIBUTE = "attribute"

    @property
    def code(self) -> str:
        """Short selector code used in expressions (Ag, A, P, Att)."""
        return _TYPE_CODE[self]


_TYPE_CODE = {
    VertexType.AGENT: "Ag",
    VertexType.ARTIFACT: "A",
    VertexType.PROCESS: "P",
    VertexType.ATTRIBUTE: "Att",
}

TYPE_BY_CODE = {code: vtype for vtype, code in _TYPE_CODE.items()}


class EdgeLabel(Enum):
    USED = "used"
    WAS_GENERATED_BY = "wasGeneratedBy"
    WAS_CONTROLLED_BY = "wasControlledBy"
    WAS_TRIGGERED_BY = "wasTriggeredBy"
    WAS_DERIVED_FROM = "wasDerivedFrom"
    HAS_ATTRIBUTES = "hasAttributes"
    # Never legal in an input graph; transformations introduce it when a
    # merged or rewired dependency has no schema-legal label.
    WAS_CAUSED_BY = "wasCausedBy"


LABEL_BY_VALUE = {label.value: label for label in EdgeLabel}


class Direction(Enum):
    """Traversal direction relative to time.

    A cause step runs against the stored edge orientation (forward in
    time, from a cause to one of its effects); an effect step follows the
    stored orientation (backward in time).
    """

    CAUSE = "cause"
    EFFECT = "effect"


#: (source type, target type, label) triples allowed in input graphs.
EDGE_SCHEMA: frozenset[tuple[VertexType, VertexType, EdgeLabel]] = frozenset(
    {
        (VertexType.PROCESS, VertexType.ARTIFACT, EdgeLabel.USED),
        (VertexType.ARTIFACT, VertexType.PROCESS, EdgeLabel.WAS_GENERATED_BY),
        (VertexType.PROCESS, VertexType.AGENT, EdgeLabel.WAS_CONTROLLED_BY),
        (VertexType.ARTIFACT, VertexType.ARTIFACT, EdgeLabel.WAS_DERIVED_FROM),
        (VertexType.PROCESS, VertexType.PROCESS, EdgeLabel.WAS_TRIGGERED_BY),
        (VertexType.AGENT, VertexType.ATTRIBUTE, EdgeLabel.HAS_ATTRIBUTES),
        (VertexType.PROCESS, VertexType.ATTRIBUTE, EdgeLabel.HAS_ATTRIBUTES),
        (VertexType.ARTIFACT, VertexType.ATTRIBUTE, EdgeLabel.HAS_ATTRIBUTES),
    }
)


def edge_is_legal(
    src_type: VertexType,
    dst_type: VertexType,
    label: EdgeLabel,
    *,
    allow_was_caused_by: bool = False,
) -> bool:
    """Check a (source type, target type, label) triple against the schema.

    wasCausedBy is legal between any two non-attribute vertex types, but
    only in graphs that have been through a transformation.
    """
    if label is EdgeLabel.WAS_CAUSED_BY:
        return (
            allow_was_caused_by
            and src_type is not VertexType.ATTRIBUTE
            and dst_type is not VertexType.ATTRIBUTE
        )
    return (src_type, dst_type, label) in EDGE_SCHEMA


@dataclass(frozen=True)
class Vertex:
    """A graph vertex. ``value`` is meaningful only for attribute vertices."""

    id: str
    vtype: VertexType
    name: str
    value: str | None = None


@dataclass(frozen=True)
class Edge:
    """A stored edge from effect to cause, optionally carrying an
    application-level tag (such as ``g_upload``) that is preserved but
    never matched on."""

    src: str
    dst: str
    label: EdgeLabel
    tag: str | None = None


def edge_sort_key(e: Edge) -> tuple[str, str, str, str]:
    return (e.src, e.dst, e.label.value, e.tag or "")


@dataclass(frozen=True)
class Violation:
    """One schema violation found by validate_graph."""

    kind: str
    message: str


class ProvenanceGraph:
    """An immutable provenance graph with prebuilt adjacency indexes."""

    __slots__ = ("id", "vertices", "_edges", "_out", "_in", "_ha_out", "_ha_in", "_names",
                 "_types", "_values", "_categories", "_neighbors", "_forest", "_valid",
                 "_derived")

    def __init__(self, graph_id: str, vertices: Iterable[Vertex], edges: Iterable[Edge]) -> None:
        self.id = graph_id
        vs: dict[str, Vertex] = {}
        for v in vertices:
            if v.id in vs:
                raise GraphFormatError(f"duplicate vertex id {v.id!r}")
            vs[v.id] = v
        self.vertices: dict[str, Vertex] = vs
        self._edges: dict[Edge, None] = dict.fromkeys(edges)
        # lookups built on first use: by name or id, by type, by (type,
        # attribute value), per dictionary a vertex -> category map and
        # the components of its category sets, each vertex's neighbours
        # over every edge, and the block-cut forest of the non-attribute
        # edges
        self._names: dict[str, frozenset[str]] | None = None
        self._types: dict[VertexType, frozenset[str]] | None = None
        self._values: dict[tuple[VertexType, str], frozenset[str]] | None = None
        self._categories: dict[Any, tuple[dict[str, Any], dict[str, Any]]] | None = None
        self._neighbors: dict[str, frozenset[str]] | None = None
        self._forest: tuple[tuple[tuple[str, tuple[str, ...]], ...], ...] | None = None
        # whether validate_graph(self, allow_was_caused_by=True) is empty,
        # once a check has found out
        self._valid: bool | None = None
        # for a successor: the graph its chain of steps started from, and
        # whether every vertex and edge those steps added was legal
        self._derived: tuple[ProvenanceGraph, bool] | None = None

        out: dict[str, list[Edge]] = {}
        inc: dict[str, list[Edge]] = {}
        ha_out: dict[str, list[Edge]] = {}
        ha_in: dict[str, list[Edge]] = {}
        for e in self._edges:
            if e.src not in vs or e.dst not in vs:
                continue  # dangling edges are reported by validate_graph
            if e.label is EdgeLabel.HAS_ATTRIBUTES:
                ha_out.setdefault(e.src, []).append(e)
                ha_in.setdefault(e.dst, []).append(e)
            else:
                out.setdefault(e.src, []).append(e)
                inc.setdefault(e.dst, []).append(e)
        self._out = {k: tuple(sorted(v, key=edge_sort_key)) for k, v in out.items()}
        self._in = {k: tuple(sorted(v, key=edge_sort_key)) for k, v in inc.items()}
        self._ha_out = {k: tuple(sorted(v, key=edge_sort_key)) for k, v in ha_out.items()}
        self._ha_in = {k: tuple(sorted(v, key=edge_sort_key)) for k, v in ha_in.items()}

    def _successor(
        self,
        drop: Iterable[str],
        add_vertices: Iterable[Vertex] = (),
        add_edges: Iterable[Edge] = (),
    ) -> ProvenanceGraph:
        """This graph without the vertices ``drop`` and every edge touching
        them, plus ``add_vertices`` and ``add_edges``. For a parent without
        dangling edges it equals the graph built afresh from the result.

        The parent's dicts are copied whole, which hashes no vertex or
        edge again; only the adjacency entries of vertices that lose or
        gain an edge are re-sorted. The result records, in ``_derived``,
        its chain's first graph and whether everything the chain added was
        legal: each new vertex without a value, each new edge between
        present vertices in a legal triple, wasCausedBy allowed.
        """
        g = object.__new__(ProvenanceGraph)
        g.id = self.id
        g.vertices = vs = self.vertices.copy()
        g._edges = es = self._edges.copy()
        g._names = g._types = g._values = g._categories = g._neighbors = g._forest = None
        g._valid = None
        g._out, g._in = self._out.copy(), self._in.copy()
        g._ha_out, g._ha_in = self._ha_out.copy(), self._ha_in.copy()
        # indexes by position: 0/1 keyed by src/dst, 2/3 the same for
        # hasAttributes edges
        tables = (g._out, g._in, g._ha_out, g._ha_in)
        touched: dict[tuple[int, str], list[Edge]] = {}

        def entries(e: Edge) -> tuple[tuple[int, str], tuple[int, str]]:
            t = 2 if e.label is EdgeLabel.HAS_ATTRIBUTES else 0
            return (t, e.src), (t + 1, e.dst)

        dropped = set(drop)
        for vid in dropped:
            del vs[vid]
            for table in tables:
                for e in table.pop(vid, ()):
                    es.pop(e, None)
                    for key in entries(e):
                        if key[1] not in dropped:
                            touched.setdefault(key, [])
        origin, legal = self._derived or (self, True)
        for v in add_vertices:
            if v.id in vs:
                raise GraphFormatError(f"duplicate vertex id {v.id!r}")
            vs[v.id] = v
            legal = legal and v.value is None
        for e in add_edges:
            if e in es:
                continue
            es[e] = None
            if e.src in vs and e.dst in vs:
                for key in entries(e):
                    touched.setdefault(key, []).append(e)
                legal = legal and edge_is_legal(
                    vs[e.src].vtype, vs[e.dst].vtype, e.label, allow_was_caused_by=True
                )
            else:
                legal = False
        g._derived = (origin, legal)

        for (t, vid), added in touched.items():
            kept = [
                e for e in tables[t].get(vid, ())
                if e.src not in dropped and e.dst not in dropped
            ]
            if kept or added:
                tables[t][vid] = tuple(sorted(kept + added, key=edge_sort_key))
            else:
                tables[t].pop(vid, None)
        return g

    @property
    def edges(self) -> KeysView[Edge]:
        """Every stored edge, each once, attribute attachments included."""
        return self._edges.keys()

    def ids_named(self, name: str) -> frozenset[str]:
        """Ids of the vertices whose name or id is ``name``. The lookup map
        is built on the first call."""
        if self._names is None:
            names: dict[str, set[str]] = {}
            for vid, v in self.vertices.items():
                names.setdefault(v.name, set()).add(vid)
                names.setdefault(vid, set()).add(vid)
            self._names = {k: frozenset(ids) for k, ids in names.items()}
        return self._names.get(name, frozenset())

    def ids_of_type(self, vtype: VertexType) -> frozenset[str]:
        """Ids of the vertices of type ``vtype``. The lookup map is built
        on the first call."""
        if self._types is None:
            types: dict[VertexType, set[str]] = {}
            for vid, v in self.vertices.items():
                types.setdefault(v.vtype, set()).add(vid)
            self._types = {t: frozenset(ids) for t, ids in types.items()}
        return self._types.get(vtype, frozenset())

    def ids_with_value(self, vtype: VertexType, value: str) -> frozenset[str]:
        """Ids of the vertices of type ``vtype`` that carry ``value``: an
        attribute vertex its own value, any other vertex the value of an
        attribute vertex attached to it (a missing value read as "", as in
        ``attribute_pairs``). The lookup map is built on the first call."""
        if self._values is None:
            values: dict[tuple[VertexType, str], set[str]] = {}
            for vid, v in self.vertices.items():
                if v.vtype is VertexType.ATTRIBUTE:
                    if v.value is not None:
                        values.setdefault((v.vtype, v.value), set()).add(vid)
                    continue
                for e in self._ha_out.get(vid, ()):
                    att = self.vertices[e.dst]
                    if att.vtype is VertexType.ATTRIBUTE:
                        key = (v.vtype, att.value if att.value is not None else "")
                        values.setdefault(key, set()).add(vid)
            self._values = {k: frozenset(ids) for k, ids in values.items()}
        return self._values.get((vtype, value), frozenset())

    # ==== basic access ====

    def __contains__(self, vid: str) -> bool:
        return vid in self.vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceGraph):
            return NotImplemented
        return (
            self.id == other.id
            and self.vertices == other.vertices
            and frozenset(self.edges) == frozenset(other.edges)
        )

    __hash__ = None  # type: ignore[assignment]

    def vertex(self, vid: str) -> Vertex:
        try:
            return self.vertices[vid]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex id {vid!r} in graph {self.id!r}") from None

    def _require(self, vid: str) -> None:
        if vid not in self.vertices:
            raise UnknownVertexError(f"unknown vertex id {vid!r} in graph {self.id!r}")

    # ==== traversal ====

    def effect_edges(self, vid: str) -> tuple[Edge, ...]:
        """Non-attribute stored edges leaving ``vid`` (one effect step each)."""
        self._require(vid)
        return self._out.get(vid, ())

    def cause_edges(self, vid: str) -> tuple[Edge, ...]:
        """Non-attribute stored edges entering ``vid`` (one cause step each,
        when traversed in reverse)."""
        self._require(vid)
        return self._in.get(vid, ())

    def effect_successors(self, vid: str) -> set[tuple[str, EdgeLabel]]:
        """Vertices one effect step away, with the connecting label."""
        return {(e.dst, e.label) for e in self.effect_edges(vid)}

    def cause_successors(self, vid: str) -> set[tuple[str, EdgeLabel]]:
        """Vertices one cause step away (forward in time), with the label."""
        return {(e.src, e.label) for e in self.cause_edges(vid)}

    def attribute_pairs(self, vid: str) -> set[tuple[str, str]]:
        """All (name, value) pairs of attribute vertices attached to ``vid``."""
        self._require(vid)
        pairs = set()
        for e in self._ha_out.get(vid, ()):
            att = self.vertices.get(e.dst)
            if att is not None and att.vtype is VertexType.ATTRIBUTE:
                pairs.add((att.name, att.value if att.value is not None else ""))
        return pairs

    def attributes_of(self, vid: str) -> dict[str, str]:
        """Attached attributes as a name -> value mapping.

        If two attribute vertices share a name, the pair that sorts first
        by (name, value) wins; attribute_pairs exposes the full set.
        """
        out: dict[str, str] = {}
        for name, value in sorted(self.attribute_pairs(vid)):
            out.setdefault(name, value)
        return out

    def undirected_neighbors(self, vid: str) -> set[str]:
        """Neighbors over non-attribute edges, ignoring orientation."""
        self._require(vid)
        ids = {e.dst for e in self._out.get(vid, ())}
        ids.update(e.src for e in self._in.get(vid, ()))
        return ids

    def all_neighbors(self, vid: str) -> frozenset[str]:
        """Neighbors over every edge, attribute attachments included. The
        neighbour map is built on the first call."""
        if self._neighbors is None:
            nbs: dict[str, set[str]] = {v: set() for v in self.vertices}
            for table in (self._out, self._ha_out):
                for src, edges in table.items():
                    for e in edges:
                        nbs[src].add(e.dst)
                        nbs[e.dst].add(src)
            self._neighbors = {v: frozenset(ids) for v, ids in nbs.items()}
        try:
            return self._neighbors[vid]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex id {vid!r} in graph {self.id!r}") from None

    def block_forest(self) -> tuple[tuple[tuple[str, tuple[str, ...]], ...], ...]:
        """The block-cut forest of the non-attribute edges, whatever the
        vertex types (Hopcroft and Tarjan, 1973, iterative): per connected
        component with an edge, its blocks (biconnected components) as
        ``(head, members)``. The head is the block's vertex nearest the
        depth-first root: the cut vertex above the block in the rooted
        block-cut tree, or the root. Blocks come children first, so every
        block headed at a member comes before the member's own block, and
        the last block's head is the component's root. Built on the first
        call."""
        if self._forest is None:
            disc: dict[str, int] = {}
            low: dict[str, int] = {}
            forest = []

            def ends(v: str) -> Iterator[str]:
                # a self-loop or a second edge to a neighbour only lowers
                # low[v] to a discovery number no lower than its parent's
                yield from (e.dst for e in self._out.get(v, ()))
                yield from (e.src for e in self._in.get(v, ()))

            for root in self.vertices:
                if root in disc:
                    continue
                disc[root] = low[root] = len(disc)
                blocks: list[tuple[str, tuple[str, ...]]] = []
                found: list[str] = []  # discovered, not yet in a block
                walk = [(root, 0, ends(root))]
                while walk:
                    v, at, todo = walk[-1]
                    for w in todo:
                        if w not in disc:
                            disc[w] = low[w] = len(disc)
                            walk.append((w, len(found), ends(w)))
                            found.append(w)
                            break
                        low[v] = min(low[v], disc[w])
                    else:
                        walk.pop()
                        if walk:
                            parent = walk[-1][0]
                            if low[v] >= disc[parent]:
                                blocks.append((parent, tuple(found[at:])))
                                del found[at:]
                            low[parent] = min(low[parent], low[v])
                if blocks:
                    forest.append(tuple(blocks))
            self._forest = tuple(forest)
        return self._forest

    def attribute_edges(self, vid: str) -> tuple[Edge, ...]:
        """hasAttributes edges leaving ``vid`` for its attribute vertices."""
        self._require(vid)
        return self._ha_out.get(vid, ())

    def attribute_host_edges(self, vid: str) -> tuple[Edge, ...]:
        """hasAttributes edges pointing at the attribute vertex ``vid``."""
        self._require(vid)
        return self._ha_in.get(vid, ())

    # ==== terminals ====

    def start_vertices(self) -> frozenset[str]:
        """Chronologically first vertices: nothing they depend on, i.e. no
        outgoing non-attribute stored edge. Attribute vertices excluded."""
        return frozenset(
            vid
            for vid, v in self.vertices.items()
            if v.vtype is not VertexType.ATTRIBUTE and not self._out.get(vid)
        )

    def end_vertices(self) -> frozenset[str]:
        """Chronologically last vertices: nothing depends on them, i.e. no
        incoming non-attribute stored edge. Attribute vertices excluded."""
        return frozenset(
            vid
            for vid, v in self.vertices.items()
            if v.vtype is not VertexType.ATTRIBUTE and not self._in.get(vid)
        )


def induced_edges(g: ProvenanceGraph, ids: frozenset[str] | set[str]) -> tuple[Edge, ...]:
    """Edges of ``g`` between vertices in ``ids``, canonically sorted."""
    return tuple(
        sorted(
            (
                e
                for vid in ids
                for e in (*g._out.get(vid, ()), *g._ha_out.get(vid, ()))
                if e.dst in ids
            ),
            key=edge_sort_key,
        )
    )


# ==== validation ====


def validate_graph(
    g: ProvenanceGraph, *, allow_was_caused_by: bool = False
) -> list[Violation]:
    """Return every schema violation in ``g``; an empty list means valid.

    Checks: values on non-attribute vertices, dangling edge endpoints,
    edges leaving attribute vertices, triples outside the edge schema,
    and cycles among non-hasAttributes edges.
    """
    violations: list[Violation] = []

    # vertices and edges are checked in any order; only the offending
    # ones are sorted
    vs = g.vertices
    for vid in sorted(
        vid for vid, v in vs.items()
        if v.value is not None and v.vtype is not VertexType.ATTRIBUTE
    ):
        violations.append(
            Violation(
                "value-on-non-attribute",
                f"vertex {vid!r} has a value but is of type {vs[vid].vtype.value}",
            )
        )

    placed: list[Edge] = []
    dangling: list[Edge] = []
    offending: list[Edge] = []
    for e in g.edges:
        if e.src not in vs or e.dst not in vs:
            dangling.append(e)
            continue
        placed.append(e)
        src_t = vs[e.src].vtype
        if src_t is VertexType.ATTRIBUTE or not edge_is_legal(
            src_t, vs[e.dst].vtype, e.label, allow_was_caused_by=allow_was_caused_by
        ):
            offending.append(e)

    for e in sorted(dangling, key=edge_sort_key):
        missing = [end for end in (e.src, e.dst) if end not in vs]
        violations.append(
            Violation(
                "dangling-edge",
                f"edge ({e.src}, {e.dst}, {e.label.value}) references "
                f"missing vertex id(s) {', '.join(repr(m) for m in missing)}",
            )
        )

    for e in sorted(offending, key=edge_sort_key):
        src_t = vs[e.src].vtype
        dst_t = vs[e.dst].vtype
        if src_t is VertexType.ATTRIBUTE:
            violations.append(
                Violation(
                    "attribute-out-edge",
                    f"attribute vertex {e.src!r} has an outgoing edge "
                    f"({e.src}, {e.dst}, {e.label.value})",
                )
            )
            continue
        violations.append(
            Violation(
                "illegal-edge",
                f"({src_t.code}, {dst_t.code}, {e.label.value}) is not an "
                f"allowed edge triple: ({e.src}, {e.dst}, {e.label.value})",
            )
        )

    violations.extend(_cycle_violations(g, placed))
    return violations


def _cycle_violations(g: ProvenanceGraph, placed: list[Edge]) -> list[Violation]:
    """One violation per strongly connected component among non-ha edges."""
    adj: dict[str, list[str]] = {vid: [] for vid in g.vertices}
    self_loops = []
    for e in placed:
        if e.label is EdgeLabel.HAS_ATTRIBUTES:
            continue
        if e.src == e.dst:
            self_loops.append(e)
            continue
        adj[e.src].append(e.dst)
    if not self_loops and len(kahn_order(adj)) == len(adj):
        return []
    for neighbors in adj.values():
        neighbors.sort()

    out: list[Violation] = []
    for e in sorted(self_loops, key=edge_sort_key):
        out.append(
            Violation("cycle", f"self-loop on vertex {e.src!r} via {e.label.value}")
        )

    # Iterative Tarjan; components of size > 1 are cycles.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    sccs: list[list[str]] = []

    for root in sorted(g.vertices):
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            neighbors = adj[node]
            if ei < len(neighbors):
                work[-1] = (node, ei + 1)
                nxt = neighbors[ei]
                if nxt not in index:
                    work.append((nxt, 0))
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1:
                        sccs.append(sorted(comp))

    for comp in sorted(sccs):
        out.append(
            Violation("cycle", "cycle among non-attribute edges: " + ", ".join(comp))
        )
    return out


def kahn_order(adj: dict[str, list[str]]) -> list[str]:
    """Kahn's topological order of the vertices keyed in ``adj``, each
    mapped to its successors, which must be keys too. Vertices on a cycle,
    or after one, are left out."""
    indeg = dict.fromkeys(adj, 0)
    for targets in adj.values():
        for w in targets:
            indeg[w] += 1
    order = [v for v, d in indeg.items() if not d]
    for v in order:  # grows while it is walked
        for w in adj[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    return order


# ==== serialization ====


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def save_graph(g: ProvenanceGraph) -> str:
    """Serialize to canonical JSON: sorted vertices/edges, stable key order,
    two-space indent, non-ASCII text kept. The text is built directly, as
    ``json.dumps`` with an indent runs the pure-Python encoder; strings go
    through the same escaping function that ``json.dumps`` uses."""
    q = encode_basestring
    vertices = []
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        value = "" if v.value is None else f',\n      "value": {q(v.value)}'
        vertices.append(f'    {{\n      "id": {q(v.id)},\n      "type": "{v.vtype.value}",'
                        f'\n      "name": {q(v.name)}{value}\n    }}')
    edges = []
    for e in sorted(g.edges, key=edge_sort_key):
        tag = "" if e.tag is None else f',\n      "tag": {q(e.tag)}'
        edges.append(f'    {{\n      "src": {q(e.src)},\n      "dst": {q(e.dst)},'
                     f'\n      "label": "{e.label.value}"{tag}\n    }}')
    return (f'{{\n  "id": {q(g.id)},\n  "vertices": {_json_list(vertices)},'
            f'\n  "edges": {_json_list(edges)}\n}}\n')


def structural_hash(g: ProvenanceGraph) -> str:
    """Hash of the canonical serialization; used to assert non-mutation."""
    return hashlib.sha256(save_graph(g).encode("utf-8")).hexdigest()


_VERTEX_KEYS = {"id", "type", "name", "value"}
_EDGE_KEYS = {"src", "dst", "label", "tag"}
_TYPE_BY_VALUE = {t.value: t for t in VertexType}


def _expect_str(obj: Any, key: str, where: str) -> str:
    val = obj.get(key)
    if not isinstance(val, str):
        raise GraphFormatError(f"field {key!r} must be a string", where)
    return val


def load_graph(data: str | bytes) -> ProvenanceGraph:
    """Parse a graph document. Structural problems raise GraphFormatError
    with a field location; schema violations are left to validate_graph."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise GraphFormatError("invalid JSON: nesting too deep") from exc

    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(doc) - {"id", "vertices", "edges"}
    if unknown:
        raise GraphFormatError(f"unknown top-level field(s): {sorted(unknown)}")
    graph_id = _expect_str(doc, "id", "id")

    raw_vertices = doc.get("vertices", [])
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")

    vertices: list[Vertex] = []
    for i, item in enumerate(raw_vertices):
        where = f"vertices[{i}]"
        if not isinstance(item, dict):
            raise GraphFormatError("vertex entry must be an object", where)
        unknown = set(item) - _VERTEX_KEYS
        if unknown:
            raise GraphFormatError(f"unknown field(s): {sorted(unknown)}", where)
        vid = _expect_str(item, "id", where)
        tval = _expect_str(item, "type", where)
        if tval not in _TYPE_BY_VALUE:
            raise GraphFormatError(f"unknown vertex type {tval!r}", f"{where}.type")
        name = _expect_str(item, "name", where)
        value = item.get("value")
        if value is not None and not isinstance(value, str):
            raise GraphFormatError("field 'value' must be a string", f"{where}.value")
        vertices.append(Vertex(vid, _TYPE_BY_VALUE[tval], name, value))

    edges: list[Edge] = []
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise GraphFormatError("edge entry must be an object", where)
        unknown = set(item) - _EDGE_KEYS
        if unknown:
            raise GraphFormatError(f"unknown field(s): {sorted(unknown)}", where)
        src = _expect_str(item, "src", where)
        dst = _expect_str(item, "dst", where)
        lval = _expect_str(item, "label", where)
        if lval not in LABEL_BY_VALUE:
            raise GraphFormatError(f"unknown edge label {lval!r}", f"{where}.label")
        tag = item.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise GraphFormatError("field 'tag' must be a string", f"{where}.tag")
        edges.append(Edge(src, dst, LABEL_BY_VALUE[lval], tag))

    return ProvenanceGraph(graph_id, vertices, edges)


# ==== DOT export ====

_DOT_SHAPE = {
    VertexType.ARTIFACT: "oval",
    VertexType.PROCESS: "rectangle",
    VertexType.AGENT: "octagon",
    VertexType.ATTRIBUTE: "note",
}


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: ProvenanceGraph) -> str:
    """Graphviz rendering with one shape per vertex kind."""
    lines = [f"digraph {_dot_quote(g.id)} {{"]
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        label = v.name if v.value is None else f"{v.name} = {v.value}"
        lines.append(
            f"  {_dot_quote(vid)} [label={_dot_quote(label)}, "
            f"shape={_DOT_SHAPE[v.vtype]}];"
        )
    for e in sorted(g.edges, key=edge_sort_key):
        label = e.label.value if e.tag is None else f"{e.label.value} ({e.tag})"
        lines.append(
            f"  {_dot_quote(e.src)} -> {_dot_quote(e.dst)} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Path evaluation over provenance graphs.

All three evaluators enumerate simple paths (no repeated vertex) over
non-attribute edges and return canonically sorted, deduplicated matches.

* ``eval_query`` walks effect steps only (along stored orientation,
  backward in time), guided by a parsed path expression.
* ``eval_directed_path`` walks cause steps only and therefore reports
  paths in chronological order; paths need at least three vertices.
* ``eval_general_path`` may take either direction at every hop and
  records which one it took; paths need at least three vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Collection, Iterator

from .errors import PathLimitError, QueryError
from .graph import Direction, Edge, ProvenanceGraph
from .pathexpr import (
    Axis,
    NodeTest,
    PathExpr,
    matching_ids,
    parse_path_expr,
    pred_matches,
)

#: Default ceiling on enumerated paths; hitting it raises PathLimitError
#: rather than silently truncating.
DEFAULT_MAX_PATHS = 1_000_000

#: Minimum vertex count for directed and general path matches. Two
#: selector hits joined by a single edge do not form a path partition.
MIN_PATH_VERTICES = 3


@dataclass(frozen=True)
class PathMatch:
    """One witness path: vertex ids in traversal order, the direction taken
    at each hop, and the stored edges crossed."""

    vertices: tuple[str, ...]
    directions: tuple[Direction, ...] = ()
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if len(self.directions) != len(self.vertices) - 1 or len(self.edges) != len(
            self.directions
        ):
            raise ValueError("hop counts do not line up with the vertex sequence")


class _Collector:
    """Dedup by vertex sequence, enforce the enumeration cap."""

    def __init__(self, max_paths: int) -> None:
        self.max_paths = max_paths
        self.seen: dict[tuple[str, ...], PathMatch] = {}

    def add(self, match: PathMatch) -> None:
        if match.vertices in self.seen:
            return
        if len(self.seen) >= self.max_paths:
            raise PathLimitError(self.max_paths)
        self.seen[match.vertices] = match

    def sorted(self) -> list[PathMatch]:
        return [self.seen[key] for key in sorted(self.seen)]


#: One hop of a path walk: the vertex reached, the direction taken and
#: the stored edge crossed.
Move = tuple[str, Direction, Edge]


def _moves(g: ProvenanceGraph, vid: str, *directions: Direction) -> list[Move]:
    """The hops from ``vid`` in the given directions, one per neighbour,
    sorted by neighbour. Adjacency is pre-sorted, so the first edge wins
    when labels differ, and a step in an earlier direction wins over one
    in a later direction (a cause step, in a general walk)."""
    found: dict[str, Move] = {}
    for direction in directions:
        if direction is Direction.CAUSE:  # stored edge (u, vid): cause step vid -> u
            for e in g.cause_edges(vid):
                found.setdefault(e.src, (e.src, direction, e))
        else:
            for e in g.effect_edges(vid):
                found.setdefault(e.dst, (e.dst, direction, e))
    return [found[k] for k in sorted(found)]


# ==== expression queries ====


def eval_query(
    g: ProvenanceGraph,
    expr: PathExpr | str,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[PathMatch]:
    """Evaluate a path expression; every hop is an effect step.

    The first step anchors at any matching vertex. A child axis advances
    exactly one effect step; a descendant axis advances one or more, with
    unconstrained intermediate vertices. Single-step expressions yield
    single-vertex matches.
    """
    if isinstance(expr, str):
        expr = parse_path_expr(expr)
    for step in expr.steps:
        if step.axis in (Axis.FOLLOWING, Axis.PRECEDING):
            raise QueryError(
                "following/preceding axes are only meaningful inside "
                "subgraphs(...) partition expressions"
            )

    out = _Collector(max_paths)
    steps = expr.steps
    # the vertices each step matches, predicate included
    hits = [
        frozenset(vid for vid in matching_ids(step.test, g) if pred_matches(step.pred, g, vid))
        for step in steps
    ]

    @cache
    def hops(vid: str) -> list[Move]:
        return _moves(g, vid, Direction.EFFECT)

    def moves(vid: str, idx: int) -> Iterator[tuple[Edge, int]]:
        """The hops from ``vid`` while step ``idx`` is pending, each with
        the step pending after it: ``idx + 1`` where the hop's target
        matches step ``idx``, and ``idx`` again where a descendant axis
        walks on through its gap."""
        for dst, _, e in hops(vid):
            if dst in hits[idx]:
                yield e, idx + 1
            if steps[idx].axis is Axis.DESCENDANT:
                yield e, idx

    # depth first with an explicit stack, one generator of moves per
    # vertex on the current path but the last; order does not matter, as
    # the collector sorts
    for start in sorted(hits[0]):
        if len(steps) == 1:
            out.add(PathMatch((start,)))
            continue
        path: list[str] = [start]
        edges: list[Edge] = []
        used = {start}
        stack = [moves(start, 1)]
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if stack:
                    used.discard(path.pop())
                    edges.pop()
                continue
            e, idx = move
            if e.dst in used:
                continue
            if idx == len(steps):
                out.add(PathMatch((*path, e.dst), (Direction.EFFECT,) * (len(edges) + 1),
                                  (*edges, e)))
                continue
            path.append(e.dst)
            edges.append(e)
            used.add(e.dst)
            stack.append(moves(e.dst, idx))
    return out.sorted()


# ==== directed and general paths ====


def _walk_paths(
    starts: list[str],
    moves: Callable[[str], list[Move]],
    ends: frozenset[str],
    out: _Collector,
    accept: Callable[[list[str]], bool] | None = None,
) -> None:
    """Record every simple path from a start, of at least three vertices,
    that ends in ``ends`` and passes ``accept``. Depth first with an
    explicit stack, one iterator over ``moves(vid)`` per vertex on the
    current path."""
    for start in starts:
        path: list[str] = [start]
        dirs: list[Direction] = []
        edges: list[Edge] = []
        used = {start}
        stack = [iter(moves(start))]
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if stack:
                    used.discard(path.pop())
                    dirs.pop()
                    edges.pop()
                continue
            nxt, direction, e = move
            if nxt in used:
                continue
            path.append(nxt)
            dirs.append(direction)
            edges.append(e)
            used.add(nxt)
            if (
                len(path) >= MIN_PATH_VERTICES
                and nxt in ends
                and (accept is None or accept(path))
            ):
                out.add(PathMatch(tuple(path), tuple(dirs), tuple(edges)))
            stack.append(iter(moves(nxt)))


def directed_union(
    g: ProvenanceGraph, starts: Collection[str], ends: Collection[str]
) -> set[str]:
    """The vertices of every cause-step path of at least three vertices
    from a start to an end, by two searches over vertex sets.

    ``after`` holds the vertices one or more cause steps from a start;
    ``inner``, the part of it one or more cause steps before an end, the
    possible interior vertices. A start joins when a cause step of its
    lands in ``inner``, an end when an effect step of its does. Exact on a
    DAG, where every walk is a simple path; on any other graph a superset,
    since a walk through ``inner`` may repeat a vertex."""
    after: set[str] = set()
    stack = list(starts)
    while stack:
        for e in g.cause_edges(stack.pop()):
            if e.src not in after:
                after.add(e.src)
                stack.append(e.src)
    # an end outside ``after`` has no effect step into it
    ends_after = [t for t in ends if t in after]
    inner: set[str] = set()
    stack = list(ends_after)
    while stack:
        for e in g.effect_edges(stack.pop()):
            if e.dst in after and e.dst not in inner:
                inner.add(e.dst)
                stack.append(e.dst)
    union = set(inner)
    union.update(s for s in starts if any(e.src in inner for e in g.cause_edges(s)))
    union.update(t for t in ends_after if any(e.dst in inner for e in g.effect_edges(t)))
    return union


def general_union(
    g: ProvenanceGraph, starts: Collection[str], ends: Collection[str]
) -> set[str]:
    """The vertices of every mixed-direction path of at least three
    vertices from a start to an end, in one pass over the graph's block-cut
    forest (``ProvenanceGraph.block_forest``). Exact on any graph.

    A vertex lies on a simple path from s to t exactly when it lies in a
    block on the block-cut-tree path between them. Seen from one block,
    each vertex of the component lies on the side of one block vertex: a
    member's side is itself and the subtree below it, the head's side is
    the rest. A path crosses the block when it runs from a start on one
    side to an end on another, so the two differ, and then it can pass
    through any vertex of a block of three or more. So such a block joins
    unless one side holds every start and every end. A bridge, a block of
    two, joins unless its only crossing pairs are its own two vertices: a
    lone edge is too short, and any longer crossing path takes in both."""
    starts, ends = set(starts), set(ends)
    union: set[str] = set()
    if not starts or not ends:
        return union
    # per vertex, the starts (ends) at it or in the subtree below it
    below_s = dict.fromkeys(starts, 1)
    below_t = dict.fromkeys(ends, 1)
    for blocks in g.block_forest():
        counted = []
        for head, members in blocks:
            n_s = sum(below_s.get(m, 0) for m in members)
            n_t = sum(below_t.get(m, 0) for m in members)
            counted.append((head, members, n_s, n_t))
            below_s[head] = below_s.get(head, 0) + n_s
            below_t[head] = below_t.get(head, 0) + n_t
        root = blocks[-1][0]
        all_s, all_t = below_s[root], below_t[root]
        if not (all_s and all_t):
            continue
        for head, members, n_s, n_t in counted:
            if len(members) == 1:
                m = members[0]
                up_s, up_t = all_s - n_s, all_t - n_t
                crossed = (
                    up_s and n_t and not (up_s == 1 == n_t and head in starts and m in ends)
                ) or (
                    n_s and up_t and not (n_s == 1 == up_t and m in starts and head in ends)
                )
            else:
                crossed = (n_s or n_t) and not (
                    n_s == all_s and n_t == all_t and any(
                        below_s.get(m, 0) == all_s and below_t.get(m, 0) == all_t
                        for m in members
                    )
                )
            if crossed:
                union.add(head)
                union.update(members)
    return union


def eval_directed_path(
    g: ProvenanceGraph,
    from_test: NodeTest,
    to_test: NodeTest,
    *,
    via: tuple[NodeTest, ...] = (),
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[PathMatch]:
    """Chronological paths from a from-match to a to-match using cause
    steps only, passing through each via test in order (strictly between
    the endpoints). Matches shorter than three vertices are discarded.

    The walk enters only ``directed_union`` of the endpoints, which holds
    every vertex of every matching path."""
    out = _Collector(max_paths)
    starts = matching_ids(from_test, g)
    ends = matching_ids(to_test, g)
    via_hits = [matching_ids(test, g) for test in via]
    live = directed_union(g, starts, ends)
    moves = {
        vid: [m for m in _moves(g, vid, Direction.CAUSE) if m[0] in live] for vid in live
    }

    def vias_satisfied(path: list[str]) -> bool:
        pos, last = 1, len(path) - 1  # the interior, endpoints excluded
        for hits in via_hits:
            while pos < last and path[pos] not in hits:
                pos += 1
            if pos == last:
                return False
            pos += 1
        return True

    _walk_paths(sorted(starts & live), moves.__getitem__, ends, out,
                vias_satisfied if via_hits else None)
    return out.sorted()


def eval_general_path(
    g: ProvenanceGraph,
    from_test: NodeTest,
    to_test: NodeTest,
    *,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[PathMatch]:
    """Paths from a from-match to a to-match where every hop may be either
    a cause or an effect step; the direction taken is recorded per hop.
    Matches shorter than three vertices are discarded."""
    out = _Collector(max_paths)

    @cache
    def moves(vid: str) -> list[Move]:
        return _moves(g, vid, Direction.CAUSE, Direction.EFFECT)

    _walk_paths(sorted(matching_ids(from_test, g)), moves, matching_ids(to_test, g), out)
    return out.sorted()

"""Path evaluation over provenance graphs.

One walker, ``_walk_paths``, lists simple paths (no repeated vertex) over
non-attribute edges for all three evaluators. It walks depth first over
(vertex, state) pairs and returns canonically sorted matches, one per
vertex sequence.

* ``eval_query`` walks effect steps only (along stored orientation,
  backward in time). Its state is the pending step of a parsed path
  expression, and a path ends where the last step completes.
* ``eval_directed_path`` walks cause steps only, so its paths are in
  chronological order; ``eval_general_path`` may take either direction at
  every hop and records which one it took. Neither has a state: their
  paths end at a to-match and need at least three vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Collection, Iterable

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


#: One move of a walk over (vertex, state) pairs: the vertex reached, the
#: direction taken, the stored edge crossed, the state after the move, and
#: whether a path may end with it.
Move = tuple[str, Direction, Edge, Any, bool]


def _moves(
    g: ProvenanceGraph, vid: str, ends: Collection[str], *directions: Direction
) -> list[Move]:
    """The moves from ``vid`` in the given directions, with no state, one
    per neighbour, sorted by neighbour; a path may end where a move
    reaches ``ends``. Adjacency is pre-sorted, so the first edge wins when
    labels differ, and a step in an earlier direction wins over one in a
    later direction (a cause step, in a general walk)."""
    found: dict[str, Move] = {}
    for direction in directions:
        if direction is Direction.CAUSE:  # stored edge (u, vid): cause step vid -> u
            for e in g.cause_edges(vid):
                found.setdefault(e.src, (e.src, direction, e, None, e.src in ends))
        else:
            for e in g.effect_edges(vid):
                found.setdefault(e.dst, (e.dst, direction, e, None, e.dst in ends))
    return [found[k] for k in sorted(found)]


def _walk_paths(
    starts: Iterable[str],
    state: Any,
    moves: Callable[[str, Any], Iterable[Move]],
    max_paths: int,
    min_vertices: int = 0,
    accept: Callable[[list[str]], bool] | None = None,
) -> list[PathMatch]:
    """Every simple path from a start, entered in ``state``, along
    ``moves``, sorted and deduplicated by vertex sequence. A path is
    recorded where its last move may end it, it has at least
    ``min_vertices`` vertices and ``accept`` passes it; the first distinct
    path past ``max_paths`` raises PathLimitError. Depth first with an
    explicit stack, one iterator of moves per vertex on the current path."""
    seen: dict[tuple[str, ...], PathMatch] = {}
    for start in starts:
        path: list[str] = [start]
        dirs: list[Direction] = []
        edges: list[Edge] = []
        used = {start}
        stack = [iter(moves(start, state))]
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if stack:
                    used.discard(path.pop())
                    dirs.pop()
                    edges.pop()
                continue
            nxt, direction, e, after, may_end = move
            if nxt in used:
                continue
            path.append(nxt)
            dirs.append(direction)
            edges.append(e)
            used.add(nxt)
            if may_end and len(path) >= min_vertices and (accept is None or accept(path)):
                key = tuple(path)
                if key not in seen:
                    if len(seen) >= max_paths:
                        raise PathLimitError(max_paths)
                    seen[key] = PathMatch(key, tuple(dirs), tuple(edges))
            stack.append(iter(moves(nxt, after)))
    return [seen[key] for key in sorted(seen)]


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

    steps = expr.steps
    done = len(steps)
    # the vertices each step matches, predicate included
    hits = [
        frozenset(vid for vid in matching_ids(step.test, g) if pred_matches(step.pred, g, vid))
        for step in steps
    ]
    if done == 1:
        if len(hits[0]) > max_paths:
            raise PathLimitError(max_paths)
        return [PathMatch((vid,)) for vid in sorted(hits[0])]

    @cache
    def moves(vid: str, idx: int) -> list[Move]:
        """The moves from ``vid`` while step ``idx`` is pending: on to
        ``idx + 1`` where the hop's target matches step ``idx``, and on in
        ``idx`` where a descendant axis walks through its gap. A completed
        expression has none."""
        out: list[Move] = []
        if idx == done:
            return out
        gap = steps[idx].axis is Axis.DESCENDANT
        for dst, direction, e, _, hit in _moves(g, vid, hits[idx], Direction.EFFECT):
            if hit:
                out.append((dst, direction, e, idx + 1, idx + 1 == done))
            if gap:
                out.append((dst, direction, e, idx, False))
        return out

    return _walk_paths(sorted(hits[0]), 1, moves, max_paths)


# ==== directed and general paths ====


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
    starts = matching_ids(from_test, g)
    ends = matching_ids(to_test, g)
    via_hits = [matching_ids(test, g) for test in via]
    live = directed_union(g, starts, ends)
    table = {
        vid: [m for m in _moves(g, vid, ends, Direction.CAUSE) if m[0] in live] for vid in live
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

    return _walk_paths(sorted(starts & live), None, lambda vid, _: table[vid], max_paths,
                       MIN_PATH_VERTICES, vias_satisfied if via_hits else None)


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
    ends = matching_ids(to_test, g)

    @cache
    def moves(vid: str, _: None) -> list[Move]:
        return _moves(g, vid, ends, Direction.CAUSE, Direction.EFFECT)

    return _walk_paths(sorted(matching_ids(from_test, g)), None, moves, max_paths,
                       MIN_PATH_VERTICES)

import random

import pytest

from provpolicy.bench import GenConfig, gen_graphs
from provpolicy.errors import PathLimitError, QueryError
from provpolicy.graph import Direction, VertexType
from provpolicy.pathexpr import NameTest, TypedNameTest, parse_path_expr
from provpolicy.pathexpr import test_matches as vertex_matches  # renamed: pytest collects test_*
from provpolicy.query import (
    DEFAULT_MAX_PATHS,
    MIN_PATH_VERTICES,
    directed_union,
    eval_directed_path,
    eval_general_path,
    eval_query,
)

import oracles
from util import E, G, V, corrupt_graph, random_node_test, random_path_expr


# ==== the worked examples ====


def test_directed_upload_to_submit(graph_a, graph_b):
    start = TypedNameTest(VertexType.PROCESS, ("upload",))
    end = TypedNameTest(VertexType.PROCESS, ("submit",))
    for g in (graph_a, graph_b):
        paths = eval_directed_path(g, start, end)
        assert [m.vertices for m in paths] == [
            ("upload1", "o1v1", "replace1", "o1v2", "submit1")
        ]


def test_general_o2v1_to_o4v1(graph_b):
    start = TypedNameTest(VertexType.ARTIFACT, ("o2v1",))
    end = TypedNameTest(VertexType.ARTIFACT, ("o4v1",))
    paths = eval_general_path(graph_b, start, end)
    assert len(paths) == 1
    assert paths[0].vertices == ("o2v1", "review1", "o1v3", "grade1", "o4v1")
    assert [d.value for d in paths[0].directions] == [
        "effect",
        "effect",
        "cause",
        "cause",
    ]


def test_general_au1_to_o1v2(graph_a, graph_b):
    for g in (graph_a, graph_b):
        paths = eval_general_path(g, NameTest(("au1",)), NameTest(("o1v2",)))
        assert {m.vertices for m in paths} == {
            ("au1", "upload1", "o1v1", "replace1", "o1v2"),
            ("au1", "replace1", "o1v2"),
            ("au1", "submit1", "o1v2"),
        }


def test_chained_child_steps(graph_b):
    paths = eval_query(graph_b, "//o1v2/replace1/o1v1/upload1/au1")
    assert [m.vertices for m in paths] == [
        ("o1v2", "replace1", "o1v1", "upload1", "au1")
    ]


def test_descendant_pair(graph_b):
    paths = eval_query(graph_b, "//o1v2//o1v1")
    assert {m.vertices for m in paths} == {("o1v2", "replace1", "o1v1")}


def test_predicate_filters_target(graph_b):
    paths = eval_query(graph_b, "//o2v2//review1[@Attri='Attri']")
    assert {m.vertices for m in paths} == {("o2v2", "o2v1", "review1")}


def test_child_extension_after_predicate(graph_b):
    paths = eval_query(graph_b, "//o2v2//review1[@Attri='Attri']/au2")
    assert {m.vertices for m in paths} == {("o2v2", "o2v1", "review1", "au2")}


# ==== semantics details ====


def test_min_three_vertices_rule():
    g = G("g", [V("p", "P"), V("a", "A")], [E("p", "a", "used")])
    assert eval_directed_path(g, NameTest(("a",)), NameTest(("p",))) == []
    assert eval_general_path(g, NameTest(("a",)), NameTest(("p",))) == []
    assert MIN_PATH_VERTICES == 3


def test_unknown_names_give_empty_result(graph_a):
    assert eval_query(graph_a, "//no-such//thing") == []
    assert eval_directed_path(graph_a, NameTest(("x",)), NameTest(("y",))) == []


def test_query_rejects_time_axes(graph_a):
    with pytest.raises(QueryError):
        eval_query(graph_a, "//au1/following::*")
    with pytest.raises(QueryError):
        eval_query(graph_a, "//au1/preceding::*")


def test_path_cap_raises(graph_b):
    with pytest.raises(PathLimitError) as info:
        eval_query(graph_b, "//*//*", max_paths=2)
    assert info.value.limit == 2
    # names only the calls that take max_paths; resolve and evaluate do not
    assert str(info.value) == (
        "path enumeration exceeded the cap of 2 results; narrow the expression, "
        "or pass a larger max_paths to eval_query, eval_directed_path or "
        "eval_general_path"
    )


def test_path_cap_counts_distinct_matches(graph_b):
    # the cap admits exactly as many paths as there are distinct vertex
    # sequences; //*//*//* reaches most of its four-vertex and longer
    # matches by more than one split of its descendant gaps, and those
    # repeats do not count
    au1 = NameTest(("au1",))
    calls = {
        "query": lambda cap: eval_query(graph_b, "//*//*//*", max_paths=cap),
        "directed": lambda cap: eval_directed_path(
            graph_b, au1, NameTest(("submit1",)), max_paths=cap),
        "general": lambda cap: eval_general_path(
            graph_b, au1, NameTest(("o1v2",)), max_paths=cap),
    }
    for name, call in calls.items():
        every = call(DEFAULT_MAX_PATHS)
        assert len(every) > 1, name
        assert call(len(every)) == every, name
        with pytest.raises(PathLimitError):
            call(len(every) - 1)


def test_no_duplicate_sequences(graph_b):
    paths = eval_query(graph_b, "//*//*")
    seqs = [m.vertices for m in paths]
    assert len(seqs) == len(set(seqs))


def test_direction_values(graph_b):
    paths = eval_general_path(
        graph_b,
        TypedNameTest(VertexType.ARTIFACT, ("o2v1",)),
        TypedNameTest(VertexType.ARTIFACT, ("o4v1",)),
    )
    assert all(
        d in (Direction.CAUSE, Direction.EFFECT)
        for m in paths
        for d in m.directions
    )


def test_via_selectors_order(graph_b):
    start = NameTest(("upload1",))
    end = NameTest(("submit1",))
    ok = eval_directed_path(graph_b, start, end, via=(NameTest(("o1v1",)), NameTest(("o1v2",))))
    assert [m.vertices for m in ok] == [
        ("upload1", "o1v1", "replace1", "o1v2", "submit1")
    ]
    wrong_order = eval_directed_path(
        graph_b, start, end, via=(NameTest(("o1v2",)), NameTest(("o1v1",)))
    )
    assert wrong_order == []


# ==== oracle equivalence on random graphs ====


def test_query_matches_oracle(small_graphs):
    rng = random.Random(23)
    for g in small_graphs[:25]:
        for _ in range(6):
            expr = random_path_expr(rng, g)
            got = {m.vertices for m in eval_query(g, expr)}
            assert got == oracles.oracle_query(g, expr)


def test_directed_matches_oracle(small_graphs):
    rng = random.Random(29)
    for g in small_graphs[:25]:
        for _ in range(4):
            start = random_node_test(rng, g)
            end = random_node_test(rng, g)
            vias = tuple(
                random_node_test(rng, g) for _ in range(rng.randint(0, 2))
            )
            got = {m.vertices for m in eval_directed_path(g, start, end, via=vias)}
            assert got == oracles.oracle_directed(g, start, end, vias)


def test_general_matches_oracle(small_graphs):
    rng = random.Random(31)
    for g in small_graphs[:20]:
        for _ in range(3):
            start = random_node_test(rng, g)
            end = random_node_test(rng, g)
            got = {
                (m.vertices, tuple(d.value for d in m.directions))
                for m in eval_general_path(g, start, end)
            }
            assert got == oracles.oracle_general(g, start, end)


def with_dead_ends(rng: random.Random, g):
    """``g`` plus short chains hanging off random vertices that lead
    forward in time to nothing else, so a directed walk can enter
    branches that reach no end."""
    vertices = list(g.vertices.values())
    edges = list(g.edges)
    roots = sorted(vid for vid, v in g.vertices.items()
                   if v.vtype in (VertexType.PROCESS, VertexType.ARTIFACT))
    for i in range(2):
        root = g.vertices[rng.choice(roots)]
        # an artifact generated by a process, or a process using an artifact
        if root.vtype is VertexType.PROCESS:
            first, label = V(f"dead{i}a", "A", "draft"), "wgb"
        else:
            first, label = V(f"dead{i}a", "P", "review"), "used"
        second = V(f"dead{i}b", "P" if first.vtype is VertexType.ARTIFACT else "A", "sign")
        vertices += [first, second]
        edges += [E(first.id, root.id, label),
                  E(second.id, first.id, "used" if second.vtype is VertexType.PROCESS else "wgb")]
    return G(g.id + "-dead", vertices, edges)


def cyclic_variants(rng: random.Random, graphs):
    """``corrupt_graph`` copies of ``graphs`` that have a cycle."""
    out = []
    for g in graphs:
        for _ in range(8):
            broken = corrupt_graph(rng, g)
            if oracles.has_cycle(broken):
                out.append(broken)
                break
    return out


def test_path_engines_match_oracles_on_dead_ends_and_cycles(small_graphs):
    rng = random.Random(37)
    dead = [with_dead_ends(rng, g) for g in small_graphs[:8]]
    cyclic = cyclic_variants(rng, small_graphs[10:22])
    assert len(cyclic) >= 8
    for g in dead + cyclic:
        for _ in range(3):
            start = random_node_test(rng, g)
            end = random_node_test(rng, g)
            vias = tuple(random_node_test(rng, g) for _ in range(rng.randint(0, 2)))
            got = {m.vertices for m in eval_directed_path(g, start, end, via=vias)}
            assert got == oracles.oracle_directed(g, start, end, vias), g.id
            # the engine takes one step per neighbour, a cause step where a
            # cycle joins two vertices both ways, so it reports each vertex
            # sequence once, with one of the oracle's direction lists
            want: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
            for seq, dirs in oracles.oracle_general(g, start, end):
                want.setdefault(seq, set()).add(dirs)
            got_general = eval_general_path(g, start, end)
            assert {m.vertices for m in got_general} == set(want), g.id
            for m in got_general:
                assert tuple(d.value for d in m.directions) in want[m.vertices]
            expr = random_path_expr(rng, g)
            got_query = {m.vertices for m in eval_query(g, expr)}
            assert got_query == oracles.oracle_query(g, expr), (g.id, expr)


def _matches(test, g):
    return {vid for vid in g.vertices if vertex_matches(test, g, vid)}


def test_directed_union_matches_oracle(small_graphs):
    # on a DAG the two searches give exactly the vertices of the paths
    rng = random.Random(41)
    dense = gen_graphs(GenConfig(graphs=10, edge_density=0.6, seed=43))
    for g in small_graphs[:25] + dense:
        for _ in range(4):
            start = random_node_test(rng, g)
            end = random_node_test(rng, g)
            want = {v for path in oracles.oracle_directed(g, start, end) for v in path}
            assert directed_union(g, _matches(start, g), _matches(end, g)) == want, g.id


def test_directed_union_covers_every_match_on_cyclic_graphs(small_graphs):
    # on a cyclic graph it is only a superset, but never misses a vertex
    # of a match, so the walk confined to it loses none
    rng = random.Random(47)
    cyclic = cyclic_variants(rng, small_graphs[:30])
    assert len(cyclic) >= 15
    for g in cyclic:
        for _ in range(4):
            start = random_node_test(rng, g)
            end = random_node_test(rng, g)
            vias = tuple(random_node_test(rng, g) for _ in range(rng.randint(0, 2)))
            union = directed_union(g, _matches(start, g), _matches(end, g))
            for m in eval_directed_path(g, start, end, via=vias):
                assert set(m.vertices) <= union, g.id


def test_directed_paths_beside_a_dead_end_branch():
    # a -> p1 -> b reaches the end; a -> p2 -> c and everything after c do not
    g = G(
        "dead-end",
        [V("a", "A"), V("p1", "P"), V("b", "A"), V("p2", "P"), V("c", "A"),
         V("p3", "P"), V("d", "A")],
        [E("p1", "a", "used"), E("b", "p1", "wgb"), E("p2", "a", "used"),
         E("c", "p2", "wgb"), E("p3", "c", "used"), E("d", "p3", "wgb")],
    )
    paths = eval_directed_path(g, NameTest(("a",)), NameTest(("b",)))
    assert [m.vertices for m in paths] == [("a", "p1", "b")]
    assert [m.directions for m in paths] == [(Direction.CAUSE, Direction.CAUSE)]
    assert [[(e.src, e.dst) for e in m.edges] for m in paths] == [[("p1", "a"), ("b", "p1")]]
    assert eval_directed_path(g, NameTest(("a",)), NameTest(("b", "d"))) == [
        *paths, *eval_directed_path(g, NameTest(("a",)), NameTest(("d",)))]

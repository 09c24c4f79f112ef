import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from provpolicy.bench import GenConfig, gen_graphs
from provpolicy.errors import ExprSyntaxError
from provpolicy.graph import VertexType, edge_sort_key, induced_edges
from provpolicy.partition import (
    DirectedPathSpec,
    GeneralPathSpec,
    Partition,
    SubgraphSpec,
    VerticesSpec,
    parse_partition_expr,
    partition_to_text,
    resolve,
)
from provpolicy.pathexpr import (
    AttributeValueTest,
    IdSetTest,
    NameTest,
    Terminal,
    TypedNameTest,
    TypeTest,
    WildcardTest,
    matching_ids,
)
from provpolicy.query import general_union
from provpolicy.samples import sample_graph_a, sample_graph_b, sample_graph_c

import oracles
from util import E, G, V, corrupt_graph, random_node_test


# ==== text form ====


def test_parse_vertices():
    spec = parse_partition_expr("vertices (TypedV_P' (G_i, Submit|wasSubmittedBy))")
    assert spec == VerticesSpec(
        TypedNameTest(VertexType.PROCESS, ("Submit", "wasSubmittedBy"))
    )


def test_parse_subgraphs_with_stray_gt():
    spec = parse_partition_expr(
        "subgraphs (TypedV_A' (G_i, o3v1)//TypedV_A' (G_i, o8v1)>)"
    )
    assert spec == SubgraphSpec(
        TypedNameTest(VertexType.ARTIFACT, ("o3v1",)),
        TypedNameTest(VertexType.ARTIFACT, ("o8v1",)),
    )


def test_parse_directed_with_vias():
    spec = parse_partition_expr("directed(a // b // c // d)")
    assert spec == DirectedPathSpec(
        NameTest(("a",)), (NameTest(("b",)), NameTest(("c",))), NameTest(("d",))
    )


def test_parse_general_gap_token():
    spec = parse_partition_expr(r"general(au1 \v+ o1v2)")
    assert spec == GeneralPathSpec(NameTest(("au1",)), NameTest(("o1v2",)))
    # the gap token is backslash, v, plus; a vertical tab is only
    # whitespace, so "+" is left where ")" belongs
    with pytest.raises(ExprSyntaxError) as err:
        parse_partition_expr("general(a \x0b+ b)")
    assert err.value.offset == 11


def test_parse_comma_separator():
    assert parse_partition_expr("general(a, b)") == parse_partition_expr(
        "general(a // b)"
    )


def test_parse_terminals():
    spec = parse_partition_expr("subgraphs(START // upload1)")
    assert spec == SubgraphSpec(Terminal.START, NameTest(("upload1",)))
    spec = parse_partition_expr("subgraphs(upload1 // END)")
    assert spec == SubgraphSpec(NameTest(("upload1",)), Terminal.END)


def test_following_spans_from_beginning():
    spec = parse_partition_expr("subgraphs(o1v2 /following::*)")
    assert spec == SubgraphSpec(Terminal.START, NameTest(("o1v2",)))


def test_preceding_spans_to_end():
    spec = parse_partition_expr("subgraphs(o1v2 /preceding::*)")
    assert spec == SubgraphSpec(NameTest(("o1v2",)), Terminal.END)


def test_terminals_rejected_outside_subgraphs():
    with pytest.raises(ExprSyntaxError):
        parse_partition_expr("general(START // x)")
    with pytest.raises(ExprSyntaxError):
        parse_partition_expr("vertices(END)")


def test_arity_errors():
    with pytest.raises(ExprSyntaxError):
        parse_partition_expr("general(a)")
    with pytest.raises(ExprSyntaxError):
        parse_partition_expr("general(a // b // c)")
    with pytest.raises(ExprSyntaxError):
        parse_partition_expr("vertices(a // b)")
    with pytest.raises(ExprSyntaxError):
        parse_partition_expr("walls(a // b)")


def test_text_round_trip():
    for text in (
        "vertices(TypedV_P(G, Submit|wasSubmittedBy))",
        "directed(a // b // c)",
        "general(a // b)",
        "subgraphs(TypedV_A(G, o3v1) // TypedV_A(G, o8v1))",
        "subgraphs(START // x)",
        "subgraphs(x // END)",
    ):
        spec = parse_partition_expr(text)
        assert parse_partition_expr(partition_to_text(spec)) == spec


# ==== resolution vs oracle ====


def test_resolve_vertices_matches_oracle(small_graphs):
    rng = random.Random(41)
    for g in small_graphs[:20]:
        for _ in range(4):
            sel = random_node_test(rng, g)
            part = resolve(g, VerticesSpec(sel))
            assert part.vertex_ids == frozenset(oracles.oracle_vertices(g, sel))


def test_resolve_vertices_every_selector_kind(small_graphs):
    # names and ids overlap: p's name is a's id, and g's name is its own id;
    # u is an attribute without a value, which its host carries as ""
    overlap = G(
        "overlap",
        [V("p", "P", "a"), V("a", "A", "x"), V("g", "Ag"), V("t", "Att", "k", "v"),
         V("u", "Att", "k")],
        [E("p", "a", "used"), E("p", "g", "wcb"), E("a", "t", "ha"), E("g", "u", "ha")],
    )
    graphs = [overlap, sample_graph_a(), sample_graph_b(), sample_graph_c(),
              *small_graphs]
    for g in graphs:
        values = sorted({v.value for v in g.vertices.values() if v.value is not None})
        selectors = [
            WildcardTest(),
            IdSetTest(frozenset(sorted(g.vertices)[::3])),
            IdSetTest(frozenset({"no-such-id", *sorted(g.vertices)[:1]})),
            IdSetTest(frozenset()),
        ]
        selectors += [TypeTest(t) for t in VertexType]
        selectors += [
            AttributeValueTest(t, x) for t in VertexType for x in ["", "no-such-value", *values]
        ]
        for v in list(g.vertices.values())[::2]:
            selectors += [
                NameTest((v.name,)),
                NameTest((v.id,)),
                NameTest(("no-such-name", v.name, v.id)),
                *(TypedNameTest(t, (v.name, "no-such-name")) for t in VertexType),
            ]
        for sel in selectors:
            expected = frozenset(oracles.oracle_vertices(g, sel))
            assert matching_ids(sel, g) == expected, sel
            assert resolve(g, VerticesSpec(sel)).vertex_ids == expected, sel


def test_resolve_directed_matches_oracle(small_graphs):
    rng = random.Random(43)
    for g in small_graphs[:15]:
        for _ in range(3):
            start, end = random_node_test(rng, g), random_node_test(rng, g)
            part = resolve(g, DirectedPathSpec(start, (), end))
            expected = {
                v for path in oracles.oracle_directed(g, start, end) for v in path
            }
            assert part.vertex_ids == frozenset(expected)


def test_resolve_general_matches_oracle(small_graphs):
    rng = random.Random(47)
    for g in small_graphs[:15]:
        for _ in range(3):
            start, end = random_node_test(rng, g), random_node_test(rng, g)
            part = resolve(g, GeneralPathSpec(start, end))
            expected = {
                v for path, _ in oracles.oracle_general(g, start, end) for v in path
            }
            assert part.vertex_ids == frozenset(expected)


def test_resolve_subgraph_matches_oracle(small_graphs):
    rng = random.Random(53)
    for g in small_graphs[:15]:
        for _ in range(3):
            start, end = random_node_test(rng, g), random_node_test(rng, g)
            part = resolve(g, SubgraphSpec(start, end))
            assert part.vertex_ids == frozenset(oracles.oracle_subgraph(g, start, end))


def test_resolve_terminal_subgraph_matches_oracle(small_graphs):
    rng = random.Random(59)
    for g in small_graphs[:10]:
        sel = random_node_test(rng, g)
        for spec, oracle_args in (
            (SubgraphSpec(Terminal.START, sel), (Terminal.START, sel)),
            (SubgraphSpec(sel, Terminal.END), (sel, Terminal.END)),
        ):
            part = resolve(g, spec)
            assert part.vertex_ids == frozenset(
                oracles.oracle_subgraph(g, *oracle_args)
            )


# ==== the block-cut forest against the path oracles ====

FOREST_GRAPHS = gen_graphs(
    GenConfig(graphs=40, processes=4, artifacts=5, agents=2, attributes=2, seed=11)
) + gen_graphs(
    GenConfig(graphs=15, processes=3, artifacts=4, agents=2, attributes=2,
              edge_density=0.6, seed=13)
)
# broken copies: the walker steps on every non-hasAttributes edge between
# present vertices, whatever their types, so the forest must too
_broken = random.Random(71)
FOREST_GRAPHS += [
    corrupt_graph(_broken, g, mode)
    for mode in ("cycle", "dangling", "attribute")
    for g in FOREST_GRAPHS[::6]
]


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_block_cut_forest_matches_the_path_oracles(data):
    g = data.draw(st.sampled_from(FOREST_GRAPHS))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    ids = sorted(g.vertices)
    # subgraph specs, terminals and a shared selector (S & T) included
    start = data.draw(st.sampled_from([Terminal.START, random_node_test(rng, g)]))
    end = data.draw(st.sampled_from(
        [Terminal.END, random_node_test(rng, g)]
        + ([start] if not isinstance(start, Terminal) else [])
    ))
    spec = SubgraphSpec(start, end)
    assert resolve(g, spec).vertex_ids == frozenset(oracles.oracle_spec_union(g, spec))
    # the union itself, over small vertex sets, overlapping or not; single
    # vertices meet the lone-bridge and s != t rules most often
    for _ in range(6):
        starts = frozenset(rng.sample(ids, rng.choice((1, 1, 2, 3))))
        ends = frozenset(rng.sample(ids, rng.choice((1, 1, 2, 3))))
        paths = oracles.oracle_general(g, IdSetTest(starts), IdSetTest(ends))
        want = {v for path, _ in paths for v in path}
        assert general_union(g, starts, ends) == want, (g.id, starts, ends)


def test_subgraphs_resolve_in_time_on_path_rich_graphs():
    # listing every path between these graphs' first and last vertices ran
    # for seconds or past the path cap; the forest takes milliseconds
    spec = parse_partition_expr("subgraphs(START // END)")
    for g in gen_graphs(GenConfig(graphs=3, processes=10, artifacts=12, seed=0)):
        t0 = time.perf_counter()
        resolve(g, spec)
        assert time.perf_counter() - t0 < 1.0, g.id
    n = 3000
    chain = G("chain", [V(f"a{i}", "A") for i in range(n)],
              [E(f"a{i + 1}", f"a{i}", "wdf") for i in range(n - 1)])
    assert resolve(chain, spec).vertex_ids == frozenset(chain.vertices)
    assert general_union(chain, {"a0"}, {f"a{n - 1}"}) == set(chain.vertices)


# ==== the worked sample ====


def test_sample_subgraph_partition(graph_c):
    # core is the single o3v1 -> grade2 -> o8v1 chain, plus its one-step hull
    spec = parse_partition_expr(
        "subgraphs (TypedV_A' (G_i, o3v1)//TypedV_A' (G_i, o8v1)>)"
    )
    part = resolve(graph_c, spec)
    assert part.vertex_ids == frozenset(
        {"o3v1", "grade2", "o8v1", "au3", "att-grade2"}
    )
    assert part.vertex_ids == frozenset(
        oracles.oracle_subgraph(
            graph_c,
            TypedNameTest(VertexType.ARTIFACT, ("o3v1",)),
            TypedNameTest(VertexType.ARTIFACT, ("o8v1",)),
        )
    )


def test_sample_vertices_partition(graph_c):
    spec = parse_partition_expr("vertices (TypedV_P' (G_i, Submit|wasSubmittedBy))")
    part = resolve(graph_c, spec)
    assert part.vertex_ids == frozenset({"submit1"})


def test_induced_edges_stay_inside(graph_c):
    spec = parse_partition_expr("subgraphs(o1v1 // o1v3)")
    part = resolve(graph_c, spec)
    assert all(
        e.src in part.vertex_ids and e.dst in part.vertex_ids for e in part.induced
    )


def test_induced_is_every_edge_inside_sorted(graph_c, small_graphs):
    rng = random.Random(67)
    specs = [parse_partition_expr("subgraphs(o1v1 // o1v3)"),
             parse_partition_expr("vertices(*)")]
    cases = [(graph_c, spec) for spec in specs]
    for g in small_graphs[:15]:
        start, end = random_node_test(rng, g), random_node_test(rng, g)
        cases += [(g, VerticesSpec(start)), (g, DirectedPathSpec(start, (), end)),
                  (g, GeneralPathSpec(start, end)), (g, SubgraphSpec(start, end))]
    for g, spec in cases:
        part = resolve(g, spec)
        ids = part.vertex_ids
        expected = sorted((e for e in g.edges if e.src in ids and e.dst in ids),
                          key=edge_sort_key)
        assert part.induced == tuple(expected) == induced_edges(g, ids)


def test_empty_partition_flag(graph_a):
    part = resolve(graph_a, VerticesSpec(NameTest(("nothing-here",))))
    assert part.is_empty
    assert not resolve(graph_a, VerticesSpec(WildcardTest())).is_empty


def test_whole_graph_selector(graph_a):
    part = resolve(graph_a, VerticesSpec(TypeTest(VertexType.PROCESS)))
    assert part.vertex_ids == frozenset({"upload1", "replace1", "submit1"})

"""Property test: every graph a remove or replace step derives from its
parent's indexes equals the graph built afresh from its vertices and
edges, index and lookup for index and lookup."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from provpolicy.bench import GenConfig, gen_graphs
from provpolicy.errors import TransformError
from provpolicy.graph import Edge, EdgeLabel, ProvenanceGraph, Vertex, VertexType, validate_graph
from provpolicy.partition import Partition
from provpolicy.policy import DependencyLabel, Scope, parse_vcd
from provpolicy.samples import sample_merge_table
from provpolicy.transform import Cluster, apply_remove, apply_replace, expand_scope

import oracles

GRAPHS = gen_graphs(
    GenConfig(graphs=12, processes=5, artifacts=6, agents=2, attributes=3, seed=29)
)
EMT = sample_merge_table()
# replace steps name "Picked"; the other categories give the category
# lookup something to find
VCD = parse_vcd(
    {"categories": [
        {"name": "Picked", "label": "Collapsed", "replacement_type": "process",
         "members": []},
        {"name": "Typed", "label": "t", "members": ["TypedV_P(G)", "AttV_A(G, '2016')"]},
        {"name": "Valued", "label": "v", "members": ["AttV_Att(G, '2016')", "AttV_P(G, '2017')"]},
    ]}
)
VALUES = sorted({v.value or "" for g in GRAPHS for v in g.vertices.values()
                 if v.vtype is VertexType.ATTRIBUTE} | {""})


def assert_same_as_fresh(g: ProvenanceGraph) -> None:
    fresh = ProvenanceGraph(g.id, g.vertices.values(), g.edges)
    assert g == fresh
    for vid in fresh.vertices:
        assert g.effect_edges(vid) == fresh.effect_edges(vid)
        assert g.cause_edges(vid) == fresh.cause_edges(vid)
        assert g.attribute_edges(vid) == fresh.attribute_edges(vid)
        assert g.attribute_host_edges(vid) == fresh.attribute_host_edges(vid)
        assert g.all_neighbors(vid) == fresh.all_neighbors(vid)
        v = g.vertices[vid]
        assert g.ids_named(v.name) == fresh.ids_named(v.name)
    for t in VertexType:
        assert g.ids_of_type(t) == fresh.ids_of_type(t)
        for value in VALUES:
            assert g.ids_with_value(t, value) == fresh.ids_with_value(t, value)
    # the components scope expansion keeps per graph are the fresh graph's
    firsts = []
    for cat in VCD.categories:
        members = sorted(vid for vid, c in VCD.category_map(fresh).items() if c is cat)
        if members:
            firsts.append(members[0])
            base = frozenset(members[:1])
            assert (expand_scope(g, Partition(base, g), Scope.EXTENSION, VCD)
                    == expand_scope(fresh, Partition(base, fresh), Scope.EXTENSION, VCD))
    base = frozenset(firsts[-2:])  # two categories when both have members
    assert (expand_scope(g, Partition(base, g), Scope.CONJUNCTION, VCD)
            == expand_scope(fresh, Partition(base, fresh), Scope.CONJUNCTION, VCD))
    assert VCD.category_map(g) == VCD.category_map(fresh)
    assert g.start_vertices() == fresh.start_vertices()
    assert g.end_vertices() == fresh.end_vertices()
    assert g.block_forest() == fresh.block_forest()
    assert validate_graph(g, allow_was_caused_by=True) == []


def collapse_closes_cycle(g: ProvenanceGraph, cluster: frozenset[str]) -> bool:
    """Brute force: rewire every crossing edge to one new vertex and look
    for a cycle."""
    edges = [
        Edge("new" if e.src in cluster else e.src, "new" if e.dst in cluster else e.dst,
             EdgeLabel.WAS_CAUSED_BY)
        for e in g.edges
        if e.label is not EdgeLabel.HAS_ATTRIBUTES
        and (e.src in cluster) != (e.dst in cluster)
    ]
    edges += [e for e in g.edges if e.src not in cluster and e.dst not in cluster]
    vertices = [v for vid, v in g.vertices.items() if vid not in cluster]
    vertices.append(Vertex("new", VertexType.PROCESS, "new"))
    return oracles.has_cycle(ProvenanceGraph(g.id, vertices, edges))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_successor_graphs_equal_a_fresh_build(data):
    g = data.draw(st.sampled_from(GRAPHS))
    # a successor must not inherit the lookups its parent has built
    assert_same_as_fresh(g)
    for _ in range(data.draw(st.integers(1, 5))):
        if not g.vertices:
            break
        ids = sorted(g.vertices)
        cluster = frozenset(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)))
        label = data.draw(st.sampled_from(list(DependencyLabel)))
        if data.draw(st.booleans()):
            g = apply_remove(g, Cluster(cluster), label, EMT).graph
        else:
            # the new vertex may take the id of a member it replaces
            vertex_id = data.draw(st.sampled_from([None, *sorted(cluster)]))
            try:
                g = apply_replace(g, Cluster(cluster, "Picked"), VCD, label,
                                  vertex_id=vertex_id).graph
            except TransformError as e:
                assert "invalid graph" in str(e)
                assert collapse_closes_cycle(g, cluster)
                continue
        assert_same_as_fresh(g)

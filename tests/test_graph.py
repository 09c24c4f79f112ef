import json
import random

import pytest

from provpolicy.bench import GenConfig, gen_graphs
from provpolicy.errors import GraphFormatError, UnknownVertexError
from provpolicy.graph import (
    Edge,
    EdgeLabel,
    ProvenanceGraph,
    Vertex,
    VertexType,
    edge_is_legal,
    induced_edges,
    load_graph,
    save_graph,
    structural_hash,
    to_dot,
    validate_graph,
)

import oracles
from util import E, G, V, corrupt_graph


# ==== type and label vocabulary ====


def test_vertex_type_codes():
    assert VertexType.AGENT.code == "Ag"
    assert VertexType.ARTIFACT.code == "A"
    assert VertexType.PROCESS.code == "P"
    assert VertexType.ATTRIBUTE.code == "Att"


def test_edge_label_values():
    assert {l.value for l in EdgeLabel} == {
        "used",
        "wasGeneratedBy",
        "wasControlledBy",
        "wasTriggeredBy",
        "wasDerivedFrom",
        "hasAttributes",
        "wasCausedBy",
    }


def test_oracle_triples_match_literal_table():
    # the oracle reads each member's value without the .value property
    g = G("one", [V(t.value, code) for t, code in
                  ((VertexType.AGENT, "Ag"), (VertexType.ARTIFACT, "A"),
                   (VertexType.PROCESS, "P"), (VertexType.ATTRIBUTE, "Att"))], [])
    for src in VertexType:
        for dst in VertexType:
            for label in EdgeLabel:
                triple = (src.value, dst.value, label.value)
                e = Edge(src.value, dst.value, label)
                assert oracles.triple_is_legal(g, e) is (triple in oracles.LEGAL_TRIPLES)
                assert oracles.triple_is_legal(g, e, allow_wcsd=True) is (
                    triple in oracles.LEGAL_TRIPLES or triple in oracles.WCSD_TRIPLES
                )


def test_edge_schema_matches_literal_table():
    for src in VertexType:
        for dst in VertexType:
            for label in EdgeLabel:
                expected = (src.value, dst.value, label.value) in oracles.LEGAL_TRIPLES
                assert edge_is_legal(src, dst, label) is expected
                relaxed = expected or (
                    (src.value, dst.value, label.value) in oracles.WCSD_TRIPLES
                )
                assert (
                    edge_is_legal(src, dst, label, allow_was_caused_by=True)
                    is relaxed
                )


# ==== construction ====


def test_duplicate_vertex_id_rejected():
    with pytest.raises(GraphFormatError):
        G("g", [V("x", "P"), V("x", "A")], [])


def test_edges_deduplicated():
    g = G("g", [V("p", "P"), V("a", "A")], [E("p", "a", "used"), E("p", "a", "used")])
    assert len(g.edges) == 1


def test_distinct_tags_are_distinct_edges():
    g = G(
        "g",
        [V("p", "P"), V("a", "A")],
        [E("p", "a", "used", "t1"), E("p", "a", "used", "t2")],
    )
    assert len(g.edges) == 2


def test_graph_equality_ignores_listing_order():
    vs = [V("p", "P"), V("a", "A"), V("b", "A")]
    es = [E("p", "a", "used"), E("b", "p", "wgb")]
    assert G("g", vs, es) == G("g", list(reversed(vs)), list(reversed(es)))


def test_unknown_vertex_lookup_raises():
    g = G("g", [V("p", "P")], [])
    with pytest.raises(UnknownVertexError):
        g.effect_edges("nope")


# ==== adjacency against the edge list ====


def test_adjacency_matches_edge_list(small_graphs):
    for g in small_graphs[:15]:
        for vid in g.vertices:
            assert {(e.dst, e.label) for e in oracles.stored_out(g, vid)} == set(
                g.effect_successors(vid)
            )
            assert {(e.src, e.label) for e in oracles.stored_in(g, vid)} == set(
                g.cause_successors(vid)
            )


def test_terminal_vertices_match_oracle(small_graphs):
    from provpolicy.pathexpr import Terminal

    for g in small_graphs[:15]:
        assert g.start_vertices() == frozenset(
            oracles._endpoint_matches(g, Terminal.START)
        )
        assert g.end_vertices() == frozenset(
            oracles._endpoint_matches(g, Terminal.END)
        )


def test_attribute_pairs(graph_b):
    assert graph_b.attribute_pairs("review1") == {("Attri", "Attri")}
    assert graph_b.attributes_of("grade1") == {}


def test_undirected_neighbors_exclude_attributes(graph_b):
    assert "att-review1" not in graph_b.undirected_neighbors("review1")
    assert "att-review1" in graph_b.all_neighbors("review1")


def test_neighbour_map_matches_edge_scan(small_graphs):
    rng = random.Random(41)
    graphs = list(small_graphs[:20])
    graphs += [corrupt_graph(rng, g) for g in small_graphs[:20]]  # dangling edges, self-loops
    for g in graphs:
        for vid in g.vertices:
            scan = {
                other
                for e in g.edges
                if e.src in g.vertices and e.dst in g.vertices
                for mine, other in ((e.src, e.dst), (e.dst, e.src))
                if mine == vid
            }
            got = g.all_neighbors(vid)
            assert isinstance(got, frozenset)
            assert got == scan, (g.id, vid)
    with pytest.raises(UnknownVertexError, match="unknown vertex id 'ghost' in graph"):
        graphs[0].all_neighbors("ghost")


def test_induced_edges_membership(graph_a):
    ids = frozenset({"upload1", "o1v1", "au1"})
    edges = induced_edges(graph_a, ids)
    assert all(e.src in ids and e.dst in ids for e in edges)
    assert {(e.src, e.dst) for e in edges} == {("o1v1", "upload1"), ("upload1", "au1")}


# ==== validation vs oracle ====


def _oracle_valid(g: ProvenanceGraph) -> bool:
    for v in g.vertices.values():
        if v.vtype is not VertexType.ATTRIBUTE and v.value is not None:
            return False
    for e in g.edges:
        if e.src not in g.vertices or e.dst not in g.vertices:
            return False
        if g.vertices[e.src].vtype is VertexType.ATTRIBUTE:
            return False
        if not oracles.triple_is_legal(g, e):
            return False
    return not oracles.has_cycle(g)


def test_validator_agrees_with_oracle(small_graphs):
    rng = random.Random(5)
    cases = []
    for g in small_graphs:
        cases.append(g)
        cases.append(corrupt_graph(rng, g))
    for g in cases:
        assert (validate_graph(g) == []) is _oracle_valid(g), g.id


def test_validator_names_the_violation():
    g = G("g", [V("ag", "Ag"), V("a", "A")], [Edge("ag", "a", EdgeLabel.USED)])
    kinds = {v.kind for v in validate_graph(g)}
    assert "illegal-edge" in kinds or any("edge" in k for k in kinds)


def test_two_cycle_detected():
    g = G("g", [V("a", "A"), V("b", "A")], [E("a", "b", "wdf"), E("b", "a", "wdf")])
    assert validate_graph(g) != []
    assert oracles.has_cycle(g)


def test_was_caused_by_rejected_in_inputs(graph_a):
    g = G(
        "g",
        [V("p", "P"), V("a", "A")],
        [Edge("a", "p", EdgeLabel.WAS_CAUSED_BY)],
    )
    assert validate_graph(g) != []
    assert validate_graph(g, allow_was_caused_by=True) == []


# ==== serialization ====


def test_round_trip(small_graphs, graph_a, graph_b, graph_c):
    for g in [graph_a, graph_b, graph_c, *small_graphs[:10]]:
        assert load_graph(save_graph(g)) == g


def test_save_is_canonical(graph_c):
    doc = json.loads(save_graph(graph_c))
    ids = [v["id"] for v in doc["vertices"]]
    assert ids == sorted(ids)
    assert save_graph(graph_c) == save_graph(load_graph(save_graph(graph_c)))


def test_save_graph_writes_the_json_dumps_text(graph_a, graph_b, graph_c):
    odd = 'q"uo\\te\n\t\x01\x1f\u00e9\u2603\U0001f600 \u2028'
    awkward = G(
        "g" + odd,
        [V("p" + odd, "P", "n" + odd), V("a", "A"), V("att", "Att", "k" + odd, odd),
         V("att2", "Att", "empty", "")],
        [E("p" + odd, "a", "used", "t" + odd), E("p" + odd, "att", "ha"),
         E("a", "att2", "ha", ""), E("ghost", "a", "wdf")],
    )
    graphs = [graph_a, graph_b, graph_c, awkward, G("empty", [], [])]
    graphs += gen_graphs(GenConfig(graphs=20, seed=4))
    for g in graphs:
        want = json.dumps(oracles.canonical_dict(g), indent=2, ensure_ascii=False) + "\n"
        assert save_graph(g) == want, g.id


def test_structural_hash_tracks_content(graph_a):
    same = load_graph(save_graph(graph_a))
    assert structural_hash(graph_a) == structural_hash(same)
    grown = G(
        "sample-a",
        list(graph_a.vertices.values()) + [V("extra", "A")],
        list(graph_a.edges),
    )
    assert structural_hash(graph_a) != structural_hash(grown)


def test_load_rejects_bad_documents():
    with pytest.raises(GraphFormatError):
        load_graph("{not json")
    with pytest.raises(GraphFormatError):
        load_graph(json.dumps([1, 2]))
    with pytest.raises(GraphFormatError):
        load_graph(json.dumps({"id": "g", "vertices": [], "edges": [], "bogus": 1}))
    with pytest.raises(GraphFormatError):
        load_graph(
            json.dumps(
                {
                    "id": "g",
                    "vertices": [{"id": "x", "type": "nope", "name": "x"}],
                    "edges": [],
                }
            )
        )
    with pytest.raises(GraphFormatError):
        load_graph(
            json.dumps(
                {
                    "id": "g",
                    "vertices": [
                        {"id": "x", "type": "process", "name": "x"},
                        {"id": "x", "type": "process", "name": "x"},
                    ],
                    "edges": [],
                }
            )
        )


def test_dot_output_mentions_every_vertex(graph_a):
    dot = to_dot(graph_a)
    assert dot.startswith("digraph")
    for vid in graph_a.vertices:
        assert vid in dot

import logging
import random

import pytest

from provpolicy.errors import TransformError, UnknownVertexError
from provpolicy.graph import EdgeLabel, structural_hash
from provpolicy.partition import Partition, VerticesSpec, resolve
from provpolicy.pathexpr import NameTest, node_test_to_text
from provpolicy.policy import (
    DependencyLabel,
    EdgeMergeTable,
    Mode,
    Scope,
    Transformation,
    parse_vcd,
)
from provpolicy.evaluator import apply_transformations
from provpolicy.samples import sample_policy
from provpolicy.transform import (
    Cluster,
    apply_remove,
    apply_replace,
    cluster_category,
    expand_scope,
)

import oracles
from util import E, G, V, random_node_test

U = EdgeLabel.USED
WGB = EdgeLabel.WAS_GENERATED_BY
WTB = EdgeLabel.WAS_TRIGGERED_BY
WCSD = EdgeLabel.WAS_CAUSED_BY


def part_of(g, *ids):
    return Partition(frozenset(ids), g)


def chain_graph():
    # p2 depends on a1, a1 was generated by p1; removing a1 must bridge
    return G(
        "chain",
        [V("p1", "P"), V("a1", "A"), V("p2", "P")],
        [E("p2", "a1", "used"), E("a1", "p1", "wgb")],
    )


# ==== scope expansion ====


def test_scope_original_is_identity(graph_c, vcd):
    base = resolve(graph_c, VerticesSpec(NameTest(("o3v1", "submit1"))))
    clusters = expand_scope(graph_c, base, Scope.ORIGINAL, vcd)
    assert clusters == [Cluster(frozenset({"o3v1", "submit1"}))]


def test_scope_empty_base(graph_c, vcd):
    assert expand_scope(graph_c, part_of(graph_c), Scope.ORIGINAL, vcd) == []


def test_scope_unknown_vertex(graph_c, vcd):
    for scope in Scope:
        with pytest.raises(UnknownVertexError,
                           match="^unknown vertex id 'ghost' in graph 'sample-c'$"):
            expand_scope(graph_c, part_of(graph_c, "o3v1", "ghost", "submit1"), scope, vcd)


def test_scope_conjunction_matches_oracle(graph_c, vcd):
    base = resolve(graph_c, VerticesSpec(NameTest(("submit1",))))
    clusters = expand_scope(graph_c, base, Scope.CONJUNCTION, vcd)
    assert len(clusters) == 1
    expected = oracles.naive_conjunction(
        graph_c,
        {"submit1"},
        {"Submission"},
        lambda vid: getattr(vcd.category_of(graph_c, vid), "name", None),
    )
    assert clusters[0].vertex_ids == frozenset(expected)
    assert clusters[0].category == "Submission"
    assert "confirm1" in clusters[0].vertex_ids


def test_scope_conjunction_random_graphs(small_graphs):
    rng = random.Random(61)
    for g in small_graphs[:12]:
        names = sorted({v.name for v in g.vertices.values()})
        members = [n for n in names[:: max(1, len(names) // 4)]][:3]
        if not members:
            continue
        vcd = parse_vcd(
            {"categories": [{"name": "C", "label": "c", "members": members}]}
        )
        seed = rng.choice(sorted(g.vertices))
        base = part_of(g, seed)
        clusters = expand_scope(g, base, Scope.CONJUNCTION, vcd)
        got = frozenset().union(*(c.vertex_ids for c in clusters))

        def cat(vid):
            return getattr(vcd.category_of(g, vid), "name", None)

        if cat(seed) is None:
            expected = {seed}
        else:
            expected = oracles.naive_conjunction(g, {seed}, {"C"}, cat)
        assert got == frozenset(expected)


def test_scope_extension_matches_oracle(graph_c, vcd):
    base = resolve(graph_c, VerticesSpec(NameTest(("o3v1",))))
    clusters = expand_scope(graph_c, base, Scope.EXTENSION, vcd)
    members = {
        vid
        for vid in graph_c.vertices
        if getattr(vcd.category_of(graph_c, vid), "name", None) == "Grading"
    }
    expected = {
        frozenset(comp)
        for comp in oracles.naive_same_category_components(graph_c, members)
    }
    assert {c.vertex_ids for c in clusters} == expected
    assert all(c.category == "Grading" for c in clusters)


def naive_extension(g, base, cd):
    """Extension scope from the first-match category scan and the
    brute-force component search, in the order ``expand_scope`` gives."""

    def name(vid):
        return getattr(cd.category_of(g, vid), "name", None)

    names = {name(vid) for vid in base}
    clusters = []
    for cat in cd.categories:
        if cat.name in names:
            members = {vid for vid in g.vertices if name(vid) == cat.name}
            clusters += [
                Cluster(frozenset(comp), cat.name)
                for comp in oracles.naive_same_category_components(g, members)
            ]
    return clusters + [Cluster(frozenset({vid})) for vid in sorted(base) if name(vid) is None]


def test_scope_extension_random_dictionaries(small_graphs):
    rng = random.Random(67)
    for g in small_graphs[:24]:
        ids = sorted(g.vertices)
        questions = []
        # two dictionaries with the same category names but their own
        # members; in each, a vertex both C0 and C1 match belongs to C0
        for _ in range(2):
            shared = rng.choice(ids)
            tests = [[node_test_to_text(random_node_test(rng, g))
                      for _ in range(rng.randint(1, 2))] for _ in range(3)]
            tests[0].append(shared)
            tests[1].insert(0, shared)
            cd = parse_vcd({"categories": [
                {"name": f"C{i}", "label": f"c{i}", "members": members}
                for i, members in enumerate(tests)
            ]})
            assert cd.category_map(g)[shared].name == "C0"
            questions.append((cd, {shared, *rng.sample(ids, rng.randint(0, 3))}))
            questions.append((cd, set(rng.sample(ids, rng.randint(1, 4)))))
        questions = questions[::2] + questions[1::2]  # interleave the two
        # the second round is answered from the components kept on g
        for _ in range(2):
            for cd, base in questions:
                clusters = expand_scope(g, part_of(g, *base), Scope.EXTENSION, cd)
                assert clusters == naive_extension(g, base, cd), (g.id, sorted(base))
                # callers may extend the list; that must not reach the cache
                clusters.append(Cluster(frozenset({ids[0]})))
                clusters[0] = Cluster(frozenset({ids[-1]}))


def naive_conjunction_scope(g, base, cd):
    """Conjunction scope from the first-match category scan and the
    fixpoint growth, in the order ``expand_scope`` gives."""

    def name(vid):
        return getattr(cd.category_of(g, vid), "name", None)

    names = {name(vid) for vid in base} - {None}
    clusters = []
    if names:
        grown = oracles.naive_conjunction(g, {vid for vid in base if name(vid)}, names, name)
        only = next(iter(names)) if len(names) == 1 else None
        clusters.append(Cluster(frozenset(grown), only))
    return clusters + [Cluster(frozenset({vid})) for vid in sorted(base) if name(vid) is None]


def test_scope_conjunction_random_dictionaries(small_graphs):
    rng = random.Random(71)
    expected_of = {Scope.CONJUNCTION: naive_conjunction_scope,
                   Scope.EXTENSION: naive_extension}
    spanning = 0
    for g in small_graphs[:24]:
        ids = sorted(g.vertices)
        questions = []
        for _ in range(2):
            tests = [[node_test_to_text(random_node_test(rng, g))
                      for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(2, 3))]
            cd = parse_vcd({"categories": [
                {"name": f"C{i}", "label": f"c{i}", "members": members}
                for i, members in enumerate(tests)
            ]})
            # conjunction over one category shares extension's components
            for scope in (Scope.CONJUNCTION, Scope.CONJUNCTION, Scope.EXTENSION):
                questions.append((cd, set(rng.sample(ids, rng.randint(2, 5))), scope))
        rng.shuffle(questions)
        # the second round is answered from the components kept on g
        for _ in range(2):
            for cd, base, scope in questions:
                clusters = expand_scope(g, part_of(g, *base), scope, cd)
                assert clusters == expected_of[scope](g, base, cd), (g.id, sorted(base))
                cats = cd.category_map(g)
                spanning += len({cats[vid].name for vid in base if vid in cats}) > 1
                # callers may change the list; that must not reach the cache
                clusters.append(Cluster(frozenset({ids[0]})))
                clusters[0] = Cluster(frozenset({ids[-1]}))
    assert spanning > 20  # bases over two or more categories are exercised


def test_scope_uncategorized_become_singletons(graph_c, vcd, caplog):
    base = resolve(graph_c, VerticesSpec(NameTest(("upload1", "submit1"))))
    with caplog.at_level(logging.WARNING):
        clusters = expand_scope(graph_c, base, Scope.EXTENSION, vcd)
    assert Cluster(frozenset({"upload1"})) in clusters
    assert any("no category" in r.message for r in caplog.records)


# ==== removal ====


def test_remove_bridges_through_single_vertex(emt):
    g = chain_graph()
    res = apply_remove(g, part_cluster("a1"), DependencyLabel.ORIGINAL, emt)
    assert set(res.graph.vertices) == {"p1", "p2"}
    [bridge] = [e for e in res.graph.edges]
    assert (bridge.src, bridge.dst) == ("p2", "p1")
    assert bridge.label is oracles.fold_labels(emt, [U, WGB])
    assert bridge.label is WTB
    assert res.log[0]["bridges"] == [
        {"src": "p2", "dst": "p1", "label": "wasTriggeredBy"}
    ]


def part_cluster(*ids, category=None):
    return Cluster(frozenset(ids), category)


def test_remove_false_dependency_all_wcsd(emt):
    g = chain_graph()
    res = apply_remove(g, part_cluster("a1"), DependencyLabel.FALSE, emt)
    assert [e.label for e in res.graph.edges] == [WCSD]


def test_remove_ambiguous_fold_falls_back():
    # two internal routes p2 -> ... -> p1; the sparse table folds them to
    # different labels, so the bridge degrades to the fallback
    g = G(
        "amb",
        [V("p1", "P"), V("p2", "P"), V("a1", "A"), V("a2", "A"), V("a3", "A")],
        [
            E("p2", "a1", "used"),
            E("a1", "p1", "wgb"),
            E("p2", "a2", "used"),
            E("a2", "a3", "wdf"),
            E("a3", "p1", "wgb"),
        ],
    )
    sparse = EdgeMergeTable(((U, WGB, WTB),))
    res = apply_remove(
        g, part_cluster("a1", "a2", "a3"), DependencyLabel.ORIGINAL, sparse
    )
    [bridge] = res.graph.edges
    assert bridge.label is WCSD


def test_remove_chain_fold_matches_oracle(emt):
    # p3 -used-> a2 -wdf-> a1 -wgb-> p1, cluster {a2, a1}
    g = G(
        "fold",
        [V("p1", "P"), V("a1", "A"), V("a2", "A"), V("p3", "P")],
        [E("p3", "a2", "used"), E("a2", "a1", "wdf"), E("a1", "p1", "wgb")],
    )
    res = apply_remove(g, part_cluster("a1", "a2"), DependencyLabel.ORIGINAL, emt)
    [bridge] = res.graph.edges
    assert bridge.label is oracles.fold_labels(
        emt, [U, EdgeLabel.WAS_DERIVED_FROM, WGB]
    )


def test_remove_preserves_reachability(small_graphs, emt):
    rng = random.Random(67)
    checked = 0
    for g in small_graphs:
        ids = sorted(
            vid
            for vid, v in g.vertices.items()
            if v.vtype.value != "attribute"
        )
        if len(ids) < 4:
            continue
        cluster = frozenset(rng.sample(ids, rng.randint(1, 2)))
        res = apply_remove(g, Cluster(cluster), DependencyLabel.ORIGINAL, emt)
        survivors = sorted(res.graph.vertices)
        for u in survivors:
            before = oracles.closure(g, u, forward=False)
            after = oracles.closure(res.graph, u, forward=False)
            assert after - {u} == {
                w for w in before - cluster if w in res.graph.vertices
            } - {u}, (g.id, sorted(cluster), u)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("label", list(DependencyLabel))
def test_remove_inner_vertices_of_long_chain(emt, label):
    # a walk that recursed once per vertex overflowed the interpreter
    # stack on this chain
    n = 3000
    g = G(
        "long-chain",
        [V(f"p{i}", "P") for i in range(n)],
        [E(f"p{i + 1}", f"p{i}", "wtb") for i in range(n - 1)],
    )
    inner = frozenset(f"p{i}" for i in range(1, n - 1))
    res = apply_remove(g, Cluster(inner), label, emt)
    assert set(res.graph.vertices) == {"p0", f"p{n - 1}"}
    [bridge] = res.graph.edges
    assert (bridge.src, bridge.dst) == (f"p{n - 1}", "p0")
    if label is DependencyLabel.ORIGINAL:
        assert bridge.label is oracles.fold_labels(emt, [WTB] * (n - 1))
    else:
        assert bridge.label is WCSD


def test_remove_orphaned_attributes(emt):
    g = G(
        "att",
        [
            V("p1", "P"),
            V("a1", "A"),
            V("p2", "P"),
            V("x1", "Att", "k", "only-host"),
            V("x2", "Att", "k", "shared"),
        ],
        [
            E("p2", "a1", "used"),
            E("a1", "p1", "wgb"),
            E("a1", "x1", "ha"),
            E("a1", "x2", "ha"),
            E("p2", "x2", "ha"),
        ],
    )
    res = apply_remove(g, part_cluster("a1"), DependencyLabel.ORIGINAL, emt)
    assert "x1" not in res.graph.vertices
    assert "x2" in res.graph.vertices
    assert res.log[0]["removed_attributes"] == ["x1"]


def test_remove_partial_cluster_rejected(graph_a, emt):
    with pytest.raises(TransformError, match="partially absent"):
        apply_remove(
            graph_a, part_cluster("upload1", "ghost"), DependencyLabel.ORIGINAL, emt
        )


def test_remove_absent_cluster_is_noop(graph_a, emt):
    res = apply_remove(graph_a, part_cluster("ghost"), DependencyLabel.ORIGINAL, emt)
    assert res.graph is graph_a
    assert res.log[0]["cluster"] == []


def test_remove_count_law(small_graphs, emt):
    rng = random.Random(71)
    for g in small_graphs[:15]:
        ids = sorted(
            vid for vid, v in g.vertices.items() if v.vtype.value != "attribute"
        )
        cluster = frozenset(rng.sample(ids, min(2, len(ids))))
        res = apply_remove(g, Cluster(cluster), DependencyLabel.ORIGINAL, emt)
        orphans = res.log[0]["removed_attributes"]
        assert len(res.graph.vertices) == len(g.vertices) - len(cluster) - len(orphans)


def test_remove_does_not_mutate(graph_c, emt):
    before = structural_hash(graph_c)
    apply_remove(graph_c, part_cluster("submit1"), DependencyLabel.ORIGINAL, emt)
    assert structural_hash(graph_c) == before


# ==== replacement ====


def grading_cluster(graph_c, vcd):
    base = resolve(graph_c, VerticesSpec(NameTest(("o3v1", "grade2", "o8v1"))))
    return Cluster(base.vertex_ids, "Grading")


def test_replace_count_law(graph_c, vcd):
    c = grading_cluster(graph_c, vcd)
    res = apply_replace(graph_c, c, vcd, DependencyLabel.FALSE)
    orphans = res.log[0]["removed_attributes"]
    assert len(res.graph.vertices) == len(graph_c.vertices) - len(c.vertex_ids) + 1 - len(orphans)


def test_replace_false_dependency_all_wcsd(graph_c, vcd):
    c = grading_cluster(graph_c, vcd)
    res = apply_replace(graph_c, c, vcd, DependencyLabel.FALSE, vertex_id="m")
    touching = [e for e in res.graph.edges if "m" in (e.src, e.dst)]
    assert touching and all(e.label is WCSD for e in touching)


def test_replace_original_keeps_legal_labels(emt, vcd):
    # a1 collapses into a process vertex; p2's used edge stays legal
    g = chain_graph()
    cd = parse_vcd(
        {
            "categories": [
                {
                    "name": "Art",
                    "label": "Blob",
                    "replacement_type": "artifact",
                    "members": ["a1"],
                }
            ]
        }
    )
    res = apply_replace(
        g, part_cluster("a1", category="Art"), cd, DependencyLabel.ORIGINAL
    )
    by_pair = {(e.src, e.dst): e.label for e in res.graph.edges}
    assert by_pair[("p2", "merged:Art")] is U
    assert by_pair[("merged:Art", "p1")] is WGB


def test_replace_illegal_label_falls_back(vcd):
    # collapsing into a process makes the incoming used edge illegal
    g = chain_graph()
    cd = parse_vcd(
        {
            "categories": [
                {
                    "name": "Step",
                    "label": "Hidden",
                    "replacement_type": "process",
                    "members": ["a1"],
                }
            ]
        }
    )
    res = apply_replace(
        g, part_cluster("a1", category="Step"), cd, DependencyLabel.ORIGINAL
    )
    by_pair = {(e.src, e.dst): e.label for e in res.graph.edges}
    assert by_pair[("p2", "merged:Step")] is WCSD
    assert by_pair[("merged:Step", "p1")] is WCSD


def test_replace_drops_cluster_attribute_edges():
    # x2 survives via its second host, so a1's attachment to it is dropped
    # rather than rewired to the new vertex
    g = G(
        "shared-att",
        [
            V("p1", "P"),
            V("a1", "A"),
            V("p2", "P"),
            V("x2", "Att", "k", "shared"),
        ],
        [
            E("p2", "a1", "used"),
            E("a1", "p1", "wgb"),
            E("a1", "x2", "ha"),
            E("p2", "x2", "ha"),
        ],
    )
    cd = parse_vcd(
        {"categories": [{"name": "Art", "label": "Blob", "members": ["a1"]}]}
    )
    res = apply_replace(
        g, part_cluster("a1", category="Art"), cd, DependencyLabel.FALSE, vertex_id="m"
    )
    assert res.log[0]["dropped_attribute_edges"] == 1
    assert "x2" in res.graph.vertices
    assert not any(
        e.label is EdgeLabel.HAS_ATTRIBUTES and "m" in (e.src, e.dst)
        for e in res.graph.edges
    )


def test_replace_fresh_id_suffix(graph_c, vcd):
    c = grading_cluster(graph_c, vcd)
    res = apply_replace(graph_c, c, vcd, DependencyLabel.FALSE, vertex_id="upload1")
    assert "upload1-2" in res.graph.vertices


def test_replace_new_vertex_named_by_category(graph_c, vcd):
    c = grading_cluster(graph_c, vcd)
    res = apply_replace(graph_c, c, vcd, DependencyLabel.FALSE)
    v = res.graph.vertices["merged:Grading"]
    assert v.name == "Graded"
    assert v.vtype.value == "process"


def test_replace_category_resolution_errors(graph_c, vcd):
    with pytest.raises(TransformError, match="empty cluster"):
        apply_replace(graph_c, Cluster(frozenset()), vcd, DependencyLabel.FALSE)
    with pytest.raises(TransformError, match="unknown category"):
        cluster_category(graph_c, part_cluster("o3v1", category="Nope"), vcd)
    with pytest.raises(TransformError, match="no category"):
        cluster_category(graph_c, part_cluster("upload1"), vcd)
    with pytest.raises(TransformError, match="span categories"):
        cluster_category(graph_c, part_cluster("o3v1", "submit1"), vcd)


def test_replace_cycle_rejected(vcd):
    # collapsing the two ends of a chain closes a loop through the middle
    g = G(
        "loop",
        [V("p1", "P"), V("a1", "A"), V("p3", "P")],
        [E("p3", "a1", "used"), E("a1", "p1", "wgb")],
    )
    cd = parse_vcd(
        {"categories": [{"name": "Ends", "label": "X", "members": ["p1", "p3"]}]}
    )
    with pytest.raises(TransformError, match="invalid graph"):
        apply_replace(
            g, part_cluster("p1", "p3", category="Ends"), cd, DependencyLabel.ORIGINAL
        )


def test_replace_does_not_mutate(graph_c, vcd):
    before = structural_hash(graph_c)
    apply_replace(graph_c, grading_cluster(graph_c, vcd), vcd, DependencyLabel.FALSE)
    assert structural_hash(graph_c) == before


# ==== pipelines ====


def test_pipeline_on_sample(graph_c, vcd, emt):
    res = apply_transformations(
        graph_c, sample_policy().transformations, vcd, emt
    )
    assert sorted(res.graph.vertices) == [
        "au1", "au2", "merged:0:Grading", "o1v1", "o1v2", "o1v3",
        "o5v1", "o9v1", "publish1", "replace1", "review2", "upload1",
    ]
    ops = [r["op"] for r in res.log]
    assert ops == ["replace", "remove"]
    assert res.log[0]["transformation"] == 0
    assert res.log[1]["cluster"] == ["confirm1", "submit1"]
    assert all("partition" in r and "scope" in r for r in res.log)


def test_pipeline_empty_partition_records_skip(graph_a, vcd, emt):
    t = Transformation(
        VerticesSpec(NameTest(("missing",))),
        Scope.ORIGINAL,
        Mode.REMOVE,
        DependencyLabel.ORIGINAL,
    )
    res = apply_transformations(graph_a, [t], vcd, emt)
    assert res.graph == graph_a
    assert res.log == (
        {
            "transformation": 0,
            "partition": "vertices(missing)",
            "scope": "original",
            "mode": "remove",
            "op": "skip",
            "reason": "empty partition",
        },
    )


def test_pipeline_second_step_sees_first(graph_c, vcd, emt):
    # both steps name o3v1; the second finds it gone and records a skip
    t1 = Transformation(
        VerticesSpec(NameTest(("o3v1",))),
        Scope.ORIGINAL,
        Mode.REMOVE,
        DependencyLabel.FALSE,
    )
    res = apply_transformations(graph_c, [t1, t1], vcd, emt)
    assert [r["op"] for r in res.log] == ["remove", "skip"]
    assert res.log[1]["reason"] == "empty partition"


def test_pipeline_does_not_mutate(graph_c, vcd, emt):
    before = structural_hash(graph_c)
    apply_transformations(graph_c, sample_policy().transformations, vcd, emt)
    assert structural_hash(graph_c) == before


def test_pipeline_skips_a_cluster_an_earlier_one_removed(vcd, emt):
    # p1 is in the Grading category and q in none, so conjunction scope
    # gives the clusters {p1} and {q}; removing p1 takes its orphaned
    # attribute q, and the second cluster finds nothing left
    g = G(
        "attr",
        [V("p1", "P", "grade2"), V("a1", "A"), V("q", "Att", value="v")],
        [E("p1", "a1", "used"), E("p1", "q", "ha")],
    )
    t = Transformation(
        VerticesSpec(NameTest(("grade2", "q"))),
        Scope.CONJUNCTION,
        Mode.REMOVE,
        DependencyLabel.ORIGINAL,
    )
    res = apply_transformations(g, [t], vcd, emt)
    assert sorted(res.graph.vertices) == ["a1"]
    assert [r["op"] for r in res.log] == ["remove", "skip"]
    assert res.log[0]["removed_attributes"] == ["q"]
    assert res.log[1] == {
        "transformation": 0,
        "partition": "vertices(grade2|q)",
        "scope": "conjunction",
        "mode": "remove",
        "op": "skip",
        "reason": "cluster already removed",
        "cluster": ["q"],
    }

"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints one [ACCEPTANCE] verdict line through the summary hook
in conftest.py. C1-C3 pin the worked sample results exactly, C4-C5 are
randomized equivalence and invariant sweeps with fixed seeds, C6-C8
check the evaluation and measurement harnesses end to end.
"""

import random
import time
from pathlib import Path

from provpolicy.bench import (
    GenConfig,
    gen_graphs,
    gen_scenario_policies,
    run_combination,
    run_expressiveness,
    sample_partitions,
)
from provpolicy.errors import TransformError
from provpolicy.evaluator import (
    Outcome,
    combine_effects,
    decision_to_dict,
    evaluate,
)
from provpolicy.graph import (
    EdgeLabel,
    VertexType,
    save_graph,
    structural_hash,
    validate_graph,
)
from provpolicy.partition import VerticesSpec
from provpolicy.pathexpr import NameTest, TypedNameTest, WildcardTest
from provpolicy.policy import (
    AccessRequest,
    DependencyLabel,
    Effect,
    Mode,
    Policy,
    Scope,
    Target,
    Transformation,
    parse_vcd,
)
from provpolicy.query import eval_directed_path, eval_general_path, eval_query
from provpolicy.samples import (
    sample_graph_a,
    sample_graph_b,
    sample_graph_c,
    sample_merge_table,
    sample_policy,
    sample_vcd,
)
from provpolicy.transform import Cluster, apply_remove, apply_replace

import oracles
from util import random_node_test, random_path_expr

GOLDEN = Path(__file__).resolve().parent / "golden" / "sample_c_transformed.json"


def small_cfg(seed, graphs):
    # 3 + 4 + 2 processes/artifacts/agents plus 2 attributes: 11 vertices
    return GenConfig(
        graphs=graphs, processes=3, artifacts=4, agents=2, attributes=2, seed=seed
    )


def test_c1_worked_path_examples():
    started = time.perf_counter()
    a, b = sample_graph_a(), sample_graph_b()

    upload = TypedNameTest(VertexType.PROCESS, ("upload",))
    submit = TypedNameTest(VertexType.PROCESS, ("submit",))
    for g in (a, b):
        directed = eval_directed_path(g, upload, submit)
        assert [m.vertices for m in directed] == [
            ("upload1", "o1v1", "replace1", "o1v2", "submit1")
        ]

    general = eval_general_path(
        b,
        TypedNameTest(VertexType.ARTIFACT, ("o2v1",)),
        TypedNameTest(VertexType.ARTIFACT, ("o4v1",)),
    )
    assert [m.vertices for m in general] == [
        ("o2v1", "review1", "o1v3", "grade1", "o4v1")
    ]

    for g in (a, b):
        coincident = eval_general_path(g, NameTest(("au1",)), NameTest(("o1v2",)))
        assert {m.vertices for m in coincident} == {
            ("au1", "upload1", "o1v1", "replace1", "o1v2"),
            ("au1", "replace1", "o1v2"),
            ("au1", "submit1", "o1v2"),
        }

    assert time.perf_counter() - started < 1.0


def test_c2_canonical_query_rows():
    g = sample_graph_b()
    rows = {
        "//o1v2/replace1/o1v1/upload1/au1": {
            ("o1v2", "replace1", "o1v1", "upload1", "au1")
        },
        "//o1v2//o1v1": {("o1v2", "replace1", "o1v1")},
        "//o2v2//review1[@Attri='Attri']": {("o2v2", "o2v1", "review1")},
        "//o2v2//review1[@Attri='Attri']/au2": {("o2v2", "o2v1", "review1", "au2")},
    }
    for expr, expected in rows.items():
        got = {m.vertices for m in eval_query(g, expr)}
        assert got == expected, expr


def test_c3_sample_policy_golden_view():
    def run():
        return evaluate(
            AccessRequest("sample-c", {"role": "student"}),
            [sample_policy()],
            sample_graph_c(),
            sample_vcd(),
            sample_merge_table(),
        )

    decision, result = run()
    view = result.graph

    # byte-stable golden comparison, including a repeat run
    assert save_graph(view) == GOLDEN.read_text()
    _, again = run()
    assert save_graph(again.graph) == GOLDEN.read_text()

    # a single replacement vertex stands in for the collapsed region and
    # every edge touching it carries the fallback label
    merged = [vid for vid in view.vertices if vid.startswith("merged:")]
    assert len(merged) == 1
    boundary = [e for e in view.edges if merged[0] in (e.src, e.dst)]
    assert boundary and all(
        e.label is EdgeLabel.WAS_CAUSED_BY for e in boundary
    )

    # the submission steps are gone and the rest still satisfies the
    # schema, bridges included
    names = {v.name for v in view.vertices.values()}
    assert not names & {"Submit", "wasSubmittedBy", "confirm"}
    assert validate_graph(view, allow_was_caused_by=True) == []
    assert decision.outcome is Outcome.PERMIT_TRANSFORMED
    assert decision.hidden_vertex_count == 7


def test_c4_engines_match_bruteforce():
    started = time.perf_counter()
    graphs = gen_graphs(small_cfg(101, 1000))
    assert len(graphs) >= 1000
    assert all(len(g.vertices) <= 12 for g in graphs)
    rng = random.Random(211)

    for g in graphs:
        expr = random_path_expr(rng, g)
        got = {m.vertices for m in eval_query(g, expr)}
        assert got == oracles.oracle_query(g, expr), g.id

        start, end = random_node_test(rng, g), random_node_test(rng, g)
        vias = tuple(random_node_test(rng, g) for _ in range(rng.randint(0, 1)))
        got = {m.vertices for m in eval_directed_path(g, start, end, via=vias)}
        assert got == oracles.oracle_directed(g, start, end, vias), g.id

        start, end = random_node_test(rng, g), random_node_test(rng, g)
        got = {
            (m.vertices, tuple(d.value for d in m.directions))
            for m in eval_general_path(g, start, end)
        }
        assert got == oracles.oracle_general(g, start, end), g.id

        ids = sorted(g.vertices)
        rows = [
            (
                rng.choice((Effect.PERMIT, Effect.DENY, Effect.ABSOLUTE_PERMIT)),
                rng.sample(ids, rng.randint(0, len(ids))),
            )
            for _ in range(rng.randint(0, 4))
        ]
        assert combine_effects(rows, ids) == oracles.naive_combine(rows, ids)

    assert time.perf_counter() - started < 60.0


def test_c5_transformation_invariants():
    emt = sample_merge_table()
    graphs = gen_graphs(small_cfg(103, 250))
    cases = 0
    rejected_replacements = 0

    for g in graphs:
        before = structural_hash(g)
        parts = sample_partitions(g, 4, seed=107)
        for i, part in enumerate(parts):
            label = (
                DependencyLabel.ORIGINAL if i % 2 == 0 else DependencyLabel.FALSE
            )
            cluster_ids = frozenset(
                vid
                for vid in part.vertex_ids
                if g.vertices[vid].vtype is not VertexType.ATTRIBUTE
            )
            if not cluster_ids:
                cluster_ids = part.vertex_ids
            if i < 2:
                res = apply_remove(g, Cluster(cluster_ids), label, emt)
                orphans = res.log[0]["removed_attributes"]
                assert len(res.graph.vertices) == len(g.vertices) - len(
                    cluster_ids
                ) - len(orphans)
                assert validate_graph(res.graph, allow_was_caused_by=True) == []
                if label is DependencyLabel.ORIGINAL:
                    assert_reachability_preserved(g, res.graph, cluster_ids)
            else:
                names = sorted({g.vertices[vid].name for vid in cluster_ids})
                vcd = parse_vcd(
                    {
                        "categories": [
                            {
                                "name": "Picked",
                                "label": "Collapsed",
                                "replacement_type": "process",
                                "members": ["|".join(names)],
                            }
                        ]
                    }
                )
                try:
                    res = apply_replace(
                        g, Cluster(cluster_ids, "Picked"), vcd, label
                    )
                except TransformError:
                    # collapsing may close a cycle; the attempt must be
                    # refused without touching the input
                    rejected_replacements += 1
                    assert structural_hash(g) == before
                    cases += 1
                    continue
                orphans = res.log[0]["removed_attributes"]
                assert len(res.graph.vertices) == len(g.vertices) - len(
                    cluster_ids
                ) + 1 - len(orphans)
                assert validate_graph(res.graph, allow_was_caused_by=True) == []
            assert structural_hash(g) == before
            cases += 1

    assert cases >= 1000
    assert rejected_replacements < cases / 2


def assert_reachability_preserved(g, out, cluster_ids):
    for u in out.vertices:
        if u not in g.vertices:
            continue
        before = oracles.closure(g, u, forward=False)
        after = oracles.closure(out, u, forward=False)
        assert after == {w for w in before if w in out.vertices}, (g.id, u)


def test_c6_combination_scenarios():
    vcd, emt = sample_vcd(), sample_merge_table()
    graphs = gen_graphs(small_cfg(109, 6))

    for g in graphs:
        req = AccessRequest(g.id)

        shields = gen_scenario_policies(g, 8, "absolute-permit", seed=0)
        decision, result = evaluate(req, shields, g, vcd, emt)
        assert structural_hash(result.graph) == structural_hash(g)
        assert decision.outcome in (Outcome.PERMIT_FULL, Outcome.PERMIT_TRANSFORMED)
        assert decision.outcome is Outcome.PERMIT_FULL

        cover_all = Policy(
            "cover-all",
            target=Target(graph_ids=(g.id,)),
            effect=Effect.DENY,
            transformations=(
                Transformation(
                    VerticesSpec(WildcardTest()),
                    Scope.ORIGINAL,
                    Mode.REMOVE,
                    DependencyLabel.ORIGINAL,
                ),
            ),
        )
        decision, result = evaluate(req, [cover_all], g, vcd, emt)
        assert decision.hidden_vertex_count == len(g.vertices)
        assert not result.graph.vertices and not result.graph.edges

    g = graphs[0]
    req = AccessRequest(g.id)
    mixed = gen_scenario_policies(g, 4, "mixed", seed=1)
    seen_views = set()
    seen_decisions = set()
    import itertools

    for perm in itertools.permutations(mixed):
        decision, result = evaluate(req, list(perm), g, vcd, emt)
        seen_views.add(structural_hash(result.graph))
        doc = decision_to_dict(decision, result)
        seen_decisions.add((doc["outcome"], tuple(doc["appliedPolicies"]),
                            doc["hiddenVertexCount"]))
    assert len(seen_views) == 1
    assert len(seen_decisions) == 1


def test_c7_expressiveness_dominance():
    report = run_expressiveness(GenConfig(), n_partitions=300)
    assert report.sampled == 300
    assert all(v.paclp or not v.lpac for v in report.verdicts)
    assert report.paclp_count > report.lpac_count
    # the counts README reports for this run
    assert (report.paclp_count, report.lpac_count) == (89, 82)


def test_c8_timing_scaling():
    g = gen_graphs(GenConfig(graphs=1, seed=0))[0]
    rows = run_combination(g, sizes=(5, 10, 15, 20), repetitions=9, seed=0)
    assert len(rows) == 12
    by_scenario = {}
    for row in rows:
        assert row["mean_ns"] > 0 and row["median_ns"] > 0
        by_scenario.setdefault(row["scenario"], []).append(
            (row["policy_count"], row["median_ns"])
        )
    assert sorted(by_scenario) == ["absolute-permit", "deny", "mixed"]
    for scenario, series in by_scenario.items():
        counts = [n for n, _ in series]
        assert counts == [5, 10, 15, 20]
        medians = [m for _, m in series]
        # larger policy sets may not time strictly higher, but the curve
        # must not collapse: tolerate a 3x noise band. Medians, since one
        # call slowed by another process moves a mean across the band
        for prev, nxt in zip(medians, medians[1:]):
            assert nxt * 3 >= prev, (scenario, medians)

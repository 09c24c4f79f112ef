import itertools
import random

import pytest

from provpolicy.errors import EvaluationError, TransformError
from provpolicy.evaluator import (
    Decision,
    Outcome,
    combine_effects,
    decision_to_dict,
    evaluate,
)
from provpolicy.graph import EdgeLabel, structural_hash
from provpolicy.partition import VerticesSpec
from provpolicy.pathexpr import NameTest, WildcardTest, parse_path_expr
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
from provpolicy.samples import sample_policy

import oracles
from util import E, G, V


def pol(pid, effect, ids, mode=Mode.REMOVE, graph="sample-a"):
    sel = WildcardTest() if ids is None else NameTest(tuple(sorted(ids)))
    return Policy(
        pid,
        target=Target(graph_ids=(graph,)),
        effect=effect,
        transformations=(
            Transformation(
                VerticesSpec(sel),
                Scope.ORIGINAL,
                mode,
                DependencyLabel.ORIGINAL,
            ),
        ),
    )


def req_for(g, attrs=None, query=None):
    return AccessRequest(g.id, attrs or {}, query)


# ==== effect combination ====


def test_combine_effects_lattice():
    out = combine_effects(
        [
            (Effect.PERMIT, ["a", "b"]),
            (Effect.DENY, ["b", "c"]),
            (Effect.ABSOLUTE_PERMIT, ["c", "d"]),
            (Effect.DENY, ["d"]),
        ],
        vertices=["a", "b", "c", "d", "e"],
    )
    assert out == {
        "a": Effect.PERMIT,
        "b": Effect.DENY,
        "c": Effect.ABSOLUTE_PERMIT,
        "d": Effect.ABSOLUTE_PERMIT,
        "e": Effect.PERMIT,
    }


def test_combine_effects_order_independent():
    rows = [
        (Effect.DENY, ["a"]),
        (Effect.ABSOLUTE_PERMIT, ["a"]),
        (Effect.PERMIT, ["a"]),
    ]
    for perm in itertools.permutations(rows):
        assert combine_effects(perm)["a"] is Effect.ABSOLUTE_PERMIT


def test_combine_effects_matches_naive_in_key_order():
    rng = random.Random(83)
    outside = ["x0", "x1", "x2"]
    for _ in range(300):
        vertices = rng.sample([f"v{i}" for i in range(10)], rng.randint(0, 10))
        pool = vertices + outside
        rows = [
            (rng.choice(list(Effect)), rng.sample(pool, rng.randint(0, len(pool))))
            for _ in range(rng.randint(0, 5))
        ]
        got = combine_effects(rows, vertices)
        assert list(got.items()) == list(oracles.naive_combine(rows, vertices).items())
        # an id outside ``vertices`` that only permits name adds no key
        denied = {vid for effect, ids in rows if effect is not Effect.PERMIT for vid in ids}
        assert got.keys() <= set(vertices) | denied


# ==== request guards ====


def test_graph_id_mismatch(graph_a, vcd, emt):
    with pytest.raises(EvaluationError, match="targets graph"):
        evaluate(AccessRequest("other"), [], graph_a, vcd, emt)


def test_duplicate_policy_ids(graph_a, vcd, emt):
    p = pol("dup", Effect.PERMIT, None)
    with pytest.raises(EvaluationError, match="duplicate policy id"):
        evaluate(req_for(graph_a), [p, p], graph_a, vcd, emt)


def test_no_applicable_policy_denies_everything(graph_a, vcd, emt):
    p = pol("elsewhere", Effect.PERMIT, None, graph="sample-b")
    decision, result = evaluate(req_for(graph_a), [p], graph_a, vcd, emt)
    assert decision.outcome is Outcome.DENY_ALL
    assert decision.applied_policies == ()
    assert decision.hidden_vertex_count == len(graph_a.vertices)
    assert not result.graph.vertices and not result.graph.edges
    assert result.graph.id == graph_a.id
    assert result.log[0]["op"] == "deny-all"


# ==== outcomes ====


def test_all_permit_returns_graph_unchanged(graph_a, vcd, emt):
    p = pol("allow", Effect.PERMIT, None)
    decision, result = evaluate(req_for(graph_a), [p], graph_a, vcd, emt)
    assert decision.outcome is Outcome.PERMIT_FULL
    assert decision.applied_policies == ("allow",)
    assert decision.hidden_vertex_count == 0
    assert structural_hash(result.graph) == structural_hash(graph_a)


def test_all_absolute_permit_identity(graph_a, vcd, emt):
    p = pol("shield", Effect.ABSOLUTE_PERMIT, None)
    decision, result = evaluate(req_for(graph_a), [p], graph_a, vcd, emt)
    assert decision.outcome is Outcome.PERMIT_FULL
    assert structural_hash(result.graph) == structural_hash(graph_a)


def test_deny_covering_everything_empties_graph(graph_a, vcd, emt):
    p = pol("censor", Effect.DENY, None)
    decision, result = evaluate(req_for(graph_a), [p], graph_a, vcd, emt)
    assert decision.outcome is Outcome.PERMIT_TRANSFORMED
    assert decision.hidden_vertex_count == len(graph_a.vertices)
    assert not result.graph.vertices


def test_absolute_permit_shields_overlapping_deny(graph_a, vcd, emt):
    deny = pol("hide", Effect.DENY, ["upload1", "o1v1"])
    shield = pol("keep", Effect.ABSOLUTE_PERMIT, ["upload1"])
    decision, result = evaluate(req_for(graph_a), [deny, shield], graph_a, vcd, emt)
    assert decision.effects["upload1"] is Effect.ABSOLUTE_PERMIT
    assert decision.effects["o1v1"] is Effect.DENY
    assert "upload1" in result.graph.vertices
    assert "o1v1" not in result.graph.vertices
    assert decision.hidden_vertex_count == 1


def test_fully_shielded_deny_is_permit_full(graph_a, vcd, emt):
    deny = pol("hide", Effect.DENY, ["upload1"])
    shield = pol("keep", Effect.ABSOLUTE_PERMIT, ["upload1"])
    decision, result = evaluate(req_for(graph_a), [deny, shield], graph_a, vcd, emt)
    assert decision.outcome is Outcome.PERMIT_FULL
    assert structural_hash(result.graph) == structural_hash(graph_a)


def test_remove_wins_over_replace(graph_c, vcd, emt):
    remove = pol("r1", Effect.DENY, ["o3v1", "grade2", "o8v1"], graph="sample-c")
    replace = Policy(
        "r2",
        target=Target(graph_ids=("sample-c",)),
        effect=Effect.DENY,
        transformations=(
            Transformation(
                VerticesSpec(NameTest(("grade2", "o3v1", "o8v1"))),
                Scope.ORIGINAL,
                Mode.REPLACE,
                DependencyLabel.FALSE,
            ),
        ),
    )
    decision, result = evaluate(
        req_for(graph_c), [remove, replace], graph_c, vcd, emt
    )
    assert not any(vid.startswith("merged:") for vid in result.graph.vertices)
    assert "grade2" not in result.graph.vertices
    applied_modes = {s.transformation.mode for s in decision.plan}
    assert applied_modes == {Mode.REMOVE}


def test_policy_order_does_not_matter(graph_a, vcd, emt):
    pols = [
        pol("a-hide", Effect.DENY, ["o1v1", "o1v2"]),
        pol("b-keep", Effect.ABSOLUTE_PERMIT, ["o1v2"]),
        pol("c-allow", Effect.PERMIT, None),
    ]
    outputs = set()
    decisions = []
    for perm in itertools.permutations(pols):
        decision, result = evaluate(req_for(graph_a), list(perm), graph_a, vcd, emt)
        outputs.add(structural_hash(result.graph))
        decisions.append(decision.applied_policies)
    assert len(outputs) == 1
    assert all(d == ("a-hide", "b-keep", "c-allow") for d in decisions)


def test_sample_policy_end_to_end(graph_c, vcd, emt):
    decision, result = evaluate(
        AccessRequest("sample-c", {"role": "student"}),
        [sample_policy()],
        graph_c,
        vcd,
        emt,
    )
    assert decision.outcome is Outcome.PERMIT_TRANSFORMED
    assert decision.applied_policies == ("hide-grading",)
    assert decision.hidden_vertex_count == 7
    assert "merged:0:Grading" in result.graph.vertices
    assert "submit1" not in result.graph.vertices


def test_sample_policy_staff_not_applicable(graph_c, vcd, emt):
    decision, _ = evaluate(
        AccessRequest("sample-c", {"role": "staff"}),
        [sample_policy()],
        graph_c,
        vcd,
        emt,
    )
    assert decision.outcome is Outcome.DENY_ALL


# ==== request query post-filter ====


def test_query_trims_view(graph_a, vcd, emt):
    p = pol("allow", Effect.PERMIT, None)
    query = parse_path_expr("//o1v2//upload1")
    decision, result = evaluate(
        req_for(graph_a, query=query), [p], graph_a, vcd, emt
    )
    assert decision.outcome is Outcome.PERMIT_FULL
    kept = set(result.graph.vertices)
    assert {"o1v2", "o1v1", "upload1"} <= kept
    assert "submit1" not in kept
    assert result.log[-1]["op"] == "query"


def test_query_keeps_attached_attributes(graph_b, vcd, emt):
    p = pol("allow", Effect.PERMIT, None, graph="sample-b")
    matched = {
        m
        for m in graph_b.vertices
        if graph_b.vertices[m].vtype.value != "attribute"
    }
    query = parse_path_expr("//*")
    _, result = evaluate(req_for(graph_b, query=query), [p], graph_b, vcd, emt)
    atts = {
        e.dst
        for e in graph_b.edges
        if e.label is EdgeLabel.HAS_ATTRIBUTES and e.src in set(result.graph.vertices)
    }
    assert atts <= set(result.graph.vertices)
    assert matched <= set(result.graph.vertices)


def test_query_with_no_match_empties_view(graph_a, vcd, emt):
    p = pol("allow", Effect.PERMIT, None)
    query = parse_path_expr("//upload1//o9v9")
    decision, result = evaluate(
        req_for(graph_a, query=query), [p], graph_a, vcd, emt
    )
    assert decision.outcome is Outcome.PERMIT_FULL
    assert not result.graph.vertices


# ==== serialization ====


def test_decision_to_dict_shape(graph_c, vcd, emt):
    decision, result = evaluate(
        AccessRequest("sample-c", {"role": "student"}),
        [sample_policy()],
        graph_c,
        vcd,
        emt,
    )
    doc = decision_to_dict(decision, result)
    assert sorted(doc) == [
        "appliedPolicies",
        "hiddenVertexCount",
        "log",
        "outcome",
    ]
    assert doc["outcome"] == "PermitTransformed"
    assert doc["appliedPolicies"] == ["hide-grading"]
    assert doc["hiddenVertexCount"] == 7
    assert all(isinstance(r, dict) for r in doc["log"])


def test_effects_cover_every_vertex(graph_a, vcd, emt):
    deny = pol("hide", Effect.DENY, ["upload1"])
    decision, _ = evaluate(req_for(graph_a), [deny], graph_a, vcd, emt)
    assert set(decision.effects) == set(graph_a.vertices)
    uncovered = set(graph_a.vertices) - {"upload1"}
    assert all(decision.effects[v] is Effect.PERMIT for v in uncovered)


def test_input_graph_never_mutated(graph_c, vcd, emt):
    before = structural_hash(graph_c)
    evaluate(
        AccessRequest("sample-c", {"role": "student"}),
        [sample_policy()],
        graph_c,
        vcd,
        emt,
    )
    assert structural_hash(graph_c) == before


def test_random_policy_sets_order_independent(small_graphs, vcd, emt):
    rng = random.Random(73)
    for g in small_graphs[:8]:
        ids = sorted(g.vertices)
        pols = []
        for i, effect in enumerate(
            (Effect.DENY, Effect.ABSOLUTE_PERMIT, Effect.PERMIT)
        ):
            chosen = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
            pols.append(pol(f"p{i}", effect, chosen, graph=g.id))
        base = None
        for perm in itertools.permutations(pols):
            _, result = evaluate(req_for(g), list(perm), g, vcd, emt)
            h = structural_hash(result.graph)
            base = h if base is None else base
            assert h == base


# ==== invalid input graphs ====

# An invalid input is reported by the check of the produced view, with
# every violation the view still holds.


def test_invalid_input_with_illegal_triple_fails_the_plan(vcd, emt):
    g = G(
        "broken",
        [V("p1", "P"), V("a1", "A"), V("a2", "A"), V("ag", "Ag")],
        [E("p1", "a1", "used"), E("a2", "p1", "wgb"), E("p1", "ag", "wcb"),
         E("ag", "a1", "used")],
    )
    p = pol("hide", Effect.DENY, ["a2"], graph="broken")
    with pytest.raises(TransformError) as info:
        evaluate(req_for(g), [p], g, vcd, emt)
    assert str(info.value) == (
        "transformation plan produced an invalid graph: illegal-edge: "
        "(Ag, A, used) is not an allowed edge triple: (ag, a1, used)"
    )


def test_invalid_input_with_cycle_fails_the_plan(vcd, emt):
    g = G(
        "looped",
        [V("p1", "P"), V("p2", "P"), V("p3", "P"), V("a1", "A", value="x")],
        [E("p1", "p2", "wtb"), E("p2", "p1", "wtb"), E("p3", "p1", "wtb"),
         E("p3", "a1", "used")],
    )
    p = pol("hide", Effect.DENY, ["p3"], graph="looped")
    with pytest.raises(TransformError) as info:
        evaluate(req_for(g), [p], g, vcd, emt)
    assert str(info.value) == (
        "transformation plan produced an invalid graph: "
        "value-on-non-attribute: vertex 'a1' has a value but is of type artifact; "
        "cycle: cycle among non-attribute edges: p1, p2"
    )


def test_plan_removing_the_invalid_part_is_accepted(vcd, emt):
    g = G(
        "broken",
        [V("p1", "P"), V("a1", "A"), V("ag", "Ag")],
        [E("p1", "a1", "used"), E("p1", "ag", "wcb"), E("ag", "a1", "used")],
    )
    p = pol("hide", Effect.DENY, ["ag"], graph="broken")
    decision, result = evaluate(req_for(g), [p], g, vcd, emt)
    assert decision.outcome is Outcome.PERMIT_TRANSFORMED
    assert set(result.graph.vertices) == {"p1", "a1"}


def test_invalid_input_without_an_applied_step_is_not_checked(vcd, emt):
    g = G(
        "broken",
        [V("p1", "P"), V("a1", "A"), V("ag", "Ag")],
        [E("p1", "a1", "used"), E("ag", "a1", "used")],
    )
    p = pol("allow", Effect.PERMIT, None, graph="broken")
    decision, result = evaluate(req_for(g), [p], g, vcd, emt)
    assert decision.outcome is Outcome.PERMIT_FULL
    assert result.graph is g


# ==== the step loop ====


def test_overlapping_removes_act_on_what_is_left(graph_a, vcd, emt):
    first = pol("a", Effect.DENY, ["o1v1", "o1v2"])
    partly = pol("b", Effect.DENY, ["o1v1", "replace1"])
    gone = pol("c", Effect.DENY, ["o1v2"])
    decision, result = evaluate(
        req_for(graph_a), [gone, partly, first], graph_a, vcd, emt
    )
    assert [(s.policy_id, s.cluster.vertex_ids) for s in decision.plan] == [
        ("a", frozenset({"o1v1", "o1v2"})),
        ("b", frozenset({"replace1"})),
    ]
    assert [r["op"] for r in result.log] == ["remove", "remove", "skip"]
    assert result.log[1]["cluster"] == ["replace1"]
    skip = result.log[2]
    assert skip == {"policy": "c", "transformation": 0, "op": "skip",
                    "reason": "cluster already removed"}
    assert list(skip) == ["policy", "transformation", "op", "reason"]


def test_step_error_names_its_policy(vcd, emt):
    # collapsing the two ends of a chain closes a loop through the middle
    g = G(
        "loop",
        [V("p1", "P"), V("a1", "A"), V("p3", "P")],
        [E("p3", "a1", "used"), E("a1", "p1", "wgb")],
    )
    ends = parse_vcd(
        {"categories": [{"name": "Ends", "label": "X", "members": ["p1", "p3"]}]}
    )
    p = pol("collapse", Effect.DENY, ["p1", "p3"], mode=Mode.REPLACE, graph="loop")
    with pytest.raises(TransformError) as info:
        evaluate(req_for(g), [p], g, ends, emt)
    assert str(info.value).startswith(
        "policy 'collapse': replace produced an invalid graph: cycle"
    )

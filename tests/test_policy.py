import random

import pytest

from provpolicy.errors import PolicyParseError
from provpolicy.graph import EdgeLabel, VertexType
from provpolicy.partition import SubgraphSpec, VerticesSpec
from provpolicy.pathexpr import NameTest, TypedNameTest, node_test_to_text
from provpolicy.policy import (
    AccessRequest,
    AttributePredicate,
    Condition,
    DependencyLabel,
    EdgeMergeTable,
    Effect,
    Mode,
    Policy,
    Scope,
    Target,
    Transformation,
    applicable,
    parse_merge_table,
    parse_policy,
    parse_transformation_xml,
    parse_vcd,
    serialize_merge_table,
    serialize_policy,
    serialize_vcd,
)
from provpolicy.samples import (
    SAMPLE_TRANSFORMATION_BLOCK,
    SAMPLE_VCD_JSON,
    sample_policy,
    sample_policy_xml,
)

from util import random_node_test

U = EdgeLabel.USED
WGB = EdgeLabel.WAS_GENERATED_BY
WCB = EdgeLabel.WAS_CONTROLLED_BY
WTB = EdgeLabel.WAS_TRIGGERED_BY
WDF = EdgeLabel.WAS_DERIVED_FROM
WCSD = EdgeLabel.WAS_CAUSED_BY


# ==== effect lattice ====


def test_effect_precedence():
    assert Effect.ABSOLUTE_PERMIT.rank > Effect.DENY.rank > Effect.PERMIT.rank


def test_effect_wire_values():
    assert Effect.PERMIT.value == "permit"
    assert Effect.DENY.value == "deny"
    assert Effect.ABSOLUTE_PERMIT.value == "absolute permit"


# ==== predicates, targets, conditions ====


def test_attribute_predicate_ops():
    eq = AttributePredicate("role", "staff")
    ne = AttributePredicate("role", "staff", "!=")
    assert eq.holds({"role": "staff"}) and not eq.holds({"role": "student"})
    assert not eq.holds({})
    assert ne.holds({"role": "student"}) and ne.holds({})
    assert not ne.holds({"role": "staff"})
    with pytest.raises(PolicyParseError):
        AttributePredicate("role", "staff", ">=")


def test_target_matching(graph_a):
    req = AccessRequest("sample-a", {"role": "staff"})
    assert Target().matches(req, graph_a)
    assert Target(graph_ids=("sample-a", "other")).matches(req, graph_a)
    assert not Target(graph_ids=("other",)).matches(req, graph_a)
    assert Target(resource=NameTest(("upload1",))).matches(req, graph_a)
    assert not Target(resource=NameTest(("missing",))).matches(req, graph_a)
    assert Target(
        requester=(AttributePredicate("role", "staff"),)
    ).matches(req, graph_a)
    assert not Target(
        requester=(AttributePredicate("role", "student"),)
    ).matches(req, graph_a)


def test_condition_nonempty_partition(graph_a):
    req = AccessRequest("sample-a")
    present = Condition(nonempty_partitions=(VerticesSpec(NameTest(("upload1",))),))
    absent = Condition(nonempty_partitions=(VerticesSpec(NameTest(("nope",))),))
    assert Condition().is_empty and Condition().holds(req, graph_a)
    assert present.holds(req, graph_a)
    assert not absent.holds(req, graph_a)


def test_policy_needs_target_or_transformation():
    with pytest.raises(PolicyParseError):
        Policy("")
    with pytest.raises(PolicyParseError):
        Policy("p1")
    Policy("p2", target=Target(graph_ids=("g",)))
    Policy(
        "p3",
        transformations=(
            Transformation(
                VerticesSpec(NameTest(("x",))),
                Scope.ORIGINAL,
                Mode.REMOVE,
                DependencyLabel.ORIGINAL,
            ),
        ),
    )


def test_applicable_combines_target_and_condition(graph_c):
    pol = sample_policy()
    assert applicable(pol, AccessRequest("sample-c", {"role": "student"}), graph_c)
    assert applicable(pol, AccessRequest("sample-c", {}), graph_c)
    assert not applicable(pol, AccessRequest("sample-c", {"role": "staff"}), graph_c)


# ==== policy XML ====


def test_parse_sample_policy():
    pol = sample_policy()
    assert pol.id == "hide-grading"
    assert pol.target.graph_ids == ("sample-c",)
    assert pol.condition.requester == (AttributePredicate("role", "staff", "!="),)
    assert pol.effect is Effect.DENY
    assert pol.obligation == "log the request"
    first, second = pol.transformations
    assert first.partition == SubgraphSpec(
        TypedNameTest(VertexType.ARTIFACT, ("o3v1",)),
        TypedNameTest(VertexType.ARTIFACT, ("o8v1",)),
    )
    assert (first.scope, first.mode, first.label) == (
        Scope.ORIGINAL,
        Mode.REPLACE,
        DependencyLabel.FALSE,
    )
    assert second.partition == VerticesSpec(
        TypedNameTest(VertexType.PROCESS, ("Submit", "wasSubmittedBy"))
    )
    assert (second.scope, second.mode, second.label) == (
        Scope.CONJUNCTION,
        Mode.REMOVE,
        DependencyLabel.ORIGINAL,
    )


def test_policy_round_trip():
    pol = sample_policy()
    assert parse_policy(serialize_policy(pol)) == pol


def test_transformation_block_groups_quadruples():
    # one element, two quadruples; the repeated <partition> starts the second
    quads = parse_transformation_xml(SAMPLE_TRANSFORMATION_BLOCK)
    assert len(quads) == 2
    assert quads == sample_policy().transformations


def test_transformation_incomplete_quadruple():
    with pytest.raises(PolicyParseError, match="missing"):
        parse_transformation_xml(
            "<Transformation><partition>vertices(x)</partition>"
            "<scope>original</scope><mode>remove</mode></Transformation>"
        )


def test_transformation_unknown_tag():
    with pytest.raises(PolicyParseError, match="unknown tag"):
        parse_transformation_xml(
            "<Transformation><why>because</why></Transformation>"
        )


def test_transformation_empty():
    with pytest.raises(PolicyParseError):
        parse_transformation_xml("<Transformation></Transformation>")


def test_parse_policy_errors():
    with pytest.raises(PolicyParseError, match="XML syntax"):
        parse_policy("<policy")
    with pytest.raises(PolicyParseError, match="expected <policy>"):
        parse_policy("<rule id='x'><effect>deny</effect></rule>")
    with pytest.raises(PolicyParseError, match="id"):
        parse_policy("<policy><effect>deny</effect></policy>")
    with pytest.raises(PolicyParseError, match="unknown attribute"):
        parse_policy('<policy id="x" version="2"><effect>deny</effect></policy>')
    with pytest.raises(PolicyParseError, match="missing <effect>"):
        parse_policy('<policy id="x"><target><graph>g</graph></target></policy>')
    with pytest.raises(PolicyParseError, match="duplicate"):
        parse_policy(
            '<policy id="x"><target><graph>g</graph></target>'
            "<effect>deny</effect><effect>permit</effect></policy>"
        )
    with pytest.raises(PolicyParseError, match="unknown effect"):
        parse_policy(
            '<policy id="x"><target><graph>g</graph></target>'
            "<effect>veto</effect></policy>"
        )
    with pytest.raises(PolicyParseError, match="unknown tag"):
        parse_policy(
            '<policy id="x"><verdict>deny</verdict><effect>deny</effect></policy>'
        )


def test_requester_inequality_sign_is_normalized():
    pol = parse_policy(
        '<policy id="x"><target>'
        '<requester name="role" op="≠">staff</requester></target>'
        "<effect>deny</effect></policy>"
    )
    assert pol.target.requester == (AttributePredicate("role", "staff", "!="),)


def test_effect_value_whitespace_tolerant():
    pol = parse_policy(
        '<policy id="x"><target><graph>g</graph></target>'
        "<effect>  Absolute\n Permit </effect></policy>"
    )
    assert pol.effect is Effect.ABSOLUTE_PERMIT


# ==== category dictionary ====


def test_vcd_round_trip(vcd):
    assert parse_vcd(serialize_vcd(vcd)) == vcd


def test_vcd_sample_contents(vcd):
    names = [c.name for c in vcd.categories]
    assert names == ["Grading", "Submission"]
    assert vcd.by_name("Grading").label == "Graded"
    assert vcd.by_name("missing") is None


def test_vcd_category_of_first_match(graph_c):
    doc = {
        "categories": [
            {"name": "First", "label": "F", "members": ["grade2"]},
            {"name": "Second", "label": "S", "members": ["TypedV_P(G, grade2)"]},
        ]
    }
    cd = parse_vcd(doc)
    assert cd.category_of(graph_c, "grade2").name == "First"
    assert cd.category_of(graph_c, "upload1") is None


def test_vcd_sample_membership(graph_c, vcd):
    assert vcd.category_of(graph_c, "o3v1").name == "Grading"
    assert vcd.category_of(graph_c, "submit1").name == "Submission"


def test_category_map_equals_first_match_scan(graph_c, vcd, small_graphs):
    # grade2 is a member of both categories; the first one wins
    both = parse_vcd(
        {
            "categories": [
                {"name": "First", "label": "F", "members": ["grade2", "AttV_A(G, 'v')"]},
                {"name": "Second", "label": "S", "members": ["TypedV_P(G)"]},
            ]
        }
    )
    assert both.category_map(graph_c)["grade2"].name == "First"
    assert both.category_map(graph_c)["submit1"].name == "Second"
    rng = random.Random(71)
    cases = [(graph_c, both), (graph_c, vcd)]
    for g in small_graphs[:20]:
        doc = {"categories": [
            {"name": f"C{i}", "label": f"c{i}",
             "members": [node_test_to_text(random_node_test(rng, g))
                         for _ in range(rng.randint(0, 2))]}
            for i in range(3)
        ]}
        cases.append((g, parse_vcd(doc)))
    for g, cd in cases:
        cats = cd.category_map(g)
        assert set(cats) <= set(g.vertices)
        for vid in g.vertices:
            assert cats.get(vid) == cd.category_of(g, vid), vid


def test_category_maps_are_kept_per_dictionary(graph_c):
    first = parse_vcd({"categories": [{"name": "F", "label": "f", "members": ["grade2"]}]})
    second = parse_vcd(
        {"categories": [{"name": "S", "label": "s", "members": ["TypedV_P(G)"]}]}
    )
    a = first.category_map(graph_c)
    b = second.category_map(graph_c)
    assert a == {"grade2": first.categories[0]}
    assert b == {
        vid: second.categories[0]
        for vid, v in graph_c.vertices.items() if v.vtype is VertexType.PROCESS
    }
    # each dictionary reads back its own map, built once
    assert first.category_map(graph_c) is a
    assert second.category_map(graph_c) is b


def test_vcd_errors():
    with pytest.raises(PolicyParseError, match="duplicate category"):
        parse_vcd(
            {
                "categories": [
                    {"name": "A", "label": "a", "members": []},
                    {"name": "A", "label": "b", "members": []},
                ]
            }
        )
    with pytest.raises(PolicyParseError, match="unknown"):
        parse_vcd({"kinds": []})
    with pytest.raises(PolicyParseError, match="name"):
        parse_vcd({"categories": [{"label": "a", "members": []}]})
    with pytest.raises(PolicyParseError, match="replacement_type"):
        parse_vcd(
            {
                "categories": [
                    {"name": "A", "label": "a", "replacement_type": "blob"}
                ]
            }
        )
    with pytest.raises(PolicyParseError, match="members"):
        parse_vcd({"categories": [{"name": "A", "label": "a", "members": ["(("]}]})
    with pytest.raises(PolicyParseError, match="JSON"):
        parse_vcd("{not json")


def test_vcd_default_replacement_type():
    cd = parse_vcd({"categories": [{"name": "A", "label": "a", "members": []}]})
    assert cd.categories[0].replacement_type is VertexType.PROCESS


# ==== edge merge table ====


def test_default_merge_rules():
    emt = EdgeMergeTable.default()
    assert len(emt.rules) == 9
    assert emt.merged(U, WGB) is WTB
    assert emt.merged(WGB, U) is WDF
    assert emt.merged(U, WDF) is U
    assert emt.merged(WGB, WTB) is WGB
    assert emt.merged(WDF, WGB) is WGB
    assert emt.merged(WDF, WDF) is WDF
    assert emt.merged(WTB, U) is U
    assert emt.merged(WTB, WCB) is WCB
    assert emt.merged(WTB, WTB) is WTB


def test_merge_fallback_for_unlisted_pairs():
    emt = EdgeMergeTable.default()
    assert emt.merged(U, U) is WCSD
    assert emt.merged(WCSD, WGB) is WCSD
    assert emt.merged(WCB, WTB) is WCSD


def test_merge_rule_demoted_when_illegal():
    # bridging used then wasGeneratedBy joins two processes, where a
    # "used" edge is not allowed; the table falls back instead
    emt = EdgeMergeTable(((U, WGB, U),))
    assert emt.merged(U, WGB) is WCSD


def test_merge_conflicting_rules_rejected():
    with pytest.raises(PolicyParseError, match="conflicting"):
        EdgeMergeTable(((U, WGB, WTB), (U, WGB, WDF)))
    EdgeMergeTable(((U, WGB, WTB), (U, WGB, WTB)))


def test_merge_table_round_trip(emt):
    assert parse_merge_table(serialize_merge_table(emt)) == emt


def test_merge_table_parse_errors():
    with pytest.raises(PolicyParseError, match="fallback is fixed"):
        parse_merge_table({"fallback": "used", "rules": []})
    with pytest.raises(PolicyParseError, match="unknown merge table fields"):
        parse_merge_table({"extra": True})
    with pytest.raises(PolicyParseError, match="missing fields"):
        parse_merge_table({"rules": [{"in": "used", "out": "wasGeneratedBy"}]})
    with pytest.raises(PolicyParseError, match="unknown edge label"):
        parse_merge_table(
            {"rules": [{"in": "used", "out": "ate", "merged": "used"}]}
        )
    with pytest.raises(PolicyParseError, match="JSON"):
        parse_merge_table("[")


def test_sample_xml_matches_builtin():
    assert parse_policy(sample_policy_xml()) == sample_policy()


def test_sample_vcd_text_matches_builtin(vcd):
    assert parse_vcd(SAMPLE_VCD_JSON) == vcd

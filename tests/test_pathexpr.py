import pytest

from provpolicy.errors import ExprSyntaxError
from provpolicy.graph import VertexType
from provpolicy.pathexpr import (
    AttrPred,
    AttributeValueTest,
    Axis,
    ExpressionParser,
    IdSetTest,
    NameTest,
    PathExpr,
    PathStep,
    TypedNameTest,
    TypeTest,
    WildcardTest,
    node_test_to_text,
    parse_node_test_text,
    parse_path_expr,
    path_expr_to_text,
)
from provpolicy.pathexpr import test_matches as matches

from util import E, G, V


# ==== node test parsing ====


def test_bare_name():
    assert parse_node_test_text("upload1") == NameTest(("upload1",))


def test_name_alternation():
    assert parse_node_test_text("Submit|wasSubmittedBy") == NameTest(
        ("Submit", "wasSubmittedBy")
    )


def test_wildcard():
    assert parse_node_test_text("*") == WildcardTest()


def test_typed_selector_with_names():
    assert parse_node_test_text("TypedV_P(G, upload)") == TypedNameTest(
        VertexType.PROCESS, ("upload",)
    )


def test_typed_selector_type_only():
    assert parse_node_test_text("TypedV_Ag(G)") == TypeTest(VertexType.AGENT)


def test_typed_selector_tolerates_prime_and_placeholder():
    a = parse_node_test_text("TypedV_A'(G_i, o3v1)")
    b = parse_node_test_text("TypedV_A(G, o3v1)")
    assert a == b == TypedNameTest(VertexType.ARTIFACT, ("o3v1",))


def test_typed_selector_alternation():
    assert parse_node_test_text("TypedV_P(G, Submit|wasSubmittedBy)") == TypedNameTest(
        VertexType.PROCESS, ("Submit", "wasSubmittedBy")
    )


def test_attribute_value_selector():
    assert parse_node_test_text("AttV_P(G, '2016')") == AttributeValueTest(
        VertexType.PROCESS, "2016"
    )


def test_node_test_round_trips():
    for text in (
        "upload1",
        "Submit|wasSubmittedBy",
        "*",
        "TypedV_P(G, upload)",
        "TypedV_Ag(G)",
        "AttV_A(G, '2016')",
    ):
        t = parse_node_test_text(text)
        assert parse_node_test_text(node_test_to_text(t)) == t


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_path_expr("//[")
    assert err.value.offset is not None


# ==== path expression parsing ====


def test_table_style_expression():
    expr = parse_path_expr("//o1v2/replace1/o1v1/upload1/au1")
    assert [s.axis for s in expr.steps] == [
        Axis.DESCENDANT,
        Axis.CHILD,
        Axis.CHILD,
        Axis.CHILD,
        Axis.CHILD,
    ]
    assert expr.steps[0].test == NameTest(("o1v2",))


def test_descendant_axis_pairs():
    expr = parse_path_expr("//o1v2//o1v1")
    assert [s.axis for s in expr.steps] == [Axis.DESCENDANT, Axis.DESCENDANT]


def test_gap_token_is_descendant():
    assert parse_path_expr(r"//au1\v+o1v2") == parse_path_expr("//au1//o1v2")
    # a vertical tab is only whitespace, so "+" is left where an axis belongs
    with pytest.raises(ExprSyntaxError) as err:
        parse_path_expr("//a\x0b+b")
    assert err.value.offset == 4


def test_predicate():
    expr = parse_path_expr("//o2v2//review1[@Attri='Attri']")
    assert expr.steps[1].pred == AttrPred("Attri", "Attri")


def test_predicate_then_child():
    expr = parse_path_expr("//o2v2//review1[@Attri='Attri']/au2")
    assert len(expr.steps) == 3
    assert expr.steps[2].axis is Axis.CHILD


def test_following_preceding_axes_parse():
    expr = parse_path_expr("//upload1/following::*")
    assert expr.steps[-1].axis is Axis.FOLLOWING
    expr = parse_path_expr("//upload1/preceding::*")
    assert expr.steps[-1].axis is Axis.PRECEDING


def test_path_expr_round_trip():
    for text in (
        "//o1v2/replace1/o1v1/upload1/au1",
        "//o1v2//o1v1",
        "//o2v2//review1[@Attri='Attri']/au2",
        "//TypedV_P(G, upload)//TypedV_P(G, submit)",
    ):
        expr = parse_path_expr(text)
        assert parse_path_expr(path_expr_to_text(expr)) == expr


def test_trailing_junk_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_path_expr("//a//b ???")


def test_tolerate_gt_skips_stray_angle():
    p = ExpressionParser("a > b", tolerate_gt=True)
    assert p.scan_name() == "a"
    p.skip_ws()
    assert p.scan_name() == "b"
    strict = ExpressionParser("a > b", tolerate_gt=False)
    assert strict.scan_name() == "a"
    strict.skip_ws()
    assert not strict.at_end()
    assert strict.peek() == ">"


# ==== matching ====


@pytest.fixture
def tiny():
    return G(
        "tiny",
        [
            V("p1", "P", "upload"),
            V("p2", "P", "upload"),
            V("a1", "A", "doc"),
            V("ag1", "Ag", "alice"),
            V("att1", "Att", "date", "2016"),
        ],
        [
            E("p1", "a1", "used"),
            E("p1", "ag1", "wcb"),
            E("p1", "att1", "ha"),
        ],
    )


def test_name_test_matches_name_or_id(tiny):
    assert matches(NameTest(("upload",)), tiny, "p1")
    assert matches(NameTest(("p1",)), tiny, "p1")
    assert not matches(NameTest(("upload",)), tiny, "a1")


def test_typed_name_requires_both(tiny):
    t = TypedNameTest(VertexType.PROCESS, ("upload",))
    assert matches(t, tiny, "p1")
    assert not matches(t, tiny, "a1")
    assert not matches(TypedNameTest(VertexType.ARTIFACT, ("upload",)), tiny, "p1")


def test_type_test(tiny):
    assert matches(TypeTest(VertexType.AGENT), tiny, "ag1")
    assert not matches(TypeTest(VertexType.AGENT), tiny, "p1")


def test_wildcard_matches_everything(tiny):
    assert all(matches(WildcardTest(), tiny, vid) for vid in tiny.vertices)


def test_attribute_value_matches_host_and_attribute(tiny):
    t = AttributeValueTest(VertexType.PROCESS, "2016")
    assert matches(t, tiny, "p1")
    assert not matches(t, tiny, "p2")
    own = AttributeValueTest(VertexType.ATTRIBUTE, "2016")
    assert matches(own, tiny, "att1")


def test_id_set_test(tiny):
    t = IdSetTest(frozenset({"p1", "a1"}))
    assert matches(t, tiny, "p1")
    assert not matches(t, tiny, "p2")


def test_expr_equality_ignores_source_text():
    assert parse_path_expr("//a//b") == parse_path_expr("  //a   //  b ")

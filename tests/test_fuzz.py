"""Fuzz test: every parser, given arbitrary text or a mutated sample
input, either parses it or raises ``ProvPolicyError``; never another
exception."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from provpolicy.errors import GraphFormatError, PolicyParseError, ProvPolicyError
from provpolicy.graph import load_graph
from provpolicy.partition import parse_partition_expr
from provpolicy.pathexpr import parse_path_expr
from provpolicy.policy import parse_merge_table, parse_policy, parse_vcd

DATA = Path(__file__).resolve().parent.parent / "data"


def read(*names: str) -> list[str]:
    return [(DATA / name).read_text(encoding="utf-8") for name in names]


PARSERS = {
    "load_graph": (load_graph, read("sample_a.json", "sample_b.json", "sample_c.json")),
    "parse_policy": (parse_policy, read("sample_policy.xml")),
    "parse_vcd": (parse_vcd, read("sample_vcd.json")),
    "parse_merge_table": (parse_merge_table, read("sample_merge_table.json")),
    "parse_partition_expr": (parse_partition_expr, [
        "subgraphs (TypedV_A' (G_i, o3v1)//TypedV_A' (G_i, o8v1)>)",
        "vertices (TypedV_P' (G_i, Submit|wasSubmittedBy))",
        "directed(a // b, c \\v+ d)",
        "general(au1 \\v+ o1v2)",
        "subgraphs(START // AttV_Att(G, '2016'))",
        "subgraphs(o1v2 /following::*)",
    ]),
    "parse_path_expr": (parse_path_expr, [
        "//o1v2/replace1/o1v1/upload1/au1",
        "//au1\\v+o1v2",
        "//*[AttV_A(G, '2016')]/TypedV_P(G)",
        "//TypedV_Ag(G, a|b)/following::*/preceding::*",
    ]),
}

# pieces of every input syntax, spliced in where a mutation edits
TOKENS = (
    "{", "}", "[", "]", "(", ")", '"', "'", ":", ",", "<", ">", "/", "//",
    "\\v+", "|", "=", "*", " ", "\n", "\x0b", "\\", "null", "true", "0",
    "-1", "1e999", '"id"', '"type"', '"vertices"', '"edges"', '"process"',
    '"hasAttributes"', "</policy>", "<partition>", "<scope>", "&amp;",
    "START", "END", "TypedV_P(", "AttV_Att(", "G, ", "following::*",
)


@st.composite
def mutants(draw, samples: list[str]) -> str:
    """A sample with one to four spans deleted, replaced or repeated."""
    text = draw(st.sampled_from(samples))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        edit = draw(st.sampled_from(("delete", "replace", "repeat")))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "replace":
            piece = draw(st.one_of(st.sampled_from(TOKENS), st.text(max_size=3)))
            text = text[:i] + piece + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_parsers_raise_only_their_own_error(name, data):
    parse, samples = PARSERS[name]
    text = data.draw(st.one_of(st.text(), mutants(samples)))
    try:
        parse(text)
    except ProvPolicyError:
        pass


@pytest.mark.parametrize("name, error", [
    ("load_graph", GraphFormatError),
    ("parse_vcd", PolicyParseError),
    ("parse_merge_table", PolicyParseError),
])
@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"categories": ' * 100_000,
], ids=["arrays", "objects"])
def test_deeply_nested_json_raises_the_format_error(name, error, text):
    # json.loads gives up on such nesting with RecursionError
    with pytest.raises(error, match="nesting too deep"):
        PARSERS[name][0](text)

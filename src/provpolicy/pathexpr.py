"""Parsing for path expressions and the node tests they are built from.

Grammar (whitespace is insignificant between tokens)::

    path-expr  := step+
    step       := axis test predicate?
    axis       := "//" | "/" | "\\v+"
    test       := "*" | typed-selector | names
    typed-sel  := ("TypedV" | "AttV") "_" ("Ag"|"A"|"P"|"Att") "'"?
                  "(" arg ("," arg)* ")"
    names      := name ("|" name)*
    predicate  := "[@" name "=" "'" value "'" "]"

The leading axis only anchors the expression: the first step selects every
vertex matching its test, wherever it sits. ``//`` (and its synonym
``\\v+``) means one or more effect steps, ``/`` exactly one.

A typed selector's first argument is a graph placeholder (``G_i`` in most
written policies) and is accepted but ignored; the optional second
argument carries a name alternation (TypedV) or an attribute value (AttV).
A prime mark after the selector head is tolerated. Name literals match a
vertex when they equal either its name or its id.

``/following::*`` and ``/preceding::*`` parse as their own axes; they are
only meaningful as the tail of a ``subgraphs(...)`` partition expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import ExprSyntaxError
from .graph import ProvenanceGraph, TYPE_BY_CODE, VertexType

GRAPH_PLACEHOLDER = "G"

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_TYPED_HEAD_RE = re.compile(r"^(TypedV|AttV)_([A-Za-z]+)$")


# ==== node tests ====


@dataclass(frozen=True)
class WildcardTest:
    """``*`` -- matches every vertex."""


@dataclass(frozen=True)
class NameTest:
    """Bare literal(s); matches on vertex name or id."""

    names: tuple[str, ...]


@dataclass(frozen=True)
class TypeTest:
    """``TypedV_t(G)`` -- every vertex of one type."""

    vtype: VertexType


@dataclass(frozen=True)
class TypedNameTest:
    """``TypedV_t(G, a|b)`` -- vertices of one type matching a name literal."""

    vtype: VertexType
    names: tuple[str, ...]


@dataclass(frozen=True)
class AttributeValueTest:
    """``AttV_t(G, value)`` -- vertices of one type carrying an attribute
    with the given value; applied to attribute vertices it matches their
    own value."""

    vtype: VertexType
    value: str


@dataclass(frozen=True)
class IdSetTest:
    """Internal anchor test over explicit vertex ids; not part of the
    text grammar."""

    ids: frozenset[str]


NodeTest = (
    WildcardTest | NameTest | TypeTest | TypedNameTest | AttributeValueTest | IdSetTest
)


class Terminal(Enum):
    """Graph terminals usable as subgraph endpoints; spelled START / END."""

    START = "START"
    END = "END"


@dataclass(frozen=True)
class AttrPred:
    """``[@name='value']`` on the vertex matched by a step."""

    name: str
    value: str


class Axis(Enum):
    CHILD = "/"
    DESCENDANT = "//"
    FOLLOWING = "/following::*"
    PRECEDING = "/preceding::*"


@dataclass(frozen=True)
class PathStep:
    axis: Axis
    test: NodeTest
    pred: AttrPred | None = None


@dataclass(frozen=True)
class PathExpr:
    steps: tuple[PathStep, ...]


# ==== matching ====


def test_matches(test: NodeTest, g: ProvenanceGraph, vid: str) -> bool:
    """Whether ``test`` matches the vertex ``vid``: the reference
    definition that ``matching_ids`` answers from the graph's lookups."""
    v = g.vertices[vid]
    if isinstance(test, WildcardTest):
        return True
    if isinstance(test, IdSetTest):
        return vid in test.ids
    if isinstance(test, NameTest):
        return any(n == v.name or n == v.id for n in test.names)
    if isinstance(test, TypeTest):
        return v.vtype is test.vtype
    if isinstance(test, TypedNameTest):
        return v.vtype is test.vtype and any(n == v.name or n == v.id for n in test.names)
    if isinstance(test, AttributeValueTest):
        if v.vtype is not test.vtype:
            return False
        if v.vtype is VertexType.ATTRIBUTE:
            return v.value == test.value
        return any(val == test.value for _, val in g.attribute_pairs(vid))
    raise TypeError(f"not a node test: {test!r}")


def matching_ids(test: NodeTest, g: ProvenanceGraph) -> frozenset[str]:
    """Ids of every vertex ``test`` matches, read from the graph's lookups
    by name, type and attribute value without testing each vertex."""
    if isinstance(test, WildcardTest):
        return frozenset(g.vertices)
    if isinstance(test, IdSetTest):
        return frozenset(vid for vid in test.ids if vid in g.vertices)
    if isinstance(test, (NameTest, TypedNameTest)):
        named = frozenset().union(*map(g.ids_named, test.names))
        if isinstance(test, NameTest):
            return named
        return named & g.ids_of_type(test.vtype)
    if isinstance(test, TypeTest):
        return g.ids_of_type(test.vtype)
    if isinstance(test, AttributeValueTest):
        return g.ids_with_value(test.vtype, test.value)
    raise TypeError(f"not a node test: {test!r}")


def pred_matches(pred: AttrPred | None, g: ProvenanceGraph, vid: str) -> bool:
    if pred is None:
        return True
    return (pred.name, pred.value) in g.attribute_pairs(vid)


# ==== rendering (for policy serialization round trips) ====


def node_test_to_text(test: NodeTest) -> str:
    if isinstance(test, WildcardTest):
        return "*"
    if isinstance(test, NameTest):
        return "|".join(test.names)
    if isinstance(test, TypeTest):
        return f"TypedV_{test.vtype.code}({GRAPH_PLACEHOLDER})"
    if isinstance(test, TypedNameTest):
        return f"TypedV_{test.vtype.code}({GRAPH_PLACEHOLDER}, " + "|".join(test.names) + ")"
    if isinstance(test, AttributeValueTest):
        return f"AttV_{test.vtype.code}({GRAPH_PLACEHOLDER}, '{test.value}')"
    raise TypeError(f"cannot render {test!r}")


def path_expr_to_text(expr: PathExpr) -> str:
    parts = []
    for step in expr.steps:
        parts.append(step.axis.value if step.axis is not Axis.CHILD else "/")
        if step.axis in (Axis.FOLLOWING, Axis.PRECEDING):
            continue
        parts.append(node_test_to_text(step.test))
        if step.pred is not None:
            parts.append(f"[@{step.pred.name}='{step.pred.value}']")
    return "".join(parts)


# ==== scanner / parser ====


class ExpressionParser:
    """Character-level recursive descent shared by path and partition
    expression parsing.

    ``tolerate_gt`` makes the scanner skip stray ``>`` characters, which
    turn up in hand-authored partition text.
    """

    def __init__(self, text: str, *, tolerate_gt: bool = False) -> None:
        self.text = text
        self.pos = 0
        self.tolerate_gt = tolerate_gt

    # -- low-level --

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos, expected)

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace() or (self.tolerate_gt and ch == ">"):
                self.pos += 1
            else:
                break

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_literal(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect_literal(self, lit: str) -> None:
        if not self.try_literal(lit):
            raise self.error(f"expected {lit!r}", (lit,))

    def scan_name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name", ("name",))
        self.pos = m.end()
        return m.group()

    # -- node tests --

    def _scan_selector_arg(self) -> str:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "'":
            self.pos += 1
            end = self.text.find("'", self.pos)
            if end < 0:
                raise self.error("unterminated quoted value", ("'",))
            value = self.text[self.pos : end]
            self.pos = end + 1
            return value
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",)":
            self.pos += 1
        arg = self.text[start : self.pos].strip()
        if not arg:
            raise self.error("empty selector argument", ("value",))
        return arg

    def parse_node_test(self) -> NodeTest:
        if self.try_literal("*"):
            return WildcardTest()
        start = self.pos
        head = self.scan_name()
        m = _TYPED_HEAD_RE.match(head)
        if m:
            kind, code = m.groups()
            if code not in TYPE_BY_CODE:
                self.pos = start
                raise self.error(
                    f"unknown vertex type code {code!r}", ("Ag", "A", "P", "Att")
                )
            vtype = TYPE_BY_CODE[code]
            self.try_literal("'")  # tolerated prime mark
            self.expect_literal("(")
            args = [self._scan_selector_arg()]
            while self.try_literal(","):
                args.append(self._scan_selector_arg())
            self.expect_literal(")")
            # args[0] is the graph placeholder and is ignored.
            if kind == "TypedV":
                if len(args) == 1:
                    return TypeTest(vtype)
                if len(args) == 2:
                    names = tuple(p.strip() for p in args[1].split("|") if p.strip())
                    if not names:
                        raise self.error("empty name alternation", ("name",))
                    return TypedNameTest(vtype, names)
                raise self.error("TypedV takes at most two arguments", (")",))
            if len(args) != 2:
                raise self.error("AttV takes exactly two arguments", ("value",))
            return AttributeValueTest(vtype, args[1])
        # plain name literal, possibly an alternation
        names = [head]
        while self.try_literal("|"):
            names.append(self.scan_name())
        return NameTest(tuple(names))

    def parse_pred(self) -> AttrPred | None:
        if not self.try_literal("[@"):
            return None
        name = self.scan_name()
        self.expect_literal("=")
        self.expect_literal("'")
        end = self.text.find("'", self.pos)
        if end < 0:
            raise self.error("unterminated predicate value", ("'",))
        value = self.text[self.pos : end]
        self.pos = end + 1
        self.expect_literal("]")
        return AttrPred(name, value)

    # -- steps --

    def parse_axis(self) -> Axis:
        if self.try_literal("//") or self.try_literal("\\v+"):
            return Axis.DESCENDANT
        if self.try_literal("/"):
            if self.try_literal("following::*"):
                return Axis.FOLLOWING
            if self.try_literal("preceding::*"):
                return Axis.PRECEDING
            return Axis.CHILD
        raise self.error("expected an axis", ("/", "//", "\\v+"))

    def parse_step(self) -> PathStep:
        axis = self.parse_axis()
        if axis in (Axis.FOLLOWING, Axis.PRECEDING):
            return PathStep(axis, WildcardTest(), None)
        test = self.parse_node_test()
        pred = self.parse_pred()
        return PathStep(axis, test, pred)


def parse_path_expr(text: str) -> PathExpr:
    """Parse a path expression; raises ExprSyntaxError with a byte offset."""
    p = ExpressionParser(text)
    steps = [p.parse_step()]
    while not p.at_end():
        steps.append(p.parse_step())
    return PathExpr(tuple(steps))


def parse_node_test_text(text: str) -> NodeTest:
    """Parse a standalone node test (as used in category dictionaries)."""
    p = ExpressionParser(text)
    test = p.parse_node_test()
    if not p.at_end():
        raise p.error("trailing input after node test", ())
    return test

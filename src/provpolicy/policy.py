"""Access-control policy model.

A policy carries a target (who/what it governs), a condition (when it
applies), an effect, an optional opaque obligation, and a list of graph
transformations. Policies are exchanged as XML; two JSON side tables
support the transformations: a category dictionary naming vertex groups
and an edge-merge table giving the label of a bridge built across a
removed vertex.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .errors import ExprSyntaxError, PolicyParseError
from .graph import EDGE_SCHEMA, EdgeLabel, ProvenanceGraph, VertexType, edge_is_legal
from .partition import (
    PartitionSpec,
    parse_partition_expr,
    partition_to_text,
    resolve,
)
from .pathexpr import (
    NodeTest,
    PathExpr,
    matching_ids,
    node_test_to_text,
    parse_node_test_text,
    test_matches,
)


class Effect(Enum):
    PERMIT = "permit"
    DENY = "deny"
    ABSOLUTE_PERMIT = "absolute permit"

    @property
    def rank(self) -> int:
        """Combination precedence: absolute permit beats deny beats permit."""
        return _EFFECT_RANK[self]


_EFFECT_RANK = {Effect.PERMIT: 0, Effect.DENY: 1, Effect.ABSOLUTE_PERMIT: 2}


class Scope(Enum):
    ORIGINAL = "original"
    CONJUNCTION = "conjunction"
    EXTENSION = "extension"


class Mode(Enum):
    REPLACE = "replace"
    REMOVE = "remove"


class DependencyLabel(Enum):
    ORIGINAL = "original dependency"
    FALSE = "false dependency"


@dataclass(frozen=True)
class AttributePredicate:
    """Equality / inequality constraint on a requester attribute."""

    name: str
    value: str
    op: str = "="

    def __post_init__(self) -> None:
        if self.op not in ("=", "!="):
            raise PolicyParseError(f"unknown attribute operator {self.op!r}")

    def holds(self, attrs: Mapping[str, str]) -> bool:
        if self.op == "=":
            return attrs.get(self.name) == self.value
        return attrs.get(self.name) != self.value


@dataclass(frozen=True)
class Target:
    """Which requests a policy governs. An empty target matches every
    request."""

    graph_ids: tuple[str, ...] = ()
    resource: NodeTest | None = None
    requester: tuple[AttributePredicate, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.graph_ids and self.resource is None and not self.requester

    def matches(self, req: AccessRequest, g: ProvenanceGraph) -> bool:
        if self.graph_ids and g.id not in self.graph_ids:
            return False
        if self.resource is not None and not matching_ids(self.resource, g):
            return False
        return all(p.holds(req.attributes) for p in self.requester)


@dataclass(frozen=True)
class Condition:
    """Conjunction of requester predicates and partition-nonempty checks
    against the target graph."""

    requester: tuple[AttributePredicate, ...] = ()
    nonempty_partitions: tuple[PartitionSpec, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.requester and not self.nonempty_partitions

    def holds(self, req: AccessRequest, g: ProvenanceGraph) -> bool:
        if not all(p.holds(req.attributes) for p in self.requester):
            return False
        return all(not resolve(g, spec).is_empty for spec in self.nonempty_partitions)


@dataclass(frozen=True)
class Transformation:
    partition: PartitionSpec
    scope: Scope
    mode: Mode
    label: DependencyLabel


@dataclass(frozen=True)
class Policy:
    id: str
    target: Target = Target()
    condition: Condition = Condition()
    effect: Effect = Effect.PERMIT
    obligation: str | None = None
    transformations: tuple[Transformation, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise PolicyParseError("policy id must be nonempty")
        if self.target.is_empty and not self.transformations:
            raise PolicyParseError(
                f"policy {self.id!r} needs a target matcher or a transformation"
            )


@dataclass(frozen=True)
class AccessRequest:
    """A user's request: who is asking (attribute map), which graph, and
    an optional path expression restricting the returned view."""

    graph_id: str
    attributes: Mapping[str, str] = field(default_factory=dict)
    query: PathExpr | None = None


def applicable(p: Policy, req: AccessRequest, g: ProvenanceGraph) -> bool:
    """True iff the policy's target matches the request and every
    condition predicate holds. Pure in (policy, request, graph)."""
    return p.target.matches(req, g) and p.condition.holds(req, g)


# ==== policy XML ====

_TRANSFORM_FIELDS = ("partition", "scope", "mode", "label")


def _norm(text: str | None) -> str:
    return " ".join((text or "").split())


def _parse_enum(kind: str, cls, raw: str):
    value = _norm(raw).lower()
    for member in cls:
        if member.value == value:
            return member
    options = ", ".join(m.value for m in cls)
    raise PolicyParseError(f"unknown {kind} value {raw.strip()!r} (one of: {options})")


def _flush_quadruple(fields: dict[str, str], out: list[Transformation]) -> None:
    missing = [k for k in _TRANSFORM_FIELDS if k not in fields]
    if missing:
        raise PolicyParseError(
            "incomplete transformation: missing " + ", ".join(missing)
        )
    try:
        spec = parse_partition_expr(fields["partition"])
    except ExprSyntaxError as e:
        raise PolicyParseError(f"in <partition>: {e}") from e
    out.append(
        Transformation(
            partition=spec,
            scope=_parse_enum("scope", Scope, fields["scope"]),
            mode=_parse_enum("mode", Mode, fields["mode"]),
            label=_parse_enum("label", DependencyLabel, fields["label"]),
        )
    )


def _parse_transformation_elem(elem: ET.Element) -> list[Transformation]:
    """One <Transformation> element holds one or more (partition, scope,
    mode, label) quadruples as a flat child sequence; a repeated tag
    starts the next quadruple."""
    out: list[Transformation] = []
    fields: dict[str, str] = {}
    for child in elem:
        if child.tag not in _TRANSFORM_FIELDS:
            raise PolicyParseError(f"unknown tag <{child.tag}> in <Transformation>")
        if child.tag in fields:
            _flush_quadruple(fields, out)
            fields = {}
        fields[child.tag] = child.text or ""
    if fields:
        _flush_quadruple(fields, out)
    if not out:
        raise PolicyParseError("<Transformation> holds no quadruples")
    return out


def parse_transformation_xml(data: str | bytes) -> tuple[Transformation, ...]:
    """Parse a bare <Transformation> block (as quoted in policy text)."""
    elem = _parse_xml(data)
    if elem.tag != "Transformation":
        raise PolicyParseError(f"expected <Transformation>, got <{elem.tag}>")
    return tuple(_parse_transformation_elem(elem))


def _requester_pred(elem: ET.Element) -> AttributePredicate:
    for attr in elem.keys():
        if attr not in ("name", "op"):
            raise PolicyParseError(f"unknown attribute {attr!r} on <requester>")
    name = elem.get("name")
    if not name:
        raise PolicyParseError("<requester> needs a name attribute")
    op = elem.get("op", "=")
    if op == "≠":
        op = "!="
    return AttributePredicate(name, _norm(elem.text), op)


def _parse_target(elem: ET.Element) -> Target:
    graph_ids: list[str] = []
    resource: NodeTest | None = None
    requester: list[AttributePredicate] = []
    for child in elem:
        if child.tag == "graph":
            graph_ids.append(_norm(child.text))
        elif child.tag == "resource":
            if resource is not None:
                raise PolicyParseError("duplicate <resource> in <target>")
            try:
                resource = parse_node_test_text(_norm(child.text))
            except ExprSyntaxError as e:
                raise PolicyParseError(f"in <resource>: {e}") from e
        elif child.tag == "requester":
            requester.append(_requester_pred(child))
        else:
            raise PolicyParseError(f"unknown tag <{child.tag}> in <target>")
    return Target(tuple(graph_ids), resource, tuple(requester))


def _parse_condition(elem: ET.Element) -> Condition:
    requester: list[AttributePredicate] = []
    nonempty: list[PartitionSpec] = []
    for child in elem:
        if child.tag == "requester":
            requester.append(_requester_pred(child))
        elif child.tag == "nonempty":
            try:
                nonempty.append(parse_partition_expr(child.text or ""))
            except ExprSyntaxError as e:
                raise PolicyParseError(f"in <nonempty>: {e}") from e
        else:
            raise PolicyParseError(f"unknown tag <{child.tag}> in <condition>")
    return Condition(tuple(requester), tuple(nonempty))


def _parse_xml(data: str | bytes) -> ET.Element:
    try:
        return ET.fromstring(data)
    except ET.ParseError as e:
        line, col = e.position
        raise PolicyParseError(f"XML syntax error at line {line}, column {col}") from e


def parse_policy(data: str | bytes) -> Policy:
    root = _parse_xml(data)
    if root.tag != "policy":
        raise PolicyParseError(f"expected <policy> root, got <{root.tag}>")
    for attr in root.keys():
        if attr != "id":
            raise PolicyParseError(f"unknown attribute {attr!r} on <policy>")
    pid = root.get("id")
    if not pid:
        raise PolicyParseError("<policy> needs an id attribute")

    target = Target()
    condition = Condition()
    effect: Effect | None = None
    obligation: str | None = None
    transformations: list[Transformation] = []
    seen: set[str] = set()
    for child in root:
        if child.tag == "Transformation":
            transformations.extend(_parse_transformation_elem(child))
            continue
        if child.tag in seen:
            raise PolicyParseError(f"duplicate <{child.tag}> in policy {pid!r}")
        seen.add(child.tag)
        if child.tag == "target":
            target = _parse_target(child)
        elif child.tag == "condition":
            condition = _parse_condition(child)
        elif child.tag == "effect":
            effect = _parse_enum("effect", Effect, child.text or "")
        elif child.tag == "obligation":
            obligation = _norm(child.text)
        else:
            raise PolicyParseError(f"unknown tag <{child.tag}> in policy {pid!r}")
    if effect is None:
        raise PolicyParseError(f"policy {pid!r} is missing <effect>")
    return Policy(pid, target, condition, effect, obligation, tuple(transformations))


def serialize_policy(p: Policy) -> str:
    root = ET.Element("policy", {"id": p.id})

    def pred_elem(parent: ET.Element, pred: AttributePredicate) -> None:
        attrs = {"name": pred.name}
        if pred.op != "=":
            attrs["op"] = pred.op
        ET.SubElement(parent, "requester", attrs).text = pred.value

    if not p.target.is_empty:
        t = ET.SubElement(root, "target")
        for gid in p.target.graph_ids:
            ET.SubElement(t, "graph").text = gid
        if p.target.resource is not None:
            ET.SubElement(t, "resource").text = node_test_to_text(p.target.resource)
        for pred in p.target.requester:
            pred_elem(t, pred)
    if not p.condition.is_empty:
        c = ET.SubElement(root, "condition")
        for pred in p.condition.requester:
            pred_elem(c, pred)
        for spec in p.condition.nonempty_partitions:
            ET.SubElement(c, "nonempty").text = partition_to_text(spec)
    ET.SubElement(root, "effect").text = p.effect.value
    if p.obligation is not None:
        ET.SubElement(root, "obligation").text = p.obligation
    for t in p.transformations:
        elem = ET.SubElement(root, "Transformation")
        ET.SubElement(elem, "partition").text = partition_to_text(t.partition)
        ET.SubElement(elem, "scope").text = t.scope.value
        ET.SubElement(elem, "mode").text = t.mode.value
        ET.SubElement(elem, "label").text = t.label.value
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="unicode") + "\n"


# ==== vertex category dictionary ====


@dataclass(frozen=True)
class Category:
    """A named vertex group: its display label, the vertex type of a
    replacement vertex, and the node tests selecting its members."""

    name: str
    label: str
    replacement_type: VertexType
    members: tuple[NodeTest, ...]


@dataclass(frozen=True)
class CategoryDictionary:
    categories: tuple[Category, ...] = ()

    def by_name(self, name: str) -> Category | None:
        for c in self.categories:
            if c.name == name:
                return c
        return None

    def category_of(self, g: ProvenanceGraph, vid: str) -> Category | None:
        """First category (document order) with a member test matching
        the vertex, or None. The reference definition of
        ``category_map``."""
        for c in self.categories:
            if any(test_matches(t, g, vid) for t in c.members):
                return c
        return None

    def category_map(self, g: ProvenanceGraph) -> dict[str, Category]:
        """Every categorised vertex of ``g`` with its first category in
        document order. Built on the first call for each (graph,
        dictionary) pair and kept on the graph; callers must not change
        it."""
        return self._cache_entry(g)[0]

    def _cache_entry(
        self, g: ProvenanceGraph
    ) -> tuple[dict[str, Category], dict[frozenset[str], Any]]:
        """This dictionary's entry on ``g``: its ``category_map`` and a
        dict, empty at first, in which scope expansion keeps what it
        derives from that map. The entry lives as long as the graph, and
        a successor graph starts without it."""
        entries = g._categories
        if entries is None:
            entries = g._categories = {}
        entry = entries.get(self)
        if entry is None:
            found: dict[str, Category] = {}
            for c in self.categories:
                for t in c.members:
                    for vid in matching_ids(t, g):
                        found.setdefault(vid, c)
            entry = entries[self] = (found, {})
        return entry


def parse_vcd(doc: str | bytes | Mapping) -> CategoryDictionary:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise PolicyParseError(f"category dictionary JSON: {e}") from e
        except RecursionError as e:
            raise PolicyParseError("category dictionary JSON: nesting too deep") from e
    if not isinstance(doc, Mapping):
        raise PolicyParseError("category dictionary must be a JSON object")
    unknown = set(doc) - {"categories"}
    if unknown:
        raise PolicyParseError(f"unknown category dictionary fields: {sorted(unknown)}")
    categories: list[Category] = []
    names: set[str] = set()
    for i, entry in enumerate(doc.get("categories", [])):
        where = f"categories[{i}]"
        if not isinstance(entry, Mapping):
            raise PolicyParseError(f"{where} must be an object")
        unknown = set(entry) - {"name", "label", "replacement_type", "members"}
        if unknown:
            raise PolicyParseError(f"{where}: unknown fields {sorted(unknown)}")
        name = entry.get("name")
        if not name or not isinstance(name, str):
            raise PolicyParseError(f"{where}: name must be a nonempty string")
        if name in names:
            raise PolicyParseError(f"duplicate category name {name!r}")
        names.add(name)
        label = entry.get("label")
        if not label or not isinstance(label, str):
            raise PolicyParseError(f"{where}: label must be a nonempty string")
        try:
            rtype = VertexType(entry.get("replacement_type", "process"))
        except ValueError:
            raise PolicyParseError(
                f"{where}: unknown replacement_type {entry.get('replacement_type')!r}"
            ) from None
        members: list[NodeTest] = []
        for j, text in enumerate(entry.get("members", [])):
            try:
                members.append(parse_node_test_text(text))
            except ExprSyntaxError as e:
                raise PolicyParseError(f"{where}.members[{j}]: {e}") from e
        categories.append(Category(name, label, rtype, tuple(members)))
    return CategoryDictionary(tuple(categories))


def serialize_vcd(vcd: CategoryDictionary) -> str:
    doc = {
        "categories": [
            {
                "name": c.name,
                "label": c.label,
                "replacement_type": c.replacement_type.value,
                "members": [node_test_to_text(t) for t in c.members],
            }
            for c in vcd.categories
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


# ==== edge merge table ====

# For every label other than hasAttributes / wasCausedBy the schema admits
# exactly one (src, dst) type pair.
_ENDPOINTS_BY_LABEL: dict[EdgeLabel, tuple[VertexType, VertexType]] = {
    label: (src, dst)
    for src, dst, label in EDGE_SCHEMA
    if label is not EdgeLabel.HAS_ATTRIBUTES
}

MergeRule = tuple[EdgeLabel, EdgeLabel, EdgeLabel]

# Collapsing x out of u→x→w leaves endpoint types that admit exactly one
# schema label; pairs whose endpoints admit none fall back to wasCausedBy.
_DEFAULT_MERGE_RULES: tuple[MergeRule, ...] = (
    (EdgeLabel.USED, EdgeLabel.WAS_GENERATED_BY, EdgeLabel.WAS_TRIGGERED_BY),
    (EdgeLabel.USED, EdgeLabel.WAS_DERIVED_FROM, EdgeLabel.USED),
    (EdgeLabel.WAS_GENERATED_BY, EdgeLabel.USED, EdgeLabel.WAS_DERIVED_FROM),
    (EdgeLabel.WAS_GENERATED_BY, EdgeLabel.WAS_TRIGGERED_BY, EdgeLabel.WAS_GENERATED_BY),
    (EdgeLabel.WAS_DERIVED_FROM, EdgeLabel.WAS_GENERATED_BY, EdgeLabel.WAS_GENERATED_BY),
    (EdgeLabel.WAS_DERIVED_FROM, EdgeLabel.WAS_DERIVED_FROM, EdgeLabel.WAS_DERIVED_FROM),
    (EdgeLabel.WAS_TRIGGERED_BY, EdgeLabel.USED, EdgeLabel.USED),
    (EdgeLabel.WAS_TRIGGERED_BY, EdgeLabel.WAS_CONTROLLED_BY, EdgeLabel.WAS_CONTROLLED_BY),
    (EdgeLabel.WAS_TRIGGERED_BY, EdgeLabel.WAS_TRIGGERED_BY, EdgeLabel.WAS_TRIGGERED_BY),
)


@dataclass(frozen=True)
class EdgeMergeTable:
    """Label of the bridge built when a vertex between two edges is
    removed; total via the wasCausedBy fallback."""

    rules: tuple[MergeRule, ...] = _DEFAULT_MERGE_RULES

    def __post_init__(self) -> None:
        table: dict[tuple[EdgeLabel, EdgeLabel], EdgeLabel] = {}
        for incoming, outgoing, merged in self.rules:
            key = (incoming, outgoing)
            if key in table and table[key] is not merged:
                raise PolicyParseError(
                    f"conflicting merge rules for ({incoming.value}, {outgoing.value})"
                )
            table[key] = _check_rule(incoming, outgoing, merged)
        object.__setattr__(self, "_table", table)

    def merged(self, incoming: EdgeLabel, outgoing: EdgeLabel) -> EdgeLabel:
        return self._table.get((incoming, outgoing), EdgeLabel.WAS_CAUSED_BY)

    @staticmethod
    def default() -> EdgeMergeTable:
        return EdgeMergeTable()


def _check_rule(
    incoming: EdgeLabel, outgoing: EdgeLabel, merged: EdgeLabel
) -> EdgeLabel:
    """A merged label that would be schema-illegal for the endpoint types
    the rule bridges is demoted to the fallback."""
    in_ends = _ENDPOINTS_BY_LABEL.get(incoming)
    out_ends = _ENDPOINTS_BY_LABEL.get(outgoing)
    if in_ends is None or out_ends is None or merged is EdgeLabel.WAS_CAUSED_BY:
        return merged
    src, dst = in_ends[0], out_ends[1]
    if edge_is_legal(src, dst, merged, allow_was_caused_by=True):
        return merged
    return EdgeLabel.WAS_CAUSED_BY


def parse_merge_table(doc: str | bytes | Mapping) -> EdgeMergeTable:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise PolicyParseError(f"merge table JSON: {e}") from e
        except RecursionError as e:
            raise PolicyParseError("merge table JSON: nesting too deep") from e
    if not isinstance(doc, Mapping):
        raise PolicyParseError("merge table must be a JSON object")
    unknown = set(doc) - {"rules", "fallback"}
    if unknown:
        raise PolicyParseError(f"unknown merge table fields: {sorted(unknown)}")
    fallback = doc.get("fallback", EdgeLabel.WAS_CAUSED_BY.value)
    if fallback != EdgeLabel.WAS_CAUSED_BY.value:
        raise PolicyParseError(
            f"merge table fallback is fixed to {EdgeLabel.WAS_CAUSED_BY.value!r}"
        )

    def to_label(raw: object, where: str) -> EdgeLabel:
        try:
            return EdgeLabel(raw)
        except ValueError:
            raise PolicyParseError(f"{where}: unknown edge label {raw!r}") from None

    rules: list[MergeRule] = []
    for i, entry in enumerate(doc.get("rules", [])):
        where = f"rules[{i}]"
        if not isinstance(entry, Mapping):
            raise PolicyParseError(f"{where} must be an object")
        unknown = set(entry) - {"in", "out", "merged"}
        if unknown:
            raise PolicyParseError(f"{where}: unknown fields {sorted(unknown)}")
        missing = {"in", "out", "merged"} - set(entry)
        if missing:
            raise PolicyParseError(f"{where}: missing fields {sorted(missing)}")
        rules.append(
            (
                to_label(entry["in"], where),
                to_label(entry["out"], where),
                to_label(entry["merged"], where),
            )
        )
    return EdgeMergeTable(tuple(rules))


def serialize_merge_table(emt: EdgeMergeTable) -> str:
    doc = {
        "fallback": EdgeLabel.WAS_CAUSED_BY.value,
        "rules": [
            {"in": i.value, "out": o.value, "merged": m.value} for i, o, m in emt.rules
        ],
    }
    return json.dumps(doc, indent=2) + "\n"

"""Seeded input generators for the three workloads.

Every input is a pure function of the seed and is built from the
package's public model types only: nothing here calls the package's own
bench generators, so an edit to those cannot change a workload. Random
streams are seeded with strings, which ``random.Random`` hashes with
SHA-512, so the inputs do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from provpolicy import (
    AccessRequest,
    AttributePredicate,
    AttributeValueTest,
    Condition,
    DependencyLabel,
    DirectedPathSpec,
    Edge,
    EdgeLabel,
    Effect,
    Mode,
    NameTest,
    Policy,
    ProvenanceGraph,
    Scope,
    Target,
    Transformation,
    TypedNameTest,
    TypeTest,
    Vertex,
    VertexType,
    VerticesSpec,
)

_U = EdgeLabel.USED
_WGB = EdgeLabel.WAS_GENERATED_BY
_WCB = EdgeLabel.WAS_CONTROLLED_BY
_WTB = EdgeLabel.WAS_TRIGGERED_BY
_WDF = EdgeLabel.WAS_DERIVED_FROM
_HA = EdgeLabel.HAS_ATTRIBUTES

# ==== lineage graph (bulk-remove, staff-read) ====

PROCESS_NAMES = (
    "ingest", "clean", "merge", "train", "review", "approve", "publish", "archive",
)
ARTIFACT_NAMES = ("dataset", "table", "model", "figure", "report")
AGENT_NAMES = ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi")
ATTRIBUTES = (
    ("quality", ("high", "low")),
    ("status", ("internal", "external")),
    ("origin", ("lab", "field")),
)


@dataclass(frozen=True)
class LineageShape:
    """Counts of a generated lineage DAG. Every rate is turned into an
    exact count, so all seeds give the same vertex and edge totals and
    differ only in the wiring."""

    processes: int = 630
    agents: int = 24
    seed_artifacts: int = 12
    #: inputs and triggers come from this many most recent vertices
    window: int = 40
    two_inputs: float = 0.2
    controlled: float = 0.7
    triggered: float = 0.1
    derived: float = 0.15
    attributed: float = 0.08


FULL_LINEAGE = LineageShape()
TINY_LINEAGE = LineageShape(processes=45, agents=6, seed_artifacts=4, window=10)


def _chosen(rng: random.Random, n: int, rate: float) -> set[int]:
    return set(rng.sample(range(n), round(rate * n)))


def lineage_graph(seed: int, shape: LineageShape) -> ProvenanceGraph:
    """A time-ordered lineage DAG: each process uses one or two recent
    artifacts, may be controlled by an agent and triggered by a recent
    process, and generates one artifact, sometimes derived from its
    input. Every edge points to an earlier vertex, so the graph is a DAG."""
    rng = random.Random(f"lineage:{seed}")
    P = shape.processes
    vertices: list[Vertex] = []
    edges: list[Edge] = []

    agents = [f"ag{k:02d}" for k in range(shape.agents)]
    for k, aid in enumerate(agents):
        vertices.append(Vertex(aid, VertexType.AGENT, AGENT_NAMES[k % len(AGENT_NAMES)]))
    artifacts: list[str] = []

    def new_artifact() -> str:
        aid = f"a{len(artifacts):04d}"
        artifacts.append(aid)
        vertices.append(Vertex(aid, VertexType.ARTIFACT, rng.choice(ARTIFACT_NAMES)))
        return aid

    for _ in range(shape.seed_artifacts):
        new_artifact()

    two = _chosen(rng, P, shape.two_inputs)
    controlled = _chosen(rng, P, shape.controlled)
    triggered = _chosen(rng, P, shape.triggered)
    derived = _chosen(rng, P, shape.derived)
    processes: list[str] = []
    for t in range(P):
        pid = f"p{t:04d}"
        vertices.append(Vertex(pid, VertexType.PROCESS, rng.choice(PROCESS_NAMES)))
        recent = artifacts[-shape.window:]
        inputs = rng.sample(recent, 2 if t in two else 1)
        for a in sorted(inputs):
            edges.append(Edge(pid, a, _U))
        if t in controlled:
            edges.append(Edge(pid, rng.choice(agents), _WCB))
        if t in triggered and processes:
            edges.append(Edge(pid, rng.choice(processes[-shape.window:]), _WTB))
        processes.append(pid)
        out = new_artifact()
        edges.append(Edge(out, pid, _WGB))
        if t in derived:
            edges.append(Edge(out, inputs[0], _WDF))

    hosts = sorted(processes + artifacts)
    for i, host in enumerate(sorted(rng.sample(hosts, round(shape.attributed * len(hosts))))):
        name, values = rng.choice(ATTRIBUTES)
        att = f"att{i:04d}"
        vertices.append(Vertex(att, VertexType.ATTRIBUTE, name, rng.choice(values)))
        edges.append(Edge(host, att, _HA))
    return ProvenanceGraph(f"lineage-{seed}", vertices, edges)


def forward_path_counts(g: ProvenanceGraph) -> dict[str, int]:
    """Per vertex, the number of chronological simple paths that start
    there (the one-vertex path included), counting one step per distinct
    neighbour. This is how many partial paths a directed-path walk from
    that vertex visits, so it bounds the walk's cost."""
    later: dict[str, set[str]] = {vid: set() for vid in g.vertices}
    for e in g.edges:
        if e.label is not _HA:
            later[e.dst].add(e.src)
    counts: dict[str, int] = {}
    for root in sorted(g.vertices):  # memoised DFS, without recursion
        stack = [root]
        while stack:
            vid = stack[-1]
            if vid in counts:
                stack.pop()
                continue
            pending = [n for n in later[vid] if n not in counts]
            if pending:
                stack.extend(pending)
                continue
            counts[vid] = 1 + sum(counts[n] for n in later[vid])
            stack.pop()
    return counts


# ==== bulk-remove requests ====


def bulk_remove_policies(
    g: ProvenanceGraph, candidates: list[str], rng: random.Random, count: int
) -> list[Policy]:
    """Deny policies each removing one to three named vertices, under a
    mix of original- and false-dependency labels."""
    policies = []
    for i in range(count):
        picked = tuple(sorted(rng.sample(candidates, rng.randint(1, 3))))
        label = rng.choice((DependencyLabel.ORIGINAL, DependencyLabel.FALSE))
        policies.append(
            Policy(
                id=f"deny-{i:02d}",
                target=Target(graph_ids=(g.id,)),
                effect=Effect.DENY,
                transformations=(
                    Transformation(VerticesSpec(NameTest(picked)), Scope.ORIGINAL,
                                   Mode.REMOVE, label),
                ),
            )
        )
    return policies


# ==== staff-read requests ====

STAFF_VCD_JSON = json.dumps({
    "categories": [
        {"name": "Curation", "label": "Curated", "replacement_type": "process",
         "members": ["TypedV_P(G, clean|merge)"]},
        {"name": "Release", "label": "Released", "replacement_type": "process",
         "members": ["TypedV_P(G, review|approve|publish)"]},
        {"name": "Data", "label": "Data", "replacement_type": "artifact",
         "members": ["TypedV_A(G, dataset|table)"]},
    ]
})

_IS_STAFF = AttributePredicate("role", "staff")
_NOT_STAFF = AttributePredicate("role", "staff", "!=")


@dataclass(frozen=True)
class StaffMix:
    """How many policies of each template one staff-read request draws."""

    names: int = 6
    attribute_values: int = 4
    types: int = 2
    agents: int = 2
    directed: int = 6
    denied: int = 8
    #: of the name and attribute-value selectors, how many grow under
    #: conjunction scope; the rest keep original scope
    conjunction: int = 3
    #: extension-scope selectors, each naming one categorized process
    #: name, so each scans the graph for exactly one category
    extension: int = 1


FULL_STAFF = StaffMix()
TINY_STAFF = StaffMix(names=2, attribute_values=1, types=1, agents=1, directed=2,
                      denied=2, conjunction=1)
CATEGORIZED_PROCESSES = ("clean", "merge", "review", "approve", "publish")


def directed_pairs(g: ProvenanceGraph, low: int, high: int) -> list[tuple[str, str]]:
    """(start, end) id pairs for ``directed(start // end)`` whose start
    begins between ``low`` and ``high`` chronological paths, and whose end
    lies two steps later, so the pair has a path of three vertices."""
    counts = forward_path_counts(g)
    later: dict[str, list[str]] = {vid: [] for vid in g.vertices}
    for e in g.edges:
        if e.label is not _HA:
            later[e.dst].append(e.src)
    pairs = []
    for vid in sorted(g.vertices):
        if not low <= counts[vid] <= high:
            continue
        two_on = sorted({w for n in later[vid] for w in later[n]})
        if two_on:
            pairs.append((vid, two_on[len(two_on) // 2]))
    return pairs


def _pick_names(rng: random.Random, pool: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted(rng.sample(pool, rng.randint(1, 2))))


def staff_policies(
    g: ProvenanceGraph,
    pairs: list[tuple[str, str]],
    rng: random.Random,
    mix: StaffMix,
) -> tuple[list[Policy], list[str]]:
    """A staff request's policy set and the ids expected to apply.

    Permit and absolute-permit policies hold for staff; deny policies
    carry a ``role != staff`` condition, so ``applicable`` must drop them.
    No transformation therefore ever runs.
    """
    target = Target(graph_ids=(g.id,))
    grown = mix.names + mix.attribute_values
    scopes = [Scope.CONJUNCTION] * mix.conjunction + [Scope.ORIGINAL] * (grown - mix.conjunction)
    rng.shuffle(scopes)
    specs: list[tuple[Effect, object, Scope]] = []
    for _ in range(mix.names):
        test = TypedNameTest(VertexType.PROCESS, _pick_names(rng, PROCESS_NAMES))
        specs.append((Effect.PERMIT, VerticesSpec(test), scopes.pop()))
    for _ in range(mix.attribute_values):
        _, values = rng.choice(ATTRIBUTES)
        vtype = rng.choice((VertexType.ARTIFACT, VertexType.PROCESS))
        specs.append((Effect.PERMIT, VerticesSpec(AttributeValueTest(vtype, rng.choice(values))),
                      scopes.pop()))
    for _ in range(mix.extension):
        test = TypedNameTest(VertexType.PROCESS, (rng.choice(CATEGORIZED_PROCESSES),))
        specs.append((Effect.PERMIT, VerticesSpec(test), Scope.EXTENSION))
    for _ in range(mix.types):
        vtype = rng.choice((VertexType.ARTIFACT, VertexType.PROCESS))
        specs.append((Effect.PERMIT, VerticesSpec(TypeTest(vtype)), Scope.ORIGINAL))
    for _ in range(mix.agents):
        test = TypedNameTest(VertexType.AGENT, _pick_names(rng, AGENT_NAMES))
        specs.append((Effect.ABSOLUTE_PERMIT, VerticesSpec(test), Scope.ORIGINAL))
    for start, end in rng.sample(pairs, min(mix.directed, len(pairs))):
        spec = DirectedPathSpec(NameTest((start,)), (), NameTest((end,)))
        specs.append((Effect.PERMIT, spec, Scope.ORIGINAL))

    policies: list[Policy] = []
    expected: list[str] = []
    for i, (effect, spec, scope) in enumerate(specs):
        pid = f"staff-{i:02d}"
        expected.append(pid)
        policies.append(Policy(
            pid, target, Condition(requester=(_IS_STAFF,)), effect,
            transformations=(Transformation(spec, scope, Mode.REMOVE,
                                            DependencyLabel.ORIGINAL),),
        ))
    for i in range(mix.denied):
        test = TypedNameTest(VertexType.PROCESS, _pick_names(rng, PROCESS_NAMES))
        policies.append(Policy(
            f"hide-{i:02d}", target, Condition(requester=(_NOT_STAFF,)), Effect.DENY,
            transformations=(Transformation(VerticesSpec(test), Scope.ORIGINAL,
                                            Mode.REMOVE, DependencyLabel.ORIGINAL),),
        ))
    rng.shuffle(policies)
    return policies, expected


def staff_request(g: ProvenanceGraph, rng: random.Random) -> AccessRequest:
    return AccessRequest(g.id, {"role": "staff", "dept": rng.choice(("cs", "ee", "math"))})


# ==== doc-store documents ====

# The sample category dictionary, with each id alternation widened to
# the second run's ids ("b" suffix) so both runs' grading regions are
# categorized.
DOC_VCD_JSON = json.dumps({
    "categories": [
        {"name": "Grading", "label": "Graded", "replacement_type": "process",
         "members": ["TypedV_P(G, grade2|grade2b)",
                     "TypedV_A(G, o3v1|o8v1|o3v1b|o8v1b)"]},
        {"name": "Submission", "label": "Submitted", "replacement_type": "process",
         "members": ["TypedV_P(G, Submit|wasSubmittedBy|confirm)"]},
    ]
})

QUERIES = (
    "//TypedV_A(G)//TypedV_Ag(G)",
    "//TypedV_P(G)/TypedV_A(G)",
    "//TypedV_A(G)/TypedV_P(G)//TypedV_A(G)",
)


def _run(s: str, revisions: int, stamped: bool, graded_on: str,
         vertices: list[dict], edges: list[dict]) -> None:
    """One upload, revise, submit, review, grade and publish run, shaped
    like the bundled sample C, with its own three agents: the author, the
    reviewer and the grader each act only in their own steps."""

    def v(vid: str, vtype: str, name: str | None = None, value: str | None = None) -> None:
        entry = {"id": vid + s, "type": vtype, "name": name or vid + s}
        if value is not None:
            entry["value"] = value
        vertices.append(entry)

    def e(src: str, dst: str, label: EdgeLabel) -> None:
        edges.append({"src": src + s, "dst": dst + s, "label": label.value})

    for agent in ("au1", "au2", "au3"):
        v(agent, "agent")
    for pid, name in (("upload1", "upload"), ("replace1", "replace"), ("submit1", "Submit"),
                      ("confirm1", "confirm"), ("review2", "review"), ("grade2", "grade"),
                      ("publish1", "publish")):
        v(pid, "process", name)
    for aid in ("o1v1", "o1v2", "o1v3", "o5v1", "o3v1", "o8v1", "o9v1"):
        v(aid, "artifact")
    v("att-grade2", "attribute", "gradedOn", graded_on)

    e("upload1", "au1", _WCB)
    e("o1v1", "upload1", _WGB)
    e("replace1", "o1v1", _U)
    e("replace1", "au1", _WCB)
    e("o1v2", "replace1", _WGB)
    last = "o1v2"
    for j in range(revisions):
        pid, aid = f"revise{j}", f"o1r{j}"
        v(pid, "process", "replace")
        v(aid, "artifact")
        e(pid, last, _U)
        e(pid, "au1", _WCB)
        e(aid, pid, _WGB)
        last = aid
    e("submit1", last, _U)
    e("submit1", "au1", _WCB)
    e("o1v3", "submit1", _WGB)
    e("confirm1", "submit1", _WTB)
    e("o5v1", "confirm1", _WGB)
    e("review2", "o1v3", _U)
    e("review2", "au2", _WCB)
    e("o3v1", "review2", _WGB)
    e("grade2", "o3v1", _U)
    e("grade2", "au3", _WCB)
    e("o8v1", "grade2", _WGB)
    e("grade2", "att-grade2", _HA)
    e("publish1", "o8v1", _U)
    e("o9v1", "publish1", _WGB)
    if stamped:
        v("att-o1v3", "attribute", "submittedOn", graded_on)
        e("o1v3", "att-o1v3", _HA)


def _policy_xml(pid: str, effect: str, quads: list[tuple[str, str, str, str]],
                student_only: bool) -> str:
    condition = ('<condition>\n<requester name="role" op="!=">staff</requester>\n'
                 '</condition>\n' if student_only else "")
    blocks = "".join(
        f"<partition>\n{part}\n</partition>\n<scope> {scope} </scope>\n"
        f"<mode> {mode} </mode>\n<label> {label} </label>\n"
        for part, scope, mode, label in quads
    )
    return (f'<policy id="{pid}">\n<target>\n<graph>{{graph}}</graph>\n</target>\n'
            f"{condition}<effect>{effect}</effect>\n"
            f"<Transformation>\n{blocks}</Transformation>\n</policy>\n")


def _doc_policies(suffixes: list[str], extras: tuple[int, ...]) -> list[str]:
    """The grading-and-submission deny policy of the bundled sample, with
    one replace per run, plus the extra policies named by ``extras``.
    None of them can strip a replace cluster to uncategorized members:
    the only absolute permit covers the review step, and the only other
    removal covers the run before submission."""
    replaces = [
        (f"subgraphs (TypedV_A' (G_i, o3v1{s})//TypedV_A' (G_i, o8v1{s})>)",
         "original", "replace", "false dependency")
        for s in suffixes
    ]
    remove = ("vertices (TypedV_P' (G_i, Submit|wasSubmittedBy))",
              "conjunction", "remove", "original dependency")
    out = [_policy_xml("hide-grading", "deny", replaces + [remove], True)]
    s = suffixes[-1]
    templates = (
        ("show-draft", "permit",
         f"general(TypedV_A(G_i, o1v1{s}) // TypedV_A(G_i, o1v3{s}))", False),
        ("show-flow", "permit",
         f"directed(TypedV_P(G_i, upload1{s}) // TypedV_P(G_i, review2{s}))", False),
        ("show-origin", "permit", f"subgraphs(START // TypedV_A(G_i, o1v2{s}))", False),
        ("show-release", "permit", f"subgraphs(TypedV_P(G_i, publish{s})/preceding::*)", False),
        ("keep-review", "absolute permit", "vertices(TypedV_P(G_i, review))", False),
        ("hide-drafts", "deny",
         f"directed(TypedV_P(G_i, upload1{s}) // TypedV_P(G_i, submit1{s}))", True),
    )
    for k in extras:
        pid, effect, part, student_only = templates[k]
        label = "false dependency" if k % 2 else "original dependency"
        out.append(_policy_xml(pid, effect, [(part, "original", "remove", label)],
                               student_only))
    return out


EXTRA_POLICIES = 6


@dataclass(frozen=True)
class Document:
    """A stored document: its graph as JSON and its policies as XML."""

    graph_json: str
    policy_xml: tuple[str, ...]
    vertices: int
    edges: int


def documents(seed: int, count: int) -> list[Document]:
    """The document pool, most requested first.

    A document's shape -- one or two runs, how many revisions, how the
    runs connect, which extra policies -- is a function of its popularity
    rank only, so every seed puts the same mix of request costs on each
    rank. The seed picks the attribute dates here, and the request stream
    picks documents, requesters and queries.
    """
    out = []
    for rank in range(count):
        rng = random.Random(f"doc:{seed}:{rank}")
        two_runs = rank % 2 == 1
        suffixes = ["", "b"] if two_runs else [""]
        vertices: list[dict] = []
        edges: list[dict] = []
        for s in suffixes:
            revisions = 0 if s else (rank // 2) % (2 if two_runs else 3)
            date = f"{rng.randint(1, 28)}/{rng.randint(1, 12)}/{rng.randint(2014, 2019)}"
            _run(s, revisions, rank % 4 < 2, date, vertices, edges)
        if two_runs:  # the resubmission starts from the first run's release
            if rank % 4 == 1:
                edges.append({"src": "upload1b", "dst": "publish1",
                              "label": _WTB.value})
            else:
                edges.append({"src": "o1v1b", "dst": "o9v1", "label": _WDF.value})
        first = rank % EXTRA_POLICIES
        extras = (first, (first + 1 + (rank // EXTRA_POLICIES) % (EXTRA_POLICIES - 1))
                  % EXTRA_POLICIES)
        gid = f"course-{seed}-{rank:03d}"
        doc = {"id": gid, "vertices": vertices, "edges": edges}
        xml = tuple(x.replace("{graph}", gid) for x in _doc_policies(suffixes, extras))
        out.append(Document(json.dumps(doc), xml, len(vertices), len(edges)))
    return out


def zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]

"""The check of a produced view: a view derived from a graph known valid
is checked only for what the plan added, any other view in full, and
either way the check accepts a view exactly when validate_graph finds
nothing in it."""

import random
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import provpolicy.transform
from provpolicy import evaluator
from provpolicy.bench import GenConfig, gen_graphs
from provpolicy.errors import TransformError
from provpolicy.evaluator import evaluate
from provpolicy.graph import Edge, EdgeLabel, Vertex, VertexType, validate_graph
from provpolicy.partition import VerticesSpec
from provpolicy.pathexpr import NameTest
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
from provpolicy.samples import sample_merge_table
from provpolicy.transform import check_view

from util import corrupt_graph

GRAPHS = gen_graphs(
    GenConfig(graphs=12, processes=5, artifacts=6, agents=2, attributes=3, seed=31)
)
EMT = sample_merge_table()
VCD = parse_vcd(
    {"categories": [{"name": "Any", "label": "Collapsed",
                     "replacement_type": "process", "members": ["*"]}]}
)


def deny(pid: str, graph_id: str, ids, mode: Mode, label: DependencyLabel) -> Policy:
    return Policy(
        pid,
        target=Target(graph_ids=(graph_id,)),
        effect=Effect.DENY,
        transformations=(
            Transformation(VerticesSpec(NameTest(tuple(sorted(ids)))), Scope.ORIGINAL,
                           mode, label),
        ),
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_view_check_accepts_exactly_the_valid_views(data):
    g = data.draw(st.sampled_from(GRAPHS))
    if data.draw(st.booleans()):
        g = corrupt_graph(random.Random(data.draw(st.integers(0, 2**16))), g)
    ids = sorted(g.vertices)
    policies = [
        deny(f"d{i}", g.id,
             data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)),
             data.draw(st.sampled_from(list(Mode))),
             data.draw(st.sampled_from(list(DependencyLabel))))
        for i in range(data.draw(st.integers(1, 4)))
    ]
    checked = []

    def spy(view, op):
        try:
            check_view(view, op)
        except TransformError as e:
            checked.append((view, str(e)))
            raise
        checked.append((view, None))

    with patch.object(evaluator, "check_view", spy):
        try:
            evaluate(AccessRequest(g.id), policies, g, VCD, EMT)
        except TransformError as e:
            if not checked:  # a step refused, before any view was made
                assert str(e).startswith("policy ")
                return
    [(view, error)] = checked
    violations = validate_graph(view, allow_was_caused_by=True)
    if not violations:
        assert error is None
    else:
        detail = "; ".join(f"{v.kind}: {v.message}" for v in violations)
        assert error == f"transformation plan produced an invalid graph: {detail}"


def test_a_valid_input_is_validated_once_and_its_views_never(emt):
    g = GRAPHS[0]
    ids = sorted(g.vertices)
    calls = []

    def counting(graph, **kwargs):
        calls.append(graph)
        return validate_graph(graph, **kwargs)

    fresh = type(g)(g.id, g.vertices.values(), g.edges)
    with patch.object(provpolicy.transform, "validate_graph", counting):
        for i in range(3):
            p = deny("d", g.id, ids[i:i + 2], Mode.REMOVE, DependencyLabel.ORIGINAL)
            evaluate(AccessRequest(g.id), [p], fresh, VCD, emt)
    assert calls == [fresh]


@pytest.mark.parametrize("addition", ["valued vertex", "illegal edge", "dangling edge"])
def test_a_bad_addition_to_a_valid_graph_is_reported_in_full(addition):
    g = GRAPHS[1]
    assert check_view(g, "plan") is None
    agent = next(v for v, x in g.vertices.items() if x.vtype is VertexType.AGENT)
    artifact = next(v for v, x in g.vertices.items() if x.vtype is VertexType.ARTIFACT)
    if addition == "valued vertex":
        view = g._successor((), (Vertex("new", VertexType.PROCESS, "new", "stray"),))
    elif addition == "illegal edge":
        view = g._successor((), (), (Edge(agent, artifact, EdgeLabel.USED),))
    else:
        view = g._successor((), (), (Edge("ghost", artifact, EdgeLabel.WAS_CAUSED_BY),))
    # a later step keeps the bad addition
    view = view._successor((), (Vertex("later", VertexType.PROCESS, "later"),))
    violations = validate_graph(view, allow_was_caused_by=True)
    assert violations
    detail = "; ".join(f"{v.kind}: {v.message}" for v in violations)
    with pytest.raises(TransformError) as info:
        check_view(view, "plan")
    assert str(info.value) == f"plan produced an invalid graph: {detail}"

import csv
import json
import random

import pytest

from provpolicy.bench import (
    DEFAULT_SIZES,
    EXPRESSIVENESS_HEADER,
    SCENARIOS,
    TIMING_HEADER,
    GenConfig,
    bench_combination,
    expressible_lpac,
    expressible_paclp,
    gen_graphs,
    gen_scenario_policies,
    paclp_candidates,
    run_combination,
    run_expressiveness,
    sample_partitions,
    write_expressiveness_csv,
    write_manifest,
    write_timing_csv,
)
from provpolicy.errors import InfeasibleConfigError
from provpolicy.graph import VertexType, structural_hash, validate_graph
from provpolicy.partition import Partition
from provpolicy.pathexpr import NameTest
from provpolicy.policy import Effect
from provpolicy.query import directed_union

import oracles
from util import E, G, V


# ==== generator ====


def test_config_validation():
    for bad in (
        GenConfig(graphs=0),
        GenConfig(processes=-1),
        GenConfig(edge_density=1.5),
        GenConfig(edge_density=-0.1),
        GenConfig(name_collision_rate=2.0),
        GenConfig(processes=0, artifacts=0, agents=0, attributes=2),
        GenConfig(processes=0, artifacts=1, agents=5, attributes=0),
    ):
        with pytest.raises(InfeasibleConfigError):
            gen_graphs(bad)


def test_generation_is_deterministic():
    cfg = GenConfig(graphs=6, seed=1)
    a, b = gen_graphs(cfg), gen_graphs(cfg)
    assert [structural_hash(g) for g in a] == [structural_hash(g) for g in b]
    other = gen_graphs(GenConfig(graphs=6, seed=2))
    assert [structural_hash(g) for g in a] != [structural_hash(g) for g in other]


def test_generated_graphs_are_valid(small_graphs):
    for g in small_graphs:
        assert validate_graph(g) == []


def test_generated_graphs_have_expected_composition():
    cfg = GenConfig(graphs=4, processes=3, artifacts=4, agents=2, attributes=2, seed=5)
    for g in gen_graphs(cfg):
        by_type = {}
        for v in g.vertices.values():
            by_type[v.vtype] = by_type.get(v.vtype, 0) + 1
        assert by_type[VertexType.PROCESS] == 3
        assert by_type[VertexType.ARTIFACT] == 4
        assert by_type[VertexType.AGENT] == 2
        assert by_type[VertexType.ATTRIBUTE] == 2
        assert g.id.startswith("bench-5-")


def test_zero_attributes_config():
    for g in gen_graphs(GenConfig(graphs=3, attributes=0, seed=3)):
        assert not any(
            v.vtype is VertexType.ATTRIBUTE for v in g.vertices.values()
        )


def test_density_zero_yields_only_attribute_edges():
    cfg = GenConfig(graphs=3, edge_density=0.0, attributes=2, seed=7)
    for g in gen_graphs(cfg):
        assert all(e.label.value == "hasAttributes" for e in g.edges)


# ==== partition sampling ====


def test_sample_partitions_rejects_bad_count(graph_a):
    with pytest.raises(InfeasibleConfigError):
        sample_partitions(graph_a, 0, seed=0)


def test_sampled_partitions_are_connected_and_deterministic(small_graphs):
    for g in small_graphs[:10]:
        parts = sample_partitions(g, 5, seed=9)
        again = sample_partitions(g, 5, seed=9)
        assert [p.vertex_ids for p in parts] == [p.vertex_ids for p in again]
        for p in parts:
            assert p.vertex_ids
            assert p.vertex_ids <= set(g.vertices)
            assert oracles.connected_over_all_edges(g, p.vertex_ids)
            assert all(
                e.src in p.vertex_ids and e.dst in p.vertex_ids for e in p.induced
            )


# ==== expressiveness ====


def tiny_cfg(seed):
    return GenConfig(
        graphs=12, processes=3, artifacts=4, agents=1, attributes=2, seed=seed
    )


def test_expressible_paclp_matches_exhaustive_oracle():
    for g in gen_graphs(tiny_cfg(13)):
        assert len(g.vertices) <= 12
        for p in sample_partitions(g, 4, seed=13):
            got = expressible_paclp(g, p)
            want = oracles.oracle_expressible(g, p, list(paclp_candidates(g, p)))
            assert got == want, (g.id, sorted(p.vertex_ids))


def test_expressible_lpac_matches_naive_check():
    for g in gen_graphs(tiny_cfg(17)):
        for p in sample_partitions(g, 4, seed=17):
            got = expressible_lpac(g, p)
            want = naive_lpac(g, p)
            assert got == want, (g.id, sorted(p.vertex_ids))


def naive_lpac(g, p, cap=8):
    names = tuple(sorted({g.vertices[v].name for v in p.vertex_ids}))
    if len(names) <= cap:
        if oracles.oracle_vertices(g, NameTest(names)) == set(p.vertex_ids):
            return True
    members = sorted(p.vertex_ids)
    starts = [
        v
        for v in members
        if g.vertices[v].vtype is not VertexType.ATTRIBUTE
        and not any(u in p.vertex_ids for u, _ in g.effect_successors(v))
    ]
    ends = [
        v
        for v in members
        if g.vertices[v].vtype is not VertexType.ATTRIBUTE
        and not any(u in p.vertex_ids for u, _ in g.cause_successors(v))
    ]
    for s in starts:
        for e in ends:
            if s == e:
                continue
            paths = oracles.oracle_directed(
                g, NameTest((g.vertices[s].name,)), NameTest((g.vertices[e].name,))
            )
            union = {v for path in paths for v in path}
            if union == set(p.vertex_ids) and len(paths) == 1:
                return True
    return False


def test_all_agents_partition_is_expressible():
    # the agent set is nameable by a per-type selector even when agent
    # names collide with other vertices, which defeats name enumeration
    g = G(
        "agents",
        [V("ag1", "Ag", "draft"), V("a1", "A", "draft"), V("p1", "P", "upload")],
        [E("p1", "a1", "used"), E("p1", "ag1", "wcb")],
    )
    agents = Partition(frozenset({"ag1"}), g)
    assert expressible_paclp(g, agents)
    assert not expressible_lpac(g, agents)


def test_attribute_bounded_partition_beyond_name_enumeration():
    # nine artifacts marked 2016: one attribute-value selector names them
    # all, while name enumeration overflows the baseline's cap and no
    # single directed path covers them
    vertices = [V("p1", "P", "upload")]
    edges = []
    for i in range(1, 10):
        vertices += [
            V(f"a{i}", "A", f"doc{i}"),
            V(f"x{i}", "Att", "date", "2016"),
        ]
        edges += [E(f"a{i}", f"x{i}", "ha"), E(f"p1", f"a{i}", "used")]
    vertices += [V("a10", "A", "doc10"), V("x10", "Att", "date", "2017")]
    edges += [E("a10", "x10", "ha"), E("p1", "a10", "used")]
    g = G("dated", vertices, edges)
    p = Partition(frozenset(f"a{i}" for i in range(1, 10)), g)
    assert expressible_paclp(g, p)
    assert not expressible_lpac(g, p)


def test_lpac_enum_cap():
    g = G(
        "cap",
        [V(f"a{i}", "A", f"n{i}") for i in range(1, 4)],
        [],
    )
    p = Partition(frozenset({"a1", "a2", "a3"}), g)
    assert expressible_lpac(g, p)
    assert not expressible_lpac(g, p, enum_cap=2)


def chain(n):
    """``n`` artifacts, each derived from the one before."""
    return G(
        f"chain{n}",
        [V(f"a{i}", "A", f"doc{i}") for i in range(n)],
        [E(f"a{i + 1}", f"a{i}", "wdf") for i in range(n - 1)],
    )


def test_long_chain_is_expressible_without_recursion():
    # one directed path names the whole chain; counting its paths must
    # not recurse once per vertex
    g = chain(1500)
    p = Partition(frozenset(g.vertices), g)
    assert expressible_lpac(g, p)
    assert expressible_paclp(g, p)
    g = chain(3000)
    assert directed_union(g, {"a0"}, {"a2999"}) == set(g.vertices)


def test_run_expressiveness_report():
    cfg = GenConfig(graphs=4, processes=3, artifacts=4, agents=1, attributes=1, seed=19)
    report = run_expressiveness(cfg, n_partitions=20)
    assert report.sampled == 20
    assert len(report.verdicts) == 20
    assert report.paclp_count == sum(v.paclp for v in report.verdicts)
    assert report.lpac_count == sum(v.lpac for v in report.verdicts)
    # the baseline never expresses a partition the full grammar cannot
    assert all(v.paclp or not v.lpac for v in report.verdicts)
    assert len({v.partition_id for v in report.verdicts}) == 20
    with pytest.raises(InfeasibleConfigError):
        run_expressiveness(cfg, n_partitions=0)


# ==== combination timing ====


def test_scenario_policy_effects(graph_a):
    ap = gen_scenario_policies(graph_a, 6, "absolute-permit", seed=0)
    deny = gen_scenario_policies(graph_a, 6, "deny", seed=0)
    mixed = gen_scenario_policies(graph_a, 30, "mixed", seed=0)
    assert {p.effect for p in ap} == {Effect.ABSOLUTE_PERMIT}
    assert {p.effect for p in deny} == {Effect.DENY}
    assert {p.effect for p in mixed} == {Effect.ABSOLUTE_PERMIT, Effect.DENY}
    assert [p.id for p in deny[:2]] == ["deny-000", "deny-001"]
    assert all(p.target.graph_ids == (graph_a.id,) for p in ap)
    with pytest.raises(InfeasibleConfigError):
        gen_scenario_policies(graph_a, 3, "chaos", seed=0)


def test_scenario_policies_are_applicable(graph_a, vcd, emt):
    from provpolicy.evaluator import evaluate
    from provpolicy.policy import AccessRequest

    policies = gen_scenario_policies(graph_a, 5, "deny", seed=1)
    decision, _ = evaluate(AccessRequest(graph_a.id), policies, graph_a, vcd, emt)
    assert decision.applied_policies == tuple(sorted(p.id for p in policies))


def test_bench_combination_rows(graph_a):
    policies = gen_scenario_policies(graph_a, 10, "deny", seed=2)
    rows = bench_combination(
        policies, graph_a, repetitions=2, sizes=(2, 5, 10, 50), scenario="deny"
    )
    assert [r["policy_count"] for r in rows] == [2, 5, 10]
    for row in rows:
        assert row["scenario"] == "deny"
        assert row["mean_ns"] > 0
        assert row["median_ns"] > 0
    with pytest.raises(InfeasibleConfigError):
        bench_combination(policies, graph_a, repetitions=0)


def test_run_combination_covers_scenarios(graph_a):
    rows = run_combination(graph_a, sizes=(2, 4), repetitions=1, seed=3)
    assert [r["scenario"] for r in rows] == [
        "absolute-permit",
        "absolute-permit",
        "deny",
        "deny",
        "mixed",
        "mixed",
    ]
    assert all(r["policy_count"] in (2, 4) for r in rows)


def test_default_sizes_and_scenarios():
    assert DEFAULT_SIZES == (5, 10, 15, 20)
    assert SCENARIOS == ("absolute-permit", "deny", "mixed")


# ==== output files ====


def test_expressiveness_csv_round_trip(tmp_path):
    cfg = GenConfig(graphs=3, processes=2, artifacts=3, agents=1, attributes=1, seed=23)
    report = run_expressiveness(cfg, n_partitions=6)
    path = tmp_path / "expr.csv"
    write_expressiveness_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == EXPRESSIVENESS_HEADER
    assert len(rows) == 1 + report.sampled
    for row, v in zip(rows[1:], report.verdicts):
        assert row == [
            v.partition_id,
            str(v.size),
            str(v.paclp).lower(),
            str(v.lpac).lower(),
        ]
    assert {r[2] for r in rows[1:]} <= {"true", "false"}


def test_timing_csv_round_trip(tmp_path, graph_a):
    rows = run_combination(graph_a, sizes=(2,), repetitions=1, seed=4)
    path = tmp_path / "timing.csv"
    write_timing_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert tuple(parsed[0]) == TIMING_HEADER
    assert len(parsed) == 1 + len(rows)
    assert all(int(r[3]) > 0 for r in parsed[1:])


def test_manifest(tmp_path):
    cfg = GenConfig(graphs=2, seed=31)
    path = tmp_path / "manifest.json"
    write_manifest(path, cfg, {"partitions": 10})
    doc = json.loads(path.read_text())
    assert doc["config"]["graphs"] == 2
    assert doc["config"]["seed"] == 31
    assert doc["partitions"] == 10

"""Random workload generation and the benchmark harness.

Three pieces: a seeded generator for schema-valid provenance DAGs, an
expressiveness comparison that checks which sampled partitions the full
partition grammar can name exactly versus a deliberately limited baseline
(explicit enumeration up to a cap, plus single directed paths), and a
policy-combination timing loop. Everything is a deterministic function of
its seed.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InfeasibleConfigError, PathLimitError
from .evaluator import evaluate
from .graph import Edge, EdgeLabel, ProvenanceGraph, Vertex, VertexType
from .partition import (
    DirectedPathSpec,
    GeneralPathSpec,
    Partition,
    PartitionSpec,
    SubgraphSpec,
    VerticesSpec,
    agent_attribute_hull,
    resolve,
)
from .pathexpr import (
    AttributeValueTest,
    NameTest,
    NodeTest,
    Terminal,
    TypedNameTest,
    TypeTest,
    WildcardTest,
    matching_ids,
)
from .policy import (
    AccessRequest,
    CategoryDictionary,
    DependencyLabel,
    EdgeMergeTable,
    Effect,
    Mode,
    Policy,
    Scope,
    Target,
    Transformation,
)
from .query import directed_union, eval_directed_path, general_union

# ==== graph generation ====


@dataclass(frozen=True)
class GenConfig:
    graphs: int = 20
    processes: int = 6
    artifacts: int = 8
    agents: int = 2
    attributes: int = 3
    edge_density: float = 0.35
    name_collision_rate: float = 0.2
    seed: int = 0


_PROCESS_NAMES = ("upload", "review", "grade", "merge", "sign", "archive")
_ARTIFACT_NAMES = ("draft", "report", "dataset", "image", "bundle")
_AGENT_NAMES = ("alice", "bob", "carol", "dora")
_ATTR_NAMES = ("quality", "date", "origin", "status")
_ATTR_VALUES = ("high", "low", "2016", "2017", "internal", "external")


def _check_config(cfg: GenConfig) -> None:
    if cfg.graphs < 1:
        raise InfeasibleConfigError("graphs must be at least 1")
    for field_name in ("processes", "artifacts", "agents", "attributes"):
        if getattr(cfg, field_name) < 0:
            raise InfeasibleConfigError(f"{field_name} must not be negative")
    if not 0.0 <= cfg.edge_density <= 1.0:
        raise InfeasibleConfigError("edge_density must lie in [0, 1]")
    if not 0.0 <= cfg.name_collision_rate <= 1.0:
        raise InfeasibleConfigError("name_collision_rate must lie in [0, 1]")
    if cfg.attributes > 0 and cfg.processes + cfg.artifacts + cfg.agents == 0:
        raise InfeasibleConfigError("attributes need host vertices")
    if cfg.edge_density > 0:
        some_edge_possible = (
            (cfg.processes >= 1 and cfg.artifacts >= 1)
            or cfg.artifacts >= 2
            or cfg.processes >= 2
            or (cfg.processes >= 1 and cfg.agents >= 1)
        )
        if not some_edge_possible:
            raise InfeasibleConfigError(
                "edge_density > 0 but no legal edge can exist for these counts"
            )


def _pick_name(rng: random.Random, pool: tuple[str, ...], used: list[str], rate: float) -> str:
    if used and rng.random() < rate:
        return rng.choice(used)
    j = len(used)
    word = pool[j % len(pool)]
    if j >= len(pool):
        word = f"{word}{j // len(pool) + 1}"
    return word


def _gen_one(index: int, cfg: GenConfig) -> ProvenanceGraph:
    rng = random.Random(f"{cfg.seed}:{index}")
    vertices: list[Vertex] = []
    edges: list[Edge] = []

    agent_names: list[str] = []
    for k in range(cfg.agents):
        name = _pick_name(rng, _AGENT_NAMES, agent_names, cfg.name_collision_rate)
        agent_names.append(name)
        vertices.append(Vertex(f"ag{k}", VertexType.AGENT, name))
    agents = [v.id for v in vertices]

    # Timeline order: each new vertex may only depend on earlier ones, so
    # the stored effect-to-cause edges can never close a cycle.
    slots = ["P"] * cfg.processes + ["A"] * cfg.artifacts
    rng.shuffle(slots)
    earlier_p: list[str] = []
    earlier_a: list[str] = []
    p_names: list[str] = []
    a_names: list[str] = []
    for slot in slots:
        if slot == "P":
            vid = f"p{len(earlier_p)}"
            name = _pick_name(rng, _PROCESS_NAMES, p_names, cfg.name_collision_rate)
            p_names.append(name)
            vertices.append(Vertex(vid, VertexType.PROCESS, name))
            options = [(a, EdgeLabel.USED) for a in earlier_a]
            options += [(p, EdgeLabel.WAS_TRIGGERED_BY) for p in earlier_p]
            options += [(ag, EdgeLabel.WAS_CONTROLLED_BY) for ag in agents]
        else:
            vid = f"a{len(earlier_a)}"
            name = _pick_name(rng, _ARTIFACT_NAMES, a_names, cfg.name_collision_rate)
            a_names.append(name)
            vertices.append(Vertex(vid, VertexType.ARTIFACT, name))
            options = [(p, EdgeLabel.WAS_GENERATED_BY) for p in earlier_p]
            options += [(a, EdgeLabel.WAS_DERIVED_FROM) for a in earlier_a]
        chosen = [opt for opt in options if rng.random() < cfg.edge_density]
        if not chosen and options and cfg.edge_density > 0:
            chosen = [rng.choice(options)]
        edges.extend(Edge(vid, dst, label) for dst, label in chosen)
        if slot == "P":
            earlier_p.append(vid)
        else:
            earlier_a.append(vid)

    hosts = agents + earlier_p + earlier_a
    for k in range(cfg.attributes):
        vid = f"att{k}"
        name = rng.choice(_ATTR_NAMES)
        value = rng.choice(_ATTR_VALUES)
        vertices.append(Vertex(vid, VertexType.ATTRIBUTE, name, value))
        edges.append(Edge(rng.choice(hosts), vid, EdgeLabel.HAS_ATTRIBUTES))

    return ProvenanceGraph(f"bench-{cfg.seed}-{index}", vertices, edges)


def gen_graphs(cfg: GenConfig) -> list[ProvenanceGraph]:
    """Seeded, reproducible, schema-valid DAGs."""
    _check_config(cfg)
    return [_gen_one(i, cfg) for i in range(cfg.graphs)]


# ==== partition sampling ====


def sample_partitions(g: ProvenanceGraph, n: int, seed: int) -> list[Partition]:
    """Draw ``n`` connected partitions by random walk over the
    non-attribute adjacency, then close each under the one-step
    agent/attribute hull."""
    if n < 1:
        raise InfeasibleConfigError("partition count must be at least 1")
    walkable = sorted(
        vid for vid, v in g.vertices.items() if v.vtype is not VertexType.ATTRIBUTE
    )
    if not walkable:
        raise InfeasibleConfigError(f"graph {g.id!r} has no walkable vertices")
    rng = random.Random(f"{seed}:{g.id}")
    out: list[Partition] = []
    for _ in range(n):
        start = rng.choice(walkable)
        target = rng.randint(1, 8)
        visited = {start}
        cur = start
        for _ in range(4 * target):
            if len(visited) >= target:
                break
            neighbors = sorted(g.undirected_neighbors(cur))
            if not neighbors:
                break
            cur = rng.choice(neighbors)
            visited.add(cur)
        out.append(Partition(agent_attribute_hull(g, visited), g))
    return out


# ==== expressiveness ====


def _partition_names(g: ProvenanceGraph, p: Partition) -> tuple[str, ...]:
    return tuple(sorted({g.vertices[vid].name for vid in p.vertex_ids}))


def _boundary(g: ProvenanceGraph, p: Partition) -> tuple[list[str], list[str]]:
    """Chronologically first / last members of the partition; attribute
    vertices never anchor a path."""
    starts: list[str] = []
    ends: list[str] = []
    for vid in sorted(p.vertex_ids):
        if g.vertices[vid].vtype is VertexType.ATTRIBUTE:
            continue
        if not any(u in p.vertex_ids for u, _ in g.effect_successors(vid)):
            starts.append(vid)
        if not any(u in p.vertex_ids for u, _ in g.cause_successors(vid)):
            ends.append(vid)
    return starts, ends


def _anchor_tests(g: ProvenanceGraph, vid: str) -> tuple[NodeTest, ...]:
    v = g.vertices[vid]
    return (NameTest((v.name,)), TypedNameTest(v.vtype, (v.name,)))


def paclp_candidates(g: ProvenanceGraph, p: Partition) -> Iterator[PartitionSpec]:
    """Every partition spec the full grammar would plausibly use to name
    ``p``: whole-set selectors, then directed / general / subgraph specs
    anchored at the partition's boundary vertices, then terminal spans."""
    ids = sorted(p.vertex_ids)
    names = _partition_names(g, p)
    yield VerticesSpec(WildcardTest())
    if names:
        yield VerticesSpec(NameTest(names))
    for t in VertexType:
        yield VerticesSpec(TypeTest(t))
    types = {g.vertices[vid].vtype for vid in ids}
    if len(types) == 1 and names:
        t = next(iter(types))
        yield VerticesSpec(TypedNameTest(t, names))
        values: set[str] = set()
        for vid in ids:
            if t is VertexType.ATTRIBUTE:
                values.add(g.vertices[vid].value or "")
            else:
                values.update(val for _, val in g.attribute_pairs(vid))
        for val in sorted(values):
            yield VerticesSpec(AttributeValueTest(t, val))
    starts, ends = _boundary(g, p)
    for s in starts:
        for e in ends:
            if s == e:
                continue
            for a in _anchor_tests(g, s):
                for b in _anchor_tests(g, e):
                    yield DirectedPathSpec(a, (), b)
                    yield GeneralPathSpec(a, b)
                    yield SubgraphSpec(a, b)
    for e in ends:
        for b in _anchor_tests(g, e):
            yield SubgraphSpec(Terminal.START, b)
    for s in starts:
        for a in _anchor_tests(g, s):
            yield SubgraphSpec(a, Terminal.END)


def _fast_resolves_to(g: ProvenanceGraph, spec: PartitionSpec, p: Partition) -> bool:
    """Equality of ``resolve(g, spec)`` with ``p``. Path unions come from
    the set-level engines, so no path is enumerated: ``resolve`` answers
    vertices and subgraph specs, ``directed_union`` and ``general_union``
    the path specs, which ``resolve`` would walk."""
    target = p.vertex_ids
    if isinstance(spec, (VerticesSpec, SubgraphSpec)):
        return resolve(g, spec).vertex_ids == target
    sources = matching_ids(spec.start, g)
    sinks = matching_ids(spec.end, g)
    if isinstance(spec, DirectedPathSpec):
        return directed_union(g, sources, sinks) == target
    return general_union(g, sources, sinks) == target


def expressible_paclp(g: ProvenanceGraph, p: Partition) -> bool:
    """Can any partition spec of the full grammar name ``p`` exactly?"""
    if not p.vertex_ids:
        return False
    return any(_fast_resolves_to(g, spec, p) for spec in paclp_candidates(g, p))


def expressible_lpac(g: ProvenanceGraph, p: Partition, *, enum_cap: int = 8) -> bool:
    """Baseline without attribute, type, or subgraph selectors: explicit
    name enumeration up to ``enum_cap``, or a start/end pair selecting
    exactly one directed path. Every candidate here is also a candidate
    of the full grammar, so the baseline can never express more."""
    if not p.vertex_ids:
        return False
    names = _partition_names(g, p)
    if len(names) <= enum_cap:
        spec = VerticesSpec(NameTest(names))
        if resolve(g, spec).vertex_ids == p.vertex_ids:
            return True
    starts, ends = _boundary(g, p)
    for s in starts:
        for e in ends:
            if s == e:
                continue
            a = NameTest((g.vertices[s].name,))
            b = NameTest((g.vertices[e].name,))
            if directed_union(g, matching_ids(a, g), matching_ids(b, g)) != p.vertex_ids:
                continue
            try:  # the union is covered; is it by exactly one path?
                eval_directed_path(g, a, b, max_paths=1)
            except PathLimitError:
                continue
            return True
    return False


@dataclass(frozen=True)
class PartitionVerdict:
    partition_id: str
    size: int
    paclp: bool
    lpac: bool


@dataclass(frozen=True)
class ExpressivenessReport:
    sampled: int
    paclp_count: int
    lpac_count: int
    verdicts: tuple[PartitionVerdict, ...]


def run_expressiveness(
    cfg: GenConfig, n_partitions: int = 300
) -> ExpressivenessReport:
    """Sample partitions round-robin across the generated graphs and
    record which engine can express each one."""
    if n_partitions < 1:
        raise InfeasibleConfigError("partition count must be at least 1")
    graphs = gen_graphs(cfg)
    counts = [
        n_partitions // len(graphs) + (1 if i < n_partitions % len(graphs) else 0)
        for i in range(len(graphs))
    ]
    verdicts: list[PartitionVerdict] = []
    serial = 0
    for g, count in zip(graphs, counts):
        if count == 0:
            continue
        for p in sample_partitions(g, count, cfg.seed):
            verdicts.append(
                PartitionVerdict(
                    partition_id=f"{g.id}:p{serial:03d}",
                    size=len(p.vertex_ids),
                    paclp=expressible_paclp(g, p),
                    lpac=expressible_lpac(g, p),
                )
            )
            serial += 1
    return ExpressivenessReport(
        sampled=len(verdicts),
        paclp_count=sum(v.paclp for v in verdicts),
        lpac_count=sum(v.lpac for v in verdicts),
        verdicts=tuple(verdicts),
    )


# ==== policy-combination timing ====

SCENARIOS = ("absolute-permit", "deny", "mixed")
DEFAULT_SIZES = (5, 10, 15, 20)


def gen_scenario_policies(
    g: ProvenanceGraph, count: int, scenario: str, seed: int
) -> list[Policy]:
    """Policies whose targets match the graph by construction; their
    transformations remove small random vertex groups."""
    if scenario not in SCENARIOS:
        raise InfeasibleConfigError(
            f"unknown scenario {scenario!r} (one of: {', '.join(SCENARIOS)})"
        )
    rng = random.Random(f"{seed}:{scenario}:{g.id}")
    candidates = sorted(
        vid for vid, v in g.vertices.items() if v.vtype is not VertexType.ATTRIBUTE
    )
    if not candidates:
        raise InfeasibleConfigError(f"graph {g.id!r} has no non-attribute vertices")
    policies: list[Policy] = []
    for i in range(count):
        picked = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
        spec = VerticesSpec(NameTest(tuple(sorted(picked))))
        label = rng.choice((DependencyLabel.ORIGINAL, DependencyLabel.FALSE))
        if scenario == "absolute-permit":
            effect = Effect.ABSOLUTE_PERMIT
        elif scenario == "deny":
            effect = Effect.DENY
        else:
            effect = rng.choice((Effect.ABSOLUTE_PERMIT, Effect.DENY))
        policies.append(
            Policy(
                id=f"{scenario}-{i:03d}",
                target=Target(graph_ids=(g.id,)),
                effect=effect,
                transformations=(
                    Transformation(spec, Scope.ORIGINAL, Mode.REMOVE, label),
                ),
            )
        )
    return policies


def bench_combination(
    policies: list[Policy],
    g: ProvenanceGraph,
    repetitions: int = 3,
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    scenario: str = "custom",
    vcd: CategoryDictionary | None = None,
    emt: EdgeMergeTable | None = None,
) -> list[dict]:
    """Time evaluate() over growing prefixes of the policy list."""
    if repetitions < 1:
        raise InfeasibleConfigError("repetitions must be at least 1")
    vcd = vcd if vcd is not None else CategoryDictionary()
    emt = emt if emt is not None else EdgeMergeTable.default()
    req = AccessRequest(g.id, {})
    rows: list[dict] = []
    for size in sizes:
        if size > len(policies):
            continue
        prefix = policies[:size]
        samples: list[int] = []
        for _ in range(repetitions):
            t0 = time.perf_counter_ns()
            evaluate(req, prefix, g, vcd, emt)
            samples.append(time.perf_counter_ns() - t0)
        rows.append(
            {
                "scenario": scenario,
                "policy_count": size,
                "mean_ns": round(statistics.fmean(samples)),
                "median_ns": round(statistics.median(samples)),
            }
        )
    return rows


def run_combination(
    g: ProvenanceGraph,
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repetitions: int = 3,
    seed: int = 0,
) -> list[dict]:
    rows: list[dict] = []
    for scenario in SCENARIOS:
        policies = gen_scenario_policies(g, max(sizes), scenario, seed)
        rows.extend(
            bench_combination(
                policies, g, repetitions, sizes=sizes, scenario=scenario
            )
        )
    return rows


# ==== output files ====

EXPRESSIVENESS_HEADER = ("partition_id", "size", "paclp", "lpac")
TIMING_HEADER = ("scenario", "policy_count", "mean_ns", "median_ns")


def write_expressiveness_csv(report: ExpressivenessReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EXPRESSIVENESS_HEADER)
        for v in report.verdicts:
            w.writerow(
                [v.partition_id, v.size, str(v.paclp).lower(), str(v.lpac).lower()]
            )


def write_timing_csv(rows: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TIMING_HEADER)
        for row in rows:
            w.writerow([row[k] for k in TIMING_HEADER])


def write_manifest(path: str | Path, cfg: GenConfig, extras: dict | None = None) -> None:
    payload = {"config": asdict(cfg)}
    if extras:
        payload.update(extras)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

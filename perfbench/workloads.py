"""The three request workloads.

Constructing a workload is its set-up: it generates every input from
the seed. ``request(i)`` then draws the i-th request from its own seeded
stream, so any request can be replayed alone; ``execute`` is the timed
part and calls the package only through its public functions.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate

from provpolicy import (
    AccessRequest,
    CategoryDictionary,
    EdgeMergeTable,
    Effect,
    Outcome,
    VertexType,
    decision_to_dict,
    evaluate,
    load_graph,
    parse_path_expr,
    parse_policy,
    parse_vcd,
    save_graph,
)

from . import gen
from .checks import Checker, canonical, digest


class BulkRemove:
    name = "bulk-remove"
    #: acyclicity and reachability oracles cost more than a request, so
    #: they run on every n-th request; the cheap checks run on all
    full_check_every = 5
    probes = 3

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.policy_count = 5 if tiny else 20
        self.g = gen.lineage_graph(seed, gen.TINY_LINEAGE if tiny else gen.FULL_LINEAGE)
        self.candidates = sorted(vid for vid, v in self.g.vertices.items()
                                 if v.vtype is not VertexType.ATTRIBUTE)
        self.vcd = CategoryDictionary()
        self.emt = EdgeMergeTable.default()

    def describe(self) -> dict:
        return {"vertices": len(self.g.vertices), "edges": len(self.g.edges),
                "policies_per_request": self.policy_count}

    def request(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        policies = gen.bulk_remove_policies(self.g, self.candidates, rng, self.policy_count)
        sources = rng.sample(self.candidates, 2)
        return AccessRequest(self.g.id, {"role": "analyst"}), policies, sources

    def execute(self, inputs):
        req, policies, _ = inputs
        return evaluate(req, policies, self.g, self.vcd, self.emt)

    def check(self, inputs, out, checker: Checker, full: bool) -> list[str]:
        decision, result = out
        view = result.graph
        problems = checker.schema(view) + checker.denied_visible(decision, view)
        if full:
            problems += checker.acyclic(view)
            problems += checker.reachability(self.g, view, inputs[2])
        return problems

    def digest(self, inputs, out) -> str:
        decision, result = out
        return digest(canonical(result.graph), decision_to_dict(decision, result))


class StaffRead:
    name = "staff-read"
    full_check_every = 1
    probes = 10

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.mix = gen.TINY_STAFF if tiny else gen.FULL_STAFF
        self.g = gen.lineage_graph(seed, gen.TINY_LINEAGE if tiny else gen.FULL_LINEAGE)
        self.pairs = gen.directed_pairs(self.g, 40, 160)
        self.vcd = parse_vcd(gen.STAFF_VCD_JSON)
        self.emt = EdgeMergeTable.default()
        self._graph_problems: list[str] | None = None

    def describe(self) -> dict:
        m = self.mix
        applicable = (m.names + m.attribute_values + m.extension + m.types + m.agents
                      + m.directed)
        return {"vertices": len(self.g.vertices), "edges": len(self.g.edges),
                "policies_per_request": applicable + m.denied,
                "applicable_per_request": applicable, "directed_pairs": len(self.pairs)}

    def request(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        policies, expected = gen.staff_policies(self.g, self.pairs, rng, self.mix)
        return gen.staff_request(self.g, rng), policies, expected

    def execute(self, inputs):
        req, policies, _ = inputs
        return evaluate(req, policies, self.g, self.vcd, self.emt)

    def check(self, inputs, out, checker: Checker, full: bool) -> list[str]:
        decision, result = out
        view = result.graph
        problems = []
        if sorted(decision.applied_policies) != sorted(inputs[2]):
            problems.append("applicable policies differ from the staff policies")
        if decision.outcome is not Outcome.PERMIT_FULL:
            problems.append(f"outcome {decision.outcome.value}, expected PermitFull")
        if any(e is Effect.DENY for e in decision.effects.values()):
            problems.append("a deny effect reached a staff request")
        if view is self.g:  # the unchanged input: check it once
            if self._graph_problems is None:
                self._graph_problems = checker.schema(view) + checker.acyclic(view)
            return problems + self._graph_problems
        return problems + checker.schema(view) + checker.acyclic(view)

    def digest(self, inputs, out) -> str:
        decision, result = out
        return digest(canonical(result.graph), decision_to_dict(decision, result))


class DocStore:
    name = "doc-store"
    full_check_every = 1
    probes = 40
    #: documents are drawn by Zipf rank with this exponent; over a pool
    #: of 64 the 8 most requested documents take 57% of requests
    zipf_exponent = 1.0
    student_share = 0.75
    query_share = 0.5

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.docs = gen.documents(seed, 8 if tiny else 64)
        weights = gen.zipf_weights(len(self.docs), self.zipf_exponent)
        self.cum_weights = list(accumulate(weights))
        self.vcd = parse_vcd(gen.DOC_VCD_JSON)
        self.emt = EdgeMergeTable.default()

    def describe(self) -> dict:
        top = self.cum_weights[min(7, len(self.docs) - 1)] / self.cum_weights[-1]
        return {
            "documents": len(self.docs),
            "vertices": [min(d.vertices for d in self.docs), max(d.vertices for d in self.docs)],
            "edges": [min(d.edges for d in self.docs), max(d.edges for d in self.docs)],
            "policies_per_document": [min(len(d.policy_xml) for d in self.docs),
                                      max(len(d.policy_xml) for d in self.docs)],
            "zipf_exponent": self.zipf_exponent,
            "top8_request_share": round(top, 3),
        }

    def request(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        doc = rng.choices(self.docs, cum_weights=self.cum_weights)[0]
        role = "student" if rng.random() < self.student_share else "staff"
        query = rng.choice(gen.QUERIES) if rng.random() < self.query_share else None
        return doc, {"role": role}, query

    def execute(self, inputs):
        doc, attributes, query_text = inputs
        g = load_graph(doc.graph_json)
        policies = [parse_policy(x) for x in doc.policy_xml]
        query = parse_path_expr(query_text) if query_text is not None else None
        decision, result = evaluate(AccessRequest(g.id, attributes, query), policies, g,
                                    self.vcd, self.emt)
        return decision, result, save_graph(result.graph), json.dumps(decision_to_dict(decision, result))

    def check(self, inputs, out, checker: Checker, full: bool) -> list[str]:
        decision, result, _, _ = out
        view = result.graph
        problems = checker.schema(view) + checker.acyclic(view)
        problems += checker.denied_visible(decision, view)
        student = inputs[1]["role"] == "student"
        if student and decision.outcome is not Outcome.PERMIT_TRANSFORMED:
            problems.append(f"student request not transformed: {decision.outcome.value}")
        return problems

    def digest(self, inputs, out) -> str:
        decision, result, _, text = out
        return digest(canonical(result.graph), json.loads(text))


WORKLOADS = {w.name: w for w in (BulkRemove, StaffRead, DocStore)}

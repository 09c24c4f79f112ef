"""Output checks and digests, outside the timed region.

The checks lean on the brute-force oracles in the repository's
``tests/oracles.py``, which share no traversal code with the package.
That module is loaded from its file, so the benchmark reads it without
putting the test directory on the import path.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from provpolicy import Effect, ProvenanceGraph, VertexType


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    if spec is None or spec.loader is None:
        raise ImportError(f"no oracle module under {root / 'tests'}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checker:
    def __init__(self, oracles) -> None:
        self.oracles = oracles

    def schema(self, view: ProvenanceGraph) -> list[str]:
        """Every edge joins present vertices in a schema-legal triple
        (wasCausedBy allowed, as in any transformed view)."""
        problems = []
        for e in view.edges:
            if e.src not in view.vertices or e.dst not in view.vertices:
                problems.append(f"dangling edge {e.src} -> {e.dst}")
            elif not self.oracles.triple_is_legal(view, e, allow_wcsd=True):
                problems.append(f"illegal edge {e.src} -> {e.dst} ({e.label.value})")
        return problems

    def acyclic(self, view: ProvenanceGraph) -> list[str]:
        return ["view has a cycle"] if self.oracles.has_cycle(view) else []

    @staticmethod
    def denied_visible(decision, view: ProvenanceGraph) -> list[str]:
        shown = sorted(vid for vid, effect in decision.effects.items()
                       if effect is Effect.DENY and vid in view.vertices)
        return [f"denied vertices still visible: {shown[:5]}"] if shown else []

    def reachability(self, g: ProvenanceGraph, view: ProvenanceGraph,
                     sources: list[str]) -> list[str]:
        """After removals only, the vertices each surviving source reaches
        are exactly the survivors it reached before."""
        survivors = {vid for vid, v in view.vertices.items()
                     if vid in g.vertices and v.vtype is not VertexType.ATTRIBUTE}
        problems = []
        for vid in sources:
            if vid not in survivors:
                continue
            before = self.oracles.closure(g, vid, forward=False) & survivors
            after = self.oracles.closure(view, vid, forward=False)
            if before != after:
                problems.append(f"reachability from {vid} changed: "
                                f"{len(before ^ after)} vertices differ")
        return problems


def canonical(view: ProvenanceGraph) -> list:
    """The view as sorted plain tuples, independent of any serializer."""
    vertices = sorted((v.id, v.vtype.value, v.name, v.value) for v in view.vertices.values())
    edges = sorted((e.src, e.dst, e.label.value, e.tag or "") for e in view.edges)
    return [view.id, vertices, edges]


def digest(view_form: list, decision_dict: dict) -> str:
    text = json.dumps([view_form, decision_dict], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]

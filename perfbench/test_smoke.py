"""Smoke test of the benchmark: every workload at its tiny size.

Each run goes through the real command line, so this also covers the
hash-seed re-exec and the output contract: the last line is the result
object, and it names every metric of BENCHMARK.json with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.tracing import evaluate_subtrees

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


def check_result(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in metrics}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    meta, result = run_tiny(workload, 0)
    check_result(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["view_drift"] == 0 and meta["PYTHONHASHSEED"] == "0"
    assert set(meta["raw"]) == {"setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_rps"}
    assert meta["speed_scale_median"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_consistent_spans(workload):
    meta, result = run_tiny(workload, 1)
    check_result(result, BENCH["per_layer"])
    assert meta["absent_boundaries"] == []

    spans = json.loads((ROOT / ".perfbench" / f"trace-{workload}.json").read_text())["spans"]
    subtrees = evaluate_subtrees(spans)
    assert subtrees
    for duration, selfs in subtrees:
        assert all(ns >= 0 for ns in selfs)
        assert sum(selfs) <= duration

    names = {span[0] for span in spans}
    if workload == "staff-read":
        assert not any(n.startswith("transform.apply_") for n in names)
    only_doc_store = {"query.eval_general_path", "transform.apply_replace", "graph.load_graph"}
    if workload == "doc-store":
        assert only_doc_store <= names
    else:
        assert not only_doc_store & names


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

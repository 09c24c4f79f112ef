import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from provpolicy.cli import main
from provpolicy.graph import load_graph, validate_graph

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ==== validate ====


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--graph", str(DATA / "sample_a.json"))
    assert code == 0
    assert "valid" in out


def test_validate_ok_json(capsys):
    code, doc, _ = run_json(
        capsys, "validate", "--graph", str(DATA / "sample_a.json")
    )
    assert code == 0
    assert doc == {"graph": "sample-a", "valid": True, "violations": []}


def test_validate_invalid_graph(capsys, tmp_path):
    bad = {
        "id": "bad",
        "vertices": [
            {"id": "p1", "type": "process", "name": "p1"},
            {"id": "p2", "type": "process", "name": "p2"},
        ],
        "edges": [
            {"src": "p1", "dst": "p2", "label": "wasTriggeredBy"},
            {"src": "p2", "dst": "p1", "label": "wasTriggeredBy"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc, _ = run_json(capsys, "validate", "--graph", str(path))
    assert code == 1
    assert doc["valid"] is False
    assert doc["violations"]
    assert all({"kind", "message"} == set(v) for v in doc["violations"])


# ==== query ====


def test_query_path_expression(capsys):
    code, doc, _ = run_json(
        capsys, "query", "--graph", str(DATA / "sample_a.json"), "//o1v2//upload1"
    )
    assert code == 0
    assert doc["kind"] == "paths"
    assert doc["count"] == len(doc["paths"]) >= 1
    assert all(
        set(p) == {"vertices", "directions"} for p in doc["paths"]
    )


def test_query_partition_expression(capsys):
    code, doc, _ = run_json(
        capsys, "query", "--graph", str(DATA / "sample_a.json"), "vertices(upload1)"
    )
    assert code == 0
    assert doc["kind"] == "partition"
    assert doc["vertices"] == ["upload1"]


def test_query_human_output(capsys):
    code, out, _ = run(
        capsys, "query", "--graph", str(DATA / "sample_a.json"), "//o1v2//upload1"
    )
    assert code == 0
    assert "path(s)" in out


def test_query_syntax_error(capsys):
    code, doc, _ = run_json(
        capsys, "query", "--graph", str(DATA / "sample_a.json"), "//((("
    )
    assert code == 1
    assert set(doc) == {"error"}


def test_query_error_goes_to_stderr_without_json(capsys):
    code, out, err = run(
        capsys, "query", "--graph", str(DATA / "sample_a.json"), "//((("
    )
    assert code == 1
    assert not out
    assert err.startswith("error:")


def write_long_chain(tmp_path, n=3000):
    """A wasTriggeredBy chain p0000 <- p0001 <- ...: one path through every
    vertex, deeper than Python's recursion limit."""
    chain = {
        "id": "chain",
        "vertices": [{"id": f"p{i:04d}", "type": "process", "name": f"p{i:04d}"}
                     for i in range(n)],
        "edges": [{"src": f"p{i + 1:04d}", "dst": f"p{i:04d}", "label": "wasTriggeredBy"}
                  for i in range(n - 1)],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    return path


def test_query_on_a_long_chain_ends_without_a_traceback(capsys, tmp_path):
    path = write_long_chain(tmp_path)
    code, out, err = run(capsys, "query", "--graph", str(path), "//p2999//p0000")
    assert code == 0, err
    assert out.startswith("1 path(s)")
    assert not err


def test_path_partitions_on_a_long_chain(capsys, tmp_path):
    path = write_long_chain(tmp_path)
    for expr in ("directed(p0000 // p2999)", "general(p0000 // p2999)",
                 "subgraphs(START // END)"):
        code, out, err = run(capsys, "query", "--graph", str(path), expr)
        assert code == 0, (expr, err)
        assert out.startswith("partition: 3000 vertices, 2999 edges"), expr
        assert not err


# ==== apply ====


def apply_args(**over):
    args = {
        "graph": str(DATA / "sample_c.json"),
        "policy": str(DATA / "sample_policy.xml"),
        "vcd": str(DATA / "sample_vcd.json"),
        "merge-table": str(DATA / "sample_merge_table.json"),
    }
    args.update(over)
    argv = ["apply"]
    for key, value in args.items():
        argv += [f"--{key}", value]
    return argv


def test_apply_student_transforms(capsys, tmp_path):
    out_path = tmp_path / "view.json"
    dot_path = tmp_path / "view.dot"
    code, doc, _ = run_json(
        capsys,
        *apply_args(attr="role=student", out=str(out_path), dot=str(dot_path)),
    )
    assert code == 0
    assert doc["outcome"] == "PermitTransformed"
    assert doc["appliedPolicies"] == ["hide-grading"]
    assert doc["hiddenVertexCount"] == 7
    view = load_graph(out_path.read_text())
    assert validate_graph(view, allow_was_caused_by=True) == []
    assert len(view.vertices) == 12
    assert "merged:0:Grading" in view.vertices
    dot = dot_path.read_text()
    assert dot.startswith("digraph") and "merged:0:Grading" in dot


def test_apply_staff_denied(capsys):
    code, doc, _ = run_json(capsys, *apply_args(attr="role=staff"))
    assert code == 3
    assert doc["outcome"] == "DenyAll"
    assert doc["appliedPolicies"] == []


def test_apply_with_query_filter(capsys):
    code, doc, _ = run_json(
        capsys, *apply_args(attr="role=student", query="//o1v2//upload1")
    )
    assert code == 0
    assert doc["log"][-1]["op"] == "query"


def test_apply_human_output(capsys):
    code, out, _ = run(capsys, *apply_args(attr="role=student"))
    assert code == 0
    assert "outcome: PermitTransformed" in out
    assert "hidden vertices: 7" in out


def test_apply_bad_attr(capsys):
    code, doc, _ = run_json(capsys, *apply_args(attr="rolestudent"))
    assert code == 1
    assert "key=value" in doc["error"]


# ==== error handling ====


def test_missing_file_is_io_error(capsys, tmp_path):
    code, doc, _ = run_json(
        capsys, "validate", "--graph", str(tmp_path / "absent.json")
    )
    assert code == 2
    assert "file error" in doc["error"]


def test_malformed_graph_is_input_error(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, doc, _ = run_json(capsys, "validate", "--graph", str(path))
    assert code == 1
    assert "error" in doc


def test_closed_stdout_exits_quietly():
    # the reading end is closed before the command writes, as when the
    # reader of ``provpolicy query ... | head -1`` has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "provpolicy.cli", "query", "--graph",
             str(DATA / "sample_c.json"), "//*//*"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


def test_argparse_exits_are_remapped(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "validate" in out and "bench" in out


# ==== bench subcommands ====


def test_bench_gen_graphs(capsys, tmp_path):
    out_dir = tmp_path / "graphs"
    code, doc, _ = run_json(
        capsys,
        "bench", "gen-graphs",
        "--graphs", "3",
        "--seed", "5",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert doc["written"] == 3
    files = sorted(out_dir.glob("bench-5-*.json"))
    assert len(files) == 3
    for f in files:
        g = load_graph(f.read_text())
        assert validate_graph(g) == []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert len(manifest["graphs"]) == 3


def test_bench_expressiveness(capsys, tmp_path):
    out_dir = tmp_path / "expr"
    code, doc, _ = run_json(
        capsys,
        "bench", "expressiveness",
        "--partitions", "12",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert doc["sampled"] == 12
    assert doc["paclp"] >= doc["lpac"]
    with open(out_dir / "expressiveness.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["partition_id", "size", "paclp", "lpac"]
    assert len(rows) == 13
    manifest = json.loads((out_dir / "expressiveness_manifest.json").read_text())
    assert manifest["sampled"] == 12


def test_bench_combine(capsys, tmp_path):
    out_dir = tmp_path / "combine"
    code, doc, _ = run_json(
        capsys,
        "bench", "combine",
        "--repetitions", "1",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert len(doc["rows"]) == 12
    with open(out_dir / "combination_timing.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "policy_count", "mean_ns", "median_ns"]
    assert len(rows) == 13
    scenarios = {r[0] for r in rows[1:]}
    assert scenarios == {"absolute-permit", "deny", "mixed"}

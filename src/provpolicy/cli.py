"""Command line front end.

Subcommands: ``validate`` checks a graph document against the vertex and
edge schema, ``query`` evaluates a path expression or partition expression,
``apply`` evaluates policies against an access request and writes the
transformed view, and ``bench`` drives the generators and timing harness.

Exit codes: 0 success, 1 bad input (syntax, schema, unknown names) or
any other failure, 2 file system problems or a closed standard output,
3 request denied outright. No failure ends in a traceback: each prints
one ``error:`` line, except a closed standard output, which prints none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import (
    GenConfig,
    gen_graphs,
    run_combination,
    run_expressiveness,
    write_expressiveness_csv,
    write_manifest,
    write_timing_csv,
)
from .errors import ProvPolicyError
from .evaluator import decision_to_dict, evaluate
from .graph import load_graph, save_graph, to_dot, validate_graph
from .partition import PARTITION_KINDS, parse_partition_expr, partition_to_text, resolve
from .pathexpr import parse_path_expr
from .policy import (
    AccessRequest,
    CategoryDictionary,
    EdgeMergeTable,
    parse_merge_table,
    parse_policy,
    parse_vcd,
)
from .query import eval_query

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_DENIED = 3


def _emit(args: argparse.Namespace, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _fail(args: argparse.Namespace, message: str, code: int) -> int:
    if getattr(args, "json", False):
        print(json.dumps({"error": message}, indent=2, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_attrs(pairs: list[str]) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ProvPolicyError(f"expected key=value, got {pair!r}")
        attrs[key] = value
    return attrs


def _cmd_validate(args: argparse.Namespace) -> int:
    g = load_graph(_read(args.graph))
    violations = validate_graph(g)
    payload = {
        "graph": g.id,
        "valid": not violations,
        "violations": [{"kind": v.kind, "message": v.message} for v in violations],
    }
    human = [f"graph {g.id}: {'valid' if not violations else 'INVALID'}"]
    human += [f"  [{v.kind}] {v.message}" for v in violations]
    _emit(args, payload, human)
    return EXIT_OK if not violations else EXIT_INPUT


def _cmd_query(args: argparse.Namespace) -> int:
    g = load_graph(_read(args.graph))
    text = args.expr.strip()
    if text.split("(", 1)[0].strip() in PARTITION_KINDS:
        spec = parse_partition_expr(text)
        part = resolve(g, spec)
        payload = {
            "kind": "partition",
            "expr": partition_to_text(spec),
            "vertices": sorted(part.vertex_ids),
            "edges": [
                {"src": e.src, "dst": e.dst, "label": e.label.value}
                for e in part.induced
            ],
        }
        human = [f"partition: {len(part.vertex_ids)} vertices, {len(part.induced)} edges"]
        human += [f"  {vid}" for vid in sorted(part.vertex_ids)]
        _emit(args, payload, human)
        return EXIT_OK
    expr = parse_path_expr(text)
    matches = eval_query(g, expr)
    payload = {
        "kind": "paths",
        "expr": text,
        "count": len(matches),
        "paths": [
            {
                "vertices": list(m.vertices),
                "directions": [d.value for d in m.directions],
            }
            for m in matches
        ],
    }
    human = [f"{len(matches)} path(s)"]
    human += ["  (" + ", ".join(m.vertices) + ")" for m in matches]
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_apply(args: argparse.Namespace) -> int:
    g = load_graph(_read(args.graph))
    policies = [parse_policy(_read(p)) for p in args.policy]
    vcd = parse_vcd(_read(args.vcd)) if args.vcd else CategoryDictionary()
    emt = (
        parse_merge_table(_read(args.merge_table))
        if args.merge_table
        else EdgeMergeTable.default()
    )
    query = parse_path_expr(args.query) if args.query else None
    req = AccessRequest(g.id, _parse_attrs(args.attr or []), query)
    decision, result = evaluate(req, policies, g, vcd, emt)
    if args.out:
        Path(args.out).write_text(save_graph(result.graph), encoding="utf-8")
    if args.dot:
        Path(args.dot).write_text(to_dot(result.graph), encoding="utf-8")
    payload = decision_to_dict(decision, result)
    human = [
        f"outcome: {payload['outcome']}",
        f"applied policies: {', '.join(payload['appliedPolicies']) or '(none)'}",
        f"hidden vertices: {payload['hiddenVertexCount']}",
        f"result: {len(result.graph.vertices)} vertices, {len(result.graph.edges)} edges",
    ]
    _emit(args, payload, human)
    return EXIT_DENIED if payload["outcome"] == "DenyAll" else EXIT_OK


def _out_dir(args: argparse.Namespace) -> Path:
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _cmd_bench_gen(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed, graphs=args.graphs)
    graphs = gen_graphs(cfg)
    directory = _out_dir(args)
    for g in graphs:
        (directory / f"{g.id}.json").write_text(save_graph(g), encoding="utf-8")
    write_manifest(
        directory / "manifest.json", cfg, {"graphs": [g.id for g in graphs]}
    )
    payload = {"written": len(graphs), "dir": str(directory)}
    _emit(args, payload, [f"wrote {len(graphs)} graphs to {directory}"])
    return EXIT_OK


def _cmd_bench_expr(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed)
    report = run_expressiveness(cfg, args.partitions)
    directory = _out_dir(args)
    csv_path = directory / "expressiveness.csv"
    write_expressiveness_csv(report, csv_path)
    write_manifest(
        directory / "expressiveness_manifest.json",
        cfg,
        {
            "partitions": args.partitions,
            "sampled": report.sampled,
            "paclp_count": report.paclp_count,
            "lpac_count": report.lpac_count,
        },
    )
    payload = {
        "sampled": report.sampled,
        "paclp": report.paclp_count,
        "lpac": report.lpac_count,
        "csv": str(csv_path),
    }
    human = [
        f"sampled {report.sampled} partitions: "
        f"paclp={report.paclp_count} lpac={report.lpac_count}",
        f"wrote {csv_path}",
    ]
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_bench_combine(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed, graphs=1)
    g = gen_graphs(cfg)[0]
    rows = run_combination(g, repetitions=args.repetitions, seed=args.seed)
    directory = _out_dir(args)
    csv_path = directory / "combination_timing.csv"
    write_timing_csv(rows, csv_path)
    write_manifest(
        directory / "combination_manifest.json",
        cfg,
        {"repetitions": args.repetitions, "rows": rows},
    )
    payload = {"rows": rows, "csv": str(csv_path)}
    human = [
        f"{r['scenario']:>16} n={r['policy_count']:<3} "
        f"mean={r['mean_ns']}ns median={r['median_ns']}ns"
        for r in rows
    ]
    human.append(f"wrote {csv_path}")
    _emit(args, payload, human)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provpolicy",
        description="Evaluate access policies over provenance graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a graph document")
    p_validate.add_argument("--graph", required=True, help="graph JSON file")
    p_validate.add_argument("--json", action="store_true", help="machine output")
    p_validate.set_defaults(func=_cmd_validate)

    p_query = sub.add_parser(
        "query", help="evaluate a path or partition expression"
    )
    p_query.add_argument("--graph", required=True, help="graph JSON file")
    p_query.add_argument("expr", help="expression text")
    p_query.add_argument("--json", action="store_true", help="machine output")
    p_query.set_defaults(func=_cmd_query)

    p_apply = sub.add_parser("apply", help="evaluate policies for a request")
    p_apply.add_argument("--graph", required=True, help="graph JSON file")
    p_apply.add_argument(
        "--policy", action="append", required=True, help="policy XML file (repeatable)"
    )
    p_apply.add_argument("--vcd", help="category dictionary JSON file")
    p_apply.add_argument("--merge-table", help="edge merge table JSON file")
    p_apply.add_argument(
        "--attr", action="append", help="requester attribute key=value (repeatable)"
    )
    p_apply.add_argument("--query", help="path expression filtering the result")
    p_apply.add_argument("--out", help="write the transformed graph JSON here")
    p_apply.add_argument("--dot", help="write a Graphviz rendering here")
    p_apply.add_argument("--json", action="store_true", help="machine output")
    p_apply.set_defaults(func=_cmd_apply)

    p_bench = sub.add_parser("bench", help="generators and timing harness")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    b_gen = bench_sub.add_parser("gen-graphs", help="write random valid graphs")
    b_gen.add_argument("--seed", type=int, default=0)
    b_gen.add_argument("--graphs", type=int, default=20)
    b_gen.add_argument("--out-dir", default="bench_out")
    b_gen.add_argument("--json", action="store_true", help="machine output")
    b_gen.set_defaults(func=_cmd_bench_gen)

    b_expr = bench_sub.add_parser(
        "expressiveness", help="compare partition languages on random samples"
    )
    b_expr.add_argument("--seed", type=int, default=0)
    b_expr.add_argument("--partitions", type=int, default=300)
    b_expr.add_argument("--out-dir", default="bench_out")
    b_expr.add_argument("--json", action="store_true", help="machine output")
    b_expr.set_defaults(func=_cmd_bench_expr)

    b_comb = bench_sub.add_parser(
        "combine", help="time evaluation over growing policy sets"
    )
    b_comb.add_argument("--seed", type=int, default=0)
    b_comb.add_argument("--repetitions", type=int, default=3)
    b_comb.add_argument("--out-dir", default="bench_out")
    b_comb.add_argument("--json", action="store_true", help="machine output")
    b_comb.set_defaults(func=_cmd_bench_combine)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: say nothing, and let the flush at exit succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except OSError as e:
        return _fail(args, f"file error: {e}", EXIT_IO)
    except ProvPolicyError as e:
        return _fail(args, str(e), EXIT_INPUT)
    except Exception as e:  # noqa: BLE001  (no traceback reaches the user)
        detail = " ".join(str(e).split())
        return _fail(args, f"{type(e).__name__}: {detail}", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())

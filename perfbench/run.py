"""Run one workload of the provpolicy benchmark and print its metrics.

    python3 perfbench/run.py --workload bulk-remove --seed 1 --seconds 30 --trace 0

Run from anywhere: the package is imported from the ``src`` directory
next to this one, so the sources of the checkout are what gets measured.
Each workload is a closed loop with one client, in one process and one
thread. The run sets its inputs up, then sends requests one after
another until ``--seconds`` of request time is spent, checking every
output outside the timed region; ten more set-ups spread over the loop
give the median ``setup_s``. Afterwards it replays a fixed set of probe
requests and compares their digests with those recorded in
``golden.json``.

The end-to-end times are scaled to a reference machine speed: requests
run in slots between two samples of the calibration kernel of
``speed.py``, and so does every set-up. The metadata line also gives
the raw times.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every request runs twice, untraced and traced in turn, and
the metrics are the per-layer ones of ``layers.py``. The last line of
standard output is the result object; the line before it holds the
run's metadata. A traced run also writes its spans to
``.perfbench/trace-<workload>.json``.

``--record-golden`` replays the probes of every workload and rewrites
``golden.json``; it is meant for the commit whose answers are the
reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import speed  # noqa: E402  (needs the checkout on the path)

#: every run executes under this hash seed, so set and dict layouts of
#: strings are the same from run to run
HASH_SEED = "0"
SETUP_REPEATS = 11
#: probe requests come from this seed whatever --seed is
DRIFT_SEED = 0
#: an untraced run sends at least this many requests, so that its 90th
#: percentile has ten samples beyond it
MIN_REQUESTS = 100
#: a run stops sending requests after this much wall time, checks
#: included, so that it ends within three minutes
WALL_LIMIT_S = 140
WORKLOAD_NAMES = ("bulk-remove", "staff-read", "doc-store")


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the smoke test")
    p.add_argument("--record-golden", action="store_true",
                   help="rewrite golden.json from the probe requests, then exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_golden:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One workload run: set-up, the closed loop, checks and probes."""

    def __init__(self, cls, args, checker) -> None:
        self.cls = cls
        self.args = args
        self.checker = checker
        self.attempted = 0
        self.errors: dict[int, str] = {}
        self.latencies: list[int] = []
        self.traced_latencies: list[int] = []
        #: latencies and set-up times at the reference speed
        self.scaled: list[float] = []
        self.setup_ns: list[int] = []
        self.scaled_setup_ns: list[float] = []
        self.wall_end = perf_counter_ns() + WALL_LIMIT_S * 1e9

    @property
    def failed(self) -> int:
        return len(self.errors)

    def setup(self):
        """Build the workload's inputs, timing it between two kernel
        samples; the first build is the one the run uses."""
        gc.collect()
        before = speed.sample()
        t0 = perf_counter_ns()
        workload = self.cls(self.args.seed, self.args.tiny)
        ns = perf_counter_ns() - t0
        self.setup_ns.append(ns)
        self.scaled_setup_ns.append(ns * speed.scale(before, speed.sample()))
        return workload

    def finish(self, workload, i: int, inputs, out, error: str | None) -> None:
        """Count request i and check its output."""
        self.attempted += 1
        if error is None:
            problems = workload.check(inputs, out, self.checker,
                                      i % workload.full_check_every == 0)
            error = "; ".join(problems[:3]) if problems else None
        if error is not None:
            self.errors.setdefault(i, error)

    def untraced(self, workload) -> None:
        """The closed loop, in slots of at least ``speed.SLOT_NS`` of
        request time between two kernel samples; a slot's outputs are
        checked after its second sample. The further set-ups are spread
        over the run, so that setup_s samples the machine at several
        moments, as the latencies do."""
        every = self.args.seconds * 1e9 / SETUP_REPEATS
        busy = 0
        i = 0
        while ((busy < self.args.seconds * 1e9 or i < MIN_REQUESTS)
               and perf_counter_ns() < self.wall_end):
            if busy >= every * len(self.setup_ns) and len(self.setup_ns) < SETUP_REPEATS:
                self.setup()
            slot, slot_ns = [], 0
            before = speed.sample()
            while slot_ns < speed.SLOT_NS:
                inputs = workload.request(i + len(slot))
                ns, out, error = timed(workload, inputs)
                slot.append((inputs, ns, out, error))
                slot_ns += ns
            factor = speed.scale(before, speed.sample())
            for inputs, ns, out, error in slot:
                if error is None:
                    self.latencies.append(ns)
                    self.scaled.append(ns * factor)
                self.finish(workload, i, inputs, out, error)
                i += 1
            busy += slot_ns
        while len(self.setup_ns) < SETUP_REPEATS:
            self.setup()

    def traced(self, workload, tracer, warnings) -> None:
        """Each request untraced and traced in turn, alternating which
        goes first; the two outputs must agree."""
        busy = 0
        i = 0
        while busy < self.args.seconds * 1e9 and perf_counter_ns() < self.wall_end:
            inputs = workload.request(i)
            outs, errors = {}, []
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.on()
                    root = tracer.begin_request(i)
                    seen = warnings.seen
                ns, outs[traced], error = timed(workload, inputs)
                if traced:
                    tracer.close(root)
                    tracer.off()
                    tracer.counts[i]["transform.scope_warnings"] = warnings.seen - seen
                busy += ns
                if error is None:
                    (self.traced_latencies if traced else self.latencies).append(ns)
                else:
                    errors.append(error)
            error = errors[0] if errors else None
            if error is None and (workload.digest(inputs, outs[False])
                                  != workload.digest(inputs, outs[True])):
                error = "traced and untraced outputs differ"
            self.finish(workload, i, inputs, outs[False], error)
            i += 1


def timed(workload, inputs):
    """(ns, output, None), or (ns, None, message) if the request raised."""
    t0 = perf_counter_ns()
    try:
        out = workload.execute(inputs)
    except Exception as e:  # a failing request is counted, not fatal
        return perf_counter_ns() - t0, None, f"{type(e).__name__}: {e}"
    return perf_counter_ns() - t0, out, None


def probe_digests(cls, tiny: bool, checker) -> list[str | None]:
    """Digests of the probe requests, None where a request raised or its
    output failed a check."""
    workload = cls(DRIFT_SEED, tiny)
    out = []
    for k in range(cls.probes):
        inputs = workload.request(k)
        try:
            result = workload.execute(inputs)
        except Exception:
            out.append(None)
            continue
        bad = workload.check(inputs, result, checker, True)
        out.append(None if bad else workload.digest(inputs, result))
    return out


def golden_key(name: str, tiny: bool) -> str:
    return name + ("@tiny" if tiny else "")


def record_golden(workloads, checker) -> int:
    golden = {}
    for cls in workloads.values():
        for tiny in (False, True):
            digests = probe_digests(cls, tiny, checker)
            if None in digests:
                print(f"perfbench: a {cls.name} probe failed; golden.json not written",
                      file=sys.stderr)
                return 1
            golden[golden_key(cls.name, tiny)] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.name}: {sum(len(v) for v in golden.values())} digests")
    return 0


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = perf_counter_ns()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (ROOT / "src" / "provpolicy").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no provpolicy sources and oracles under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench.checks import Checker, load_oracles
    from perfbench.layers import LAYER_METRICS, TRACE_METRICS, evaluate_shares, layer_values
    from perfbench.tracing import BOUNDARIES, Tracer, WarningCounter
    from perfbench.workloads import WORKLOADS

    warnings = WarningCounter()
    logging.getLogger("provpolicy").addHandler(warnings)
    checker = Checker(load_oracles(ROOT))
    if args.record_golden:
        return record_golden(WORKLOADS, checker)

    cls = WORKLOADS[args.workload]
    run = Run(cls, args, checker)
    workload = run.setup()
    tracer = Tracer(BOUNDARIES) if args.trace else None
    gc.collect()
    if tracer is None:
        run.untraced(workload)
    else:
        run.traced(workload, tracer, warnings)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    expected = golden.get(golden_key(cls.name, args.tiny), [])
    probes = probe_digests(cls, args.tiny, checker)
    drift = sum(1 for k, d in enumerate(probes)
                if d is None or k >= len(expected) or d != expected[k])

    meta = {
        "workload": cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": workload.describe(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / max(run.attempted, 1),
        "view_drift": drift,
        "drift_probes": len(probes),
        "problems": [f"request {i}: {e}" for i, e in sorted(run.errors.items())[:10]],
        "setup_ns": run.setup_ns,
        "scope_warnings": warnings.seen,
    }
    if not run.latencies:
        metrics = {}
    elif args.trace:
        overhead = (statistics.median(run.traced_latencies)
                    - statistics.median(run.latencies)) / 1e6 if run.traced_latencies else 0.0
        values = layer_values(tracer.spans, tracer.counts)
        values["trace.overhead_ms"] = overhead
        values["trace.absent_boundaries"] = len(tracer.absent)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in LAYER_METRICS + TRACE_METRICS}
        meta["absent_boundaries"] = tracer.absent
        meta["evaluate_shares"] = evaluate_shares(tracer.spans)
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"trace-{cls.name}.json").write_text(
            json.dumps({"meta": meta, "spans": tracer.spans}, separators=(",", ":")))
    else:
        lat_ms = [ns / 1e6 for ns in run.scaled]
        raw_ms = [ns / 1e6 for ns in run.latencies]
        meta["raw"] = {"setup_s": statistics.median(run.setup_ns) / 1e9,
                       "latency_p50_ms": statistics.median(raw_ms),
                       "latency_p90_ms": percentile_90(raw_ms),
                       "throughput_rps": len(raw_ms) / (sum(raw_ms) / 1e3)}
        meta["speed_scale_median"] = statistics.median(s / r for s, r in zip(lat_ms, raw_ms))
        metrics = {
            "setup_s": {"value": statistics.median(run.scaled_setup_ns) / 1e9, "unit": "s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_p90_ms": {"value": percentile_90(lat_ms), "unit": "ms"},
            "throughput_rps": {"value": len(lat_ms) / (sum(lat_ms) / 1e3), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    meta["latency_samples"] = len(run.latencies)
    meta["wall_s"] = round((perf_counter_ns() - started) / 1e9, 2)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0 and drift == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""setalgd serving benchmark: builds bench_serve and runs its workloads.

    python3 servebench/serve.py --seed 1
        every workload, each in its own process, traced; prints every
        metric by name with its unit, writes BENCH_serve.json and
        TRACE_serve.json, and exits non-zero on any wrong result.

    python3 servebench/serve.py --workload div-hot --seed 3 --seconds 20 --trace 0
        one workload; the last stdout line is one JSON object with
        correct / attempted / failed and the metrics BENCHMARK.json lists
        (end_to_end with --trace 0, per_layer with --trace 1).

The bench is built from the checkout's sources into --build (default
.bench_build at the repository root). Run from the repository root.
README.md next to this file describes the workloads and metrics.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare_serve import end_to_end_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["div-hot", "div-churn", "sql-mix", "triangle-churn"]
# A run must end within 180 s; the slowest traced run (div-churn) takes
# about 80 s on 4 CPUs.
RUN_TIMEOUT_S = 170

# Which end-to-end metric each layer metric should move, and where.
_FRONTEND = "div-hot, sql-mix latency_p50_ms (div-churn unchanged)"
_WIRE = "triangle-churn latency_p50_ms, div-hot throughput_sps"
_EXEC = "div-churn, triangle-churn latency_p50_ms"
_CACHE = "div-hot, sql-mix throughput_sps"
MOVES = {
    "server.roundtrip_us": _WIRE,
    "server.encode_us": _WIRE,
    "server.response_bytes": _WIRE,
    "server.residual_us": "div-hot latency_p50_ms",
    "sql.lex_us": _FRONTEND,
    "sql.parse_us": _FRONTEND,
    "sql.analyze_us": _FRONTEND,
    "ra.parse_us": _FRONTEND,
    "txn.commit_us": "div-churn, triangle-churn commit_p50_ms",
    "txn.snapshot_us": "div-churn, triangle-churn commit_p50_ms",
    "cache.lookup_us": "div-hot latency_p50_ms",
    "stats.build_us": "div-churn latency_p50_ms",
    "engine.plan_us": "sql-mix throughput_sps",
    "engine.exec_us": _EXEC,
    "engine.max_intermediate": _EXEC,
    "engine.intermediate_per_row": _EXEC,
    "setjoin.kernel_us": "div-churn latency_p50_ms",
    "engine.overhead_ratio": "div-churn latency_p50_ms",
    "cache.result_hit_rate": _CACHE,
    "cache.plan_hit_rate": _CACHE,
    "cache.plan_revalidate_rate": _CACHE,
    "cache.evictions": _CACHE,
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds bench_serve; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_serve",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "bench_serve"


def run_workload(binary, workload, seed, seconds, trace, trace_out):
    """Runs one workload in its own process; returns its report dict."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--trace-out", str(trace_out)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        try:
            stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: bench_serve exited {process.returncode}")
    return json.loads(lines[-1])


def print_report(report, specs):
    log(f"== {report['workload']} (seed {report['seed']}, {report['seconds']} s, "
        f"{report['clients']} clients, {report['attempted']} statements, "
        f"{report['failed']} failed, {report['samples']} latency samples) ==")
    metrics = report["metrics"]
    for name, spec in specs.items():
        if name in metrics:
            metric = metrics[name]
            bound = "none" if spec["bound"] is None else f"{spec['bound']:.0%}"
            log(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']:<6} bound {bound}")
    layers = [name for name in metrics if name not in specs]
    if layers:
        log("  per layer (median per traced statement; cache.* over the timed run)"
            " -> should move:")
    for name in layers:
        metric = metrics[name]
        log(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"-> {MOVES.get(name, '')}")
    for error in report["errors"]:
        log(f"  ERROR {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="per-layer trace (default: 1 for all, 0 for one workload)")
    parser.add_argument("--build", type=Path, default=ROOT / ".bench_build")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    trace = args.trace if args.trace is not None else int(args.workload == "all")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = end_to_end_specs(benchmark)
    binary = build(args.build.resolve())

    args.out_dir.mkdir(parents=True, exist_ok=True)
    started_at = time.time()
    reports = {}
    traces = {}
    trace_tmp = args.out_dir / "TRACE_serve.tmp.json"
    for workload in workloads:
        log(f"running {workload} (seed {args.seed}, {args.seconds} s)")
        reports[workload] = run_workload(binary, workload, args.seed, args.seconds,
                                         trace, trace_tmp)
        if trace:
            traces[workload] = json.loads(trace_tmp.read_text())
            trace_tmp.unlink()
        print_report(reports[workload], specs)

    (args.out_dir / "BENCH_serve.json").write_text(json.dumps(
        {"bench": "serve", "seed": args.seed, "seconds": args.seconds,
         "started_at": started_at, "workloads": reports}, indent=1) + "\n")
    if trace:
        (args.out_dir / "TRACE_serve.json").write_text(json.dumps(
            {"seed": args.seed, "workloads": traces}) + "\n")

    correct = all(r["correct"] for r in reports.values())
    listed = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {}
    for report in reports.values():
        for entry in listed:
            value = report["metrics"].get(entry["name"])
            if value is None or value["value"] is None:
                correct = False
                log(f"{report['workload']}: no value for {entry['name']}")
                continue
            key = entry["name"] if len(reports) == 1 else \
                f"{report['workload']}/{entry['name']}"
            metrics[key] = value
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError, ValueError) as error:
        log(f"serve.py: {error}")
        sys.exit(1)

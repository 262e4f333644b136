"""regionbound benchmark: run -> check throughput, end to end and per layer.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload closure-batch --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload wide-drift --trace 1

Each workload runs in fresh worker processes (worker.py), one job at a time
from a single thread. ``--trace 0`` reports the end-to-end metrics: the
set-up is repeated in separate processes and its median reported, then one
process measures whole rounds of jobs for ``--seconds`` seconds of job time.
Times are scaled to a reference speed of the host (see worker.py).
``--trace 1`` reports the per-layer metrics of a traced run and the tracing
overhead against an untraced re-run of the same jobs. The last stdout line is
one JSON object with the metrics that BENCHMARK.json declares for the mode.
Exit status: 0 with a result (``correct`` false when any job's verdict
failed), 1 when the benchmark itself broke, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# fresh set-up processes besides the measuring one; the first also measures memory
SETUP_RUNS = {"full": 4, "minimal": 1}
TIME_LIMIT_S = 170  # per workload


class BenchError(Exception):
    pass


def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def call_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the next worker")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--size", args.size]
    if args.trace:
        return call_worker(common + ["--mode", "trace"], deadline)
    mem = call_worker(common + ["--mode", "memory"], deadline)
    probes = [mem] + [call_worker(common + ["--mode", "setup"], deadline)
                      for _ in range(SETUP_RUNS[args.size] - 1)]
    result = call_worker(common + ["--mode", "measure"], deadline)
    probes.append(result)
    result["metrics"]["peak_rss_mb"] = {"value": mem["peak_rss_mb"], "unit": "MB"}
    result["notes"]["peak_rss_mb"] = (f"one round of {mem['attempted']} jobs in a "
                                      "fresh process")
    result["attempted"] += mem["attempted"]
    result["failed"] += mem["failed"]
    result["errors"] += mem["errors"]
    result["correct"] = result["correct"] and mem["correct"]
    result["metrics"]["fail_ratio"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio"}
    result["notes"]["fail_ratio"] = (f"{result['failed']} of {result['attempted']} "
                                     "jobs failed")
    setups = [r["setup_s"] for r in probes]
    raw = statistics.median(r["setup_raw_s"] for r in probes)
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["notes"]["setup_s"] = (f"median of {len(setups)} set-ups, each in a "
                                  f"fresh process, at reference speed; {raw:.6g} s "
                                  "unscaled")
    return result


def host_line() -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"platform={platform.platform()} commit={commit}")


def print_workload(name: str, result: dict) -> None:
    print(f"workload {name}: {result['attempted']} jobs, {result['failed']} failed")
    for metric, m in result["metrics"].items():
        note = result["notes"].get(metric)
        print(f"  {metric:38s} {m['value']:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    for key in sorted(set(result["notes"]) - set(result["metrics"])):
        print(f"  {key:38s} {result['notes'][key]}")
    print(f"  trace_digest sha256:{result['digest']} "
          f"(first round, {result['digest_jobs']} jobs)")
    for err in result["errors"]:
        print(f"  FAILED {err}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="regionbound run -> check benchmark")
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=tuple(SIZES),
                   help="scenario size; 'minimal' is for the smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "regionbound" / "kernel.py").is_file():
        print(f"benchmark error: no regionbound sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        declared = declared_metrics(bool(args.trace))
        print(host_line())
        results = {name: run_workload(name, args, time.monotonic() + TIME_LIMIT_S)
                   for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        print_workload(name, result)
        missing = [m for m in declared if m not in result["metrics"]]
        if missing:
            print(f"benchmark error: {name} did not report {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        out["metrics"].update({prefix + m: result["metrics"][m] for m in declared})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

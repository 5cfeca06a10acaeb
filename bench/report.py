"""
Regenerate the figures in bench/README.md.  Every workload and the run length
come from BENCHMARK.json.

    python3 bench/report.py spread [--first-seed 1]
        Runs each workload untraced once per seed (first-seed, first-seed+1,
        ... ten seeds) and prints, per end-to-end metric, the median, the
        quartiles and the spread (Q3 - Q1) / median, as
        statistics.quantiles(values, n=4) gives them.

    python3 bench/report.py layers [--seed 1]
        Runs each workload untraced and traced at one seed and prints the
        per-layer table and the tracing overhead: the change in ops_per_s
        from the untraced run to the traced one.

Every run's JSON result is kept under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong outputs\n{proc.stderr}")
    return res


def spread(first_seed: int) -> None:
    for workload in WORKLOADS:
        seeds = range(first_seed, first_seed + RUNS)
        results = [run(workload, seed, 0) for seed in seeds]
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"\n{workload}: seeds {seeds.start}..{seeds.stop - 1}, (failed, attempted) = {sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:16s} {q2:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / q2:8.3f}")


def layers(seed: int) -> None:
    for workload in WORKLOADS:
        plain = run(workload, seed, 0)
        traced = run(workload, seed, 1)
        print(f"\n{workload} (seed {seed}): {traced['attempted']} traced queries")
        for metric, m in traced["metrics"].items():
            if m["value"]:
                print(f"  {metric:42s} {m['value']:14.4f} {m['unit']}")
        if workload == "cli-paper":
            print("  tracing overhead: not comparable, the traced run calls the CLI in-process")
            continue
        untraced = plain["metrics"]["ops_per_s"]["value"]
        with_trace = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"  tracing overhead: ops_per_s {untraced:.2f} untraced, {with_trace:.2f} traced "
              f"({(with_trace - untraced) / untraced:+.1%})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spread").add_argument("--first-seed", type=int, default=1)
    sub.add_parser("layers").add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spread(args.first_seed) if args.command == "spread" else layers(args.seed)


if __name__ == "__main__":
    main()

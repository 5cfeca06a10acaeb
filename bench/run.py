"""
braidforge benchmark: one seeded workload per run, closed loop, one process,
no threads.  Run from the repository root:

    python3 bench/run.py --workload conj-qp --seed 1 --seconds 25 --trace 0

With --trace 0 it prints the end-to-end metrics, taking each query's best
time over the rounds in which it ran; with --trace 1 it runs a
fixed number of rounds with every public braidforge function wrapped and
prints the per-layer metrics.  The last line of standard output is the result
as JSON; the result and any spans are also written under bench/out/.
A wrong output makes "correct" false; exit code 2 means the benchmark could
not run (no braidforge sources next to it).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s is the median of this many fresh interpreters, spread evenly over
# the timed phase so that a slow spell of the machine does not hit them all
SETUP_SAMPLES = 5


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_process(argv: list[str]) -> tuple[float, str]:
    """Wall time of a fresh interpreter from launch to exit, and its output."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def setup_seconds(workload) -> float:
    """Wall time from a fresh interpreter's launch until the workload's
    first query could run (the process exits right there)."""
    if workload.in_process:
        argv = [str(BENCH / "probe.py"), workload.name]
    else:  # the lightest CLI command that pays the sign-convention search
        argv = ["-m", "braidforge.cli", "cover", "homrep", "-n", "3", "-k", "2", "t[1,1]"]
    return timed_process(argv)[0]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class Loop:
    """Runs rounds of queries, timing each call and checking each output."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        # every timed query, failed ones included: a failure costs the user
        # its time too, and a run whose queries all fail still ends
        self.latencies: list[float] = []
        self.finished: list[float] = []  # when each timed query ended
        self.kinds: list[str] = []
        self.ids: list[str] = []  # round.position of each timed query
        # each distinct query's timed latencies; rounds that repeat a query
        # add to its list, and one whose call raised is marked failed
        self.per_query: dict = {}
        self.failed_queries: set = set()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_round(self, r: int, timed: bool) -> None:
        wl = self.workload
        for i, q in enumerate(wl.round(r)):
            if self.tracer is not None:
                self.tracer.query = f"{r}.{i}"
            start = time.perf_counter()
            try:
                out = wl.execute(q)
            except Exception as err:  # a failed operation, counted, not fatal
                out, failure = None, err
            else:
                failure = None
            elapsed = time.perf_counter() - start
            if timed:
                self.attempted += 1
                self.failed += failure is not None
                self.latencies.append(elapsed)
                self.finished.append(start + elapsed)
                self.kinds.append(q.kind)
                self.ids.append(f"{r}.{i}")
                self.per_query.setdefault(q, []).append(elapsed)
                if failure is not None:
                    self.failed_queries.add(q)
            if failure is not None:
                print(f"bench: {wl.name} query {r}.{i} ({q.kind}) failed: {failure!r}", file=sys.stderr)
                continue
            try:
                err = wl.checked(q, out)
            except Exception as exc:  # an output the check cannot read is wrong
                err = f"check raised {exc!r}"
            if err is not None:
                self.errors.append(f"query {r}.{i} ({q.kind}): {err}")
                print(f"bench: {wl.name} query {r}.{i} ({q.kind}) wrong: {err}", file=sys.stderr)


def best_latencies(loop: Loop) -> tuple[list[float], float]:
    """Each distinct query's best time over the rounds that ran it, and the
    queries completed per second of those times.  The host's other tenants
    slow every call for seconds at a time; a repeated query's best time
    leaves that out.  A query that ran once (fresh words) keeps its one time."""
    best = [min(times) for times in loop.per_query.values()]
    if not best:
        return best, 0.0
    return best, (len(best) - len(loop.failed_queries)) / sum(best)


def run_untraced(workload, seconds: float) -> dict:
    setup = [setup_seconds(workload)]
    workload.setup()
    loop = Loop(workload)
    for r in range(workload.warmup_rounds):
        loop.run_round(r, timed=False)
    r = workload.warmup_rounds
    rss = None
    while sum(loop.latencies) < seconds:
        loop.run_round(r, timed=True)
        r += 1
        if rss is None:
            rss = peak_rss_mb(workload)
        while len(setup) < SETUP_SAMPLES and sum(loop.latencies) >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_seconds(workload))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(workload))
    lat = loop.latencies
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"latencies-{workload.name}-{workload.seed}.tsv", "w") as fh:
        fh.write("finished_s\tlatency_s\tkind\tquery\n")
        for end, x, kind, qid in zip(loop.finished, lat, loop.kinds, loop.ids):
            fh.write(f"{end - loop.finished[0]:.6f}\t{x:.9f}\t{kind}\t{qid}\n")
    best, ops = best_latencies(loop)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(best, n=10)[-1] * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return result(loop, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def run_traced(workload, seed: int) -> dict:
    import spans

    start = time.perf_counter()
    import braidforge
    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.install(braidforge)
    if not workload.in_process:
        workload.runner = cli_in_process
    workload.setup()
    loop = Loop(workload, tracer)
    for r in range(workload.warmup_rounds):
        loop.run_round(r, timed=False)
    for r in range(workload.warmup_rounds, workload.warmup_rounds + workload.trace_rounds):
        loop.run_round(r, timed=True)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-{seed}.tsv")
    return result(loop, tracer.layer_metrics(import_s, best_latencies(loop)[1]))


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    import braidforge.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = braidforge.cli.run(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return code, buf.getvalue()


def result(loop: Loop, metrics: dict) -> dict:
    return {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description="braidforge benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidforge" / "__init__.py").is_file():
        return fail(f"braidforge sources not found under {SRC}; run from a full checkout")
    os.environ.update(child_env())
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        res = run_traced(workload, args.seed)
    else:
        res = run_untraced(workload, args.seconds)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark command: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload solve-minimal --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every workload runs in fresh
single-threaded Python processes started from here.  Each is a closed
loop with one client.  With ``--trace 0`` two set-up-only processes run
first, then the measuring one, one at a time; ``setup_s`` is the median
of the three set-up times, each timed from process start to the end of
set-up.  With ``--trace 1`` an untraced and a traced process run the same
seeded rounds at once, one on each of the host's two CPUs, and the
trace.* figures compare the rounds both completed.  End-to-end times are
host-normalized seconds (worker.HostSpeed).

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; metric names and units
are those of BENCHMARK.json.  The line before it names the workload's own
figures (solve_s, eval_p90_s, selftest_s, ...) for reading by eye.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
# A run must end within 180 s.  The slowest, a traced selftest, takes
# about 80 s, so a host twice as slow as usual still ends in time.
DEADLINE_S = 170.0


def start(argv: list[str]) -> tuple[subprocess.Popen, float]:
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE, cwd=ROOT, text=True
    )
    return proc, started


def run_workers(argvs: list[list[str]], deadline: float) -> list[dict]:
    """Start one worker per argv together and wait for all; none outlives this call.

    Each result gets setup_s, timed from outside and host-normalized by the
    calibrations the worker made right after set-up.
    """
    workers = [start(argv) for argv in argvs]
    results = []
    try:
        for argv, (proc, started) in zip(argvs, workers):
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise SystemExit(f"error: worker {' '.join(argv)} exited with {proc.returncode}")
            result = json.loads(out.strip().splitlines()[-1])
            result["setup_s"] = (result["ready"] - started) * result["setup_factor"]
            results.append(result)
    finally:
        for proc, _ in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return results


def trace_metrics(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced worker, with trace.* over the rounds both completed."""
    k = min(len(untraced["round_s"]), len(traced["round_s"]))
    values = dict(traced["layers"])
    values["trace.untraced_s"] = sum(untraced["round_s"][:k])
    values["trace.overhead_s"] = sum(traced["round_s"][:k]) - values["trace.untraced_s"]
    values["trace.self_sum_s"] = sum(traced["round_self_s"][:k])
    problems = traced["problems"]
    if traced["round_failed"][:k] != untraced["round_failed"][:k]:
        problems.append("the traced worker failed other operations than the untraced one")
    return values, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="schwarzian benchmark, one workload per call")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "schwarzian" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    try:
        if args.trace:
            result, traced = run_workers([base, base + ["--trace"]], deadline)
            values, problems = trace_metrics(result, traced)
            result["problems"] += problems
            wanted = spec["per_layer"]
        else:
            setups = [
                run_workers([base + ["--setup-only"]], deadline)[0]["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            (result,) = run_workers([base], deadline)
            setups.append(result["setup_s"])
            values = {
                "setup_s": statistics.median(setups),
                "op_s": result["op_s"],
                "items_per_s": result["items_per_s"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            wanted = spec["end_to_end"]
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} ran past {DEADLINE_S:g} s", file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in wanted}:
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: " + ", ".join(
        f"{k}={v:.6g}" for k, v in result["info"].items()
    ))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

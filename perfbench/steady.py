"""Repeat every workload and report each metric's median and quartiles.

    python3 perfbench/steady.py [--seed 1]

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json, RUNS times
each with seeds seed, seed + 1, ..., for BENCHMARK.json's run_seconds,
one run at a time, from the root of the checkout.  For every workload and end-to-end
metric it prints the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread
(q3 - q1) / median and the bound BENCHMARK.json sets.  It also prints the
share of failed operations of every run, which must not vary.  The last
line is all of it as JSON, so two sets of runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.seed, args.seed + RUNS):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_shares": shares,
            "metrics": rows,
        }
        print(f"{workload}: correct={report[workload]['correct']} failed shares={shares}")
        for name, row in rows.items():
            print(f"  {name:12s} median {row['median']:.5g}  q1 {row['q1']:.5g}  "
                  f"q3 {row['q3']:.5g}  spread {row['spread']:.3f}  bound {row['bound']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

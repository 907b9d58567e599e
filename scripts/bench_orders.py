"""Time solve(7, 1, N) and minimal_form at N = 60, 120 and 240 across checkouts.

Usage, from the root of a checkout:

    python3 scripts/bench_orders.py --tree before=PATH --tree after=. --out BENCH_11.json

Each ``--tree NAME=PATH`` names a checkout whose ``src/`` holds the
package.  Every round runs one fresh process per tree, in turn, so the
trees share the machine's state; every other round runs them in reverse
order, so no tree always runs first (with a fixed order, swapping two
trees flipped which one read faster).  Each process warms up with
``solve(7, 1, 30)`` and then times ``--repeats`` calls of each function
at each order.  The JSON records, per tree, function and order, the median
and quartiles of the pooled wall times in seconds, with the Python version
and the platform; the ratios in ``speedup`` divide the first tree's
medians by each other tree's.  Paths are not recorded, only the names.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ORDERS = (60, 120, 240)
PAIR = (7, 1)


def measure(repeats: int) -> dict:
    """Wall times of ``repeats`` calls per function and order, in this process."""
    from schwarzian import minimal_form, ReprData, solve

    solve(*PAIR, 30)
    calls = {
        "solve": lambda n: solve(*PAIR, n),
        "minimal_form": lambda n: minimal_form(ReprData(*PAIR), n),
    }
    times: dict = {name: {} for name in calls}
    for name, call in calls.items():
        for order in ORDERS:
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                call(order)
                samples.append(time.perf_counter() - t0)
            times[name][str(order)] = samples
    return times


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=PATH")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure(args.repeats)))
        return 0
    if not args.tree or args.out is None:
        parser.error("give at least one --tree and --out")
    trees = dict(spec.split("=", 1) for spec in args.tree)
    pooled = {name: {} for name in trees}
    for r in range(args.rounds):
        for name in reversed(trees) if r % 2 else trees:
            path = trees[name]
            out = subprocess.run(
                [sys.executable, __file__, "--worker", "--repeats", str(args.repeats)],
                env={"PYTHONPATH": str(Path(path).resolve() / "src")},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for fn, by_order in json.loads(out).items():
                for order, samples in by_order.items():
                    pooled[name].setdefault(fn, {}).setdefault(order, []).extend(samples)
    results = {
        name: {
            fn: {order: summary(s) for order, s in by_order.items()}
            for fn, by_order in fns.items()
        }
        for name, fns in pooled.items()
    }
    base, *others = trees
    speedup = {
        name: {
            fn: {
                order: results[base][fn][order]["median"] / stats["median"]
                for order, stats in by_order.items()
            }
            for fn, by_order in results[name].items()
        }
        for name in others
    }
    record = {
        "script": "scripts/bench_orders.py",
        "pair": list(PAIR),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": args.rounds,
        "repeats": args.repeats,
        "unit": "s",
        "trees": results,
        "speedup": speedup,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(speedup, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

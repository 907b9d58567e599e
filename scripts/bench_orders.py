"""Time solve(7, 1, N), minimal_form and solve(9, 38, N) at N = 60, 120 and 240
across checkouts.

Usage, from the root of a checkout:

    python3 scripts/bench_orders.py --tree before=PATH --tree after=. --out BENCH_11.json

Each ``--tree NAME=PATH`` names a checkout whose ``src/`` holds the
package.  Every round runs one fresh process per tree, in turn, so the
trees share the machine's state; every other round runs them in reverse
order, so no tree always runs first (with a fixed order, swapping two
trees flipped which one read faster).  Each process warms up with
``solve(7, 1, 30)`` and then times ``--repeats`` calls of each function
at each order.  ``solve_raised`` is solve(9, 38, N), which raises the
minimal form four times.  ``hypergeometric.base_forms`` is cached per
order within a process, so in a tree that has the cache every timed call
after the first at an order reads the cached base forms: the warm-up
fills only order 30, ``solve`` and ``minimal_form`` share order N, and
``solve_raised`` builds its own at N + 4.  The JSON records, per tree,
function and order, the median and quartiles of the pooled wall times
in seconds, with the Python version and the platform.  ``speedup``
compares the first
tree with each other tree in two ways: ``pooled`` divides the medians of
the pooled times, and ``paired`` gives the median and quartiles, over the
rounds, of the first tree's median in a round divided by the other
tree's in the same round, so a round in which the whole machine ran slow
moves both sides of its ratio.  Paths are not recorded, only the names.
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
RAISED_PAIR = (9, 38)


def measure(repeats: int) -> dict:
    """Wall times of ``repeats`` calls per function and order, in this process."""
    from schwarzian import minimal_form, ReprData, solve

    solve(*PAIR, 30)
    calls = {
        "solve": lambda n: solve(*PAIR, n),
        "minimal_form": lambda n: minimal_form(ReprData(*PAIR), n),
        "solve_raised": lambda n: solve(*RAISED_PAIR, n),
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
    runs: dict = {name: [] for name in trees}  # one worker's times per round
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
            runs[name].append(json.loads(out))
    results = {
        name: {
            fn: {
                order: summary([t for run in tree_runs for t in run[fn][order]])
                for order in by_order
            }
            for fn, by_order in tree_runs[0].items()
        }
        for name, tree_runs in runs.items()
    }
    base, *others = trees

    def paired(name: str, fn: str, order: str) -> dict:
        """Per-round ratios of the base tree's median to ``name``'s."""
        return summary([
            statistics.median(b[fn][order]) / statistics.median(o[fn][order])
            for b, o in zip(runs[base], runs[name])
        ])

    speedup = {
        name: {
            fn: {
                order: {
                    "pooled": results[base][fn][order]["median"] / stats["median"],
                    "paired": paired(name, fn, order),
                }
                for order, stats in by_order.items()
            }
            for fn, by_order in results[name].items()
        }
        for name in others
    }
    record = {
        "script": "scripts/bench_orders.py",
        "pair": list(PAIR),
        "raised_pair": list(RAISED_PAIR),
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

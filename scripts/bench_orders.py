"""Time solve(7, 1, N), minimal_form and solve(9, 38, N) at N = 60, 120 and 240,
solve(7, 1, 480), solve(7, 7r + 1, 10) at r = 100, 200, 400 and 1600,
``schwarzian verify --m 7 --n 7r+1 --terms 10`` at r = 50, 100 and 200,
cold base_forms, solve and acceptance battery calls, and fresh interpreters
that import the package or run one CLI solve, across checkouts.

Usage, from the root of a checkout:

    python3 scripts/bench_orders.py --tree before=PATH --tree after=. --out BENCH_29.json

Each ``--tree NAME=PATH`` names a checkout whose ``src/`` holds the
package.  Every round runs one fresh process per tree, in turn, so the
trees share the machine's state; every other round runs them in reverse
order, so no tree always runs first (with a fixed order, swapping two
trees flipped which one read faster).  Each process warms up with
``solve(7, 1, 30)``; every call after that, up to the cold cells, is a
warm call.  It then times ``--repeats`` calls of each function at N = 60,
120 and 240, and one call of each long cell: ``solve`` at N = 480 and
``solve_sweep``, solve(7, 7r + 1, 10) with r raises, keyed by r.  A sweep
cell is skipped, and so absent from that process's times, when the
previous cell's time scaled by the cube of the ratio of their raises
exceeds ``SWEEP_BUDGET_S``: a tree whose raised pairs cost about r^3 would
spend many minutes on it (solve(7, 2801, 10) took 11.8 s in a tree that
raised both components, so r = 1600 would take about 13 minutes).
``verify_sweep`` is one in-process ``cli.main(["verify", "--m", "7",
"--n", str(7r + 1), "--terms", "10"])`` per r, its output discarded, with
the same skip: ``verify`` raises both components r times, the first from
order 10 + r, so it still costs about r^3.  It reaches the package only
through the command line, so a tree from before the command's internals
moved times the same call.
``solve_raised`` is solve(9, 38, N), which raises the minimal form four
times.  ``hypergeometric.base_forms`` is cached per order within a
process, so in a tree that has the cache every timed call after the
first at an order reads the cached base forms: the warm-up fills only
order 30, ``solve``, ``minimal_form`` and ``solve_raised`` share order N,
each ``solve_sweep`` cell reads order 10, and each ``verify_sweep`` cell
builds its own at 10 + r.

The cold cells run last, and each of their ``--repeats`` calls starts
from an empty ``base_forms`` cache (emptied outside the timed call):
``base_forms_cold`` is ``hypergeometric.base_forms(N)`` at N = 60 and
240, ``solve_cold`` is solve(9, 4, 60), keyed by its order, and
``run_all`` is one ``acceptance.run_all()``, the ``selftest`` battery,
keyed "battery".  A cold ``solve`` costs what the first ``solve`` at its
order costs in a fresh process, as in every CLI run.

The fresh cells time whole processes from outside, ``--repeats`` of each
per tree per round, right after that tree's worker and keyed "process":
``import_cold`` is ``python -c "import schwarzian"`` and
``cli_solve_cold`` is ``python -m schwarzian solve --m 7 --n 1 --terms 40
--format json``, its output discarded.  Like the workers they run under
the caller's environment with ``PYTHONPATH`` set on top, so every tree
reads or compiles its bytecode alike: with ``PYTHONDONTWRITEBYTECODE``
set, a tree exported without ``__pycache__`` compiles the package in
every process, as ``perfbench`` set-up does.

The JSON records, per tree, function and cell, two summaries of the wall
times in seconds, with the Python version and the platform: ``pooled``,
the median and quartiles of every call of every process, and
``fastest``, the median and quartiles over processes of each process's
fastest call; a cell absent from any of a tree's processes is left out
of that tree.  On a shared host a process's fastest call moves far less
than the pooled median, so ``fastest`` is the one to read; a long cell's
one call is its fastest, so its two summaries agree.  ``speedup``
compares the first tree with each other tree three ways: ``pooled`` and
``fastest`` divide the two summaries' medians, and ``paired`` gives the
median and quartiles, over the rounds, of the first tree's fastest call
in a round divided by the other tree's in the same round, so a round in
which the whole machine ran slow moves both sides of its ratio, over the
cells that both trees timed.  Paths are not recorded, only the names.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ORDERS = (60, 120, 240)
PAIR = (7, 1)
RAISED_PAIR = (9, 38)
LONG_ORDER = 480
SWEEP = (100, 200, 400, 1600)  # raises r of solve(7, 7r + 1, 10)
VERIFY_SWEEP = (50, 100, 200)  # raises r of verify --m 7 --n 7r+1 --terms 10
SWEEP_BUDGET_S = 120.0  # predicted seconds above which a sweep cell is skipped
COLD_ORDERS = (60, 240)  # base_forms(N) from an empty cache
COLD_SOLVE = (9, 4, 60)
FRESH = {  # interpreter arguments of each fresh-process cell
    "import_cold": ["-c", "import schwarzian"],
    "cli_solve_cold": [
        "-m", "schwarzian", "solve", "--m", "7", "--n", "1", "--terms", "40", "--format", "json",
    ],
}


def measure(repeats: int) -> dict:
    """Wall times of the calls of every cell, in this process."""
    from schwarzian import ReprData, acceptance, cli, hypergeometric, minimal_form, solve

    solve(*PAIR, 30)
    cells = [
        (name, str(order), partial(call, order), repeats, False)
        for name, call in (
            ("solve", lambda n: solve(*PAIR, n)),
            ("minimal_form", lambda n: minimal_form(ReprData(*PAIR), n)),
            ("solve_raised", lambda n: solve(*RAISED_PAIR, n)),
        )
        for order in ORDERS
    ]
    cells.append(("solve", str(LONG_ORDER), partial(solve, *PAIR, LONG_ORDER), 1, False))
    cold_cells = [
        ("base_forms_cold", str(n), partial(hypergeometric.base_forms, n), repeats, True)
        for n in COLD_ORDERS
    ]
    cold_cells.append(
        ("solve_cold", str(COLD_SOLVE[2]), partial(solve, *COLD_SOLVE), repeats, True)
    )
    cold_cells.append(("run_all", "battery", acceptance.run_all, repeats, True))
    times: dict = {}

    def run(cells) -> None:
        for name, key, call, count, cold in cells:
            samples = []
            for _ in range(count):
                if cold:
                    hypergeometric.base_forms.cache_clear()
                t0 = time.perf_counter()
                call()
                samples.append(time.perf_counter() - t0)
            times.setdefault(name, {})[key] = samples

    def sweep(name: str, raises, call) -> None:
        """One call of ``call(r)`` per r, up to the first skipped cell."""
        last = None  # (r, seconds) of the previous cell
        for r in raises:
            if last and last[1] * (r / last[0]) ** 3 > SWEEP_BUDGET_S:
                break
            run([(name, str(r), partial(call, r), 1, False)])
            last = r, times[name][str(r)][0]

    def verify(r: int) -> None:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.main(["verify", "--m", "7", "--n", str(7 * r + 1), "--terms", "10"])

    run(cells)
    sweep("solve_sweep", SWEEP, lambda r: solve(7, 7 * r + 1, 10))
    sweep("verify_sweep", VERIFY_SWEEP, verify)
    run(cold_cells)
    return times


def fresh(env: dict, repeats: int) -> dict:
    """Wall times of ``repeats`` fresh interpreters per FRESH cell, each
    timed from outside, from start to exit."""
    times = {}
    for name, argv in FRESH.items():
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, *argv], env=env, stdout=subprocess.DEVNULL, check=True
            )
            samples.append(time.perf_counter() - t0)
        times[name] = {"process": samples}
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
    if args.rounds < 2:
        parser.error("give at least 2 --rounds, so each cell has quartiles")
    trees = dict(spec.split("=", 1) for spec in args.tree)
    runs: dict = {name: [] for name in trees}  # one worker's times per round
    for r in range(args.rounds):
        for name in reversed(trees) if r % 2 else trees:
            env = {**os.environ, "PYTHONPATH": str(Path(trees[name]).resolve() / "src")}
            out = subprocess.run(
                [sys.executable, __file__, "--worker", "--repeats", str(args.repeats)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            runs[name].append(json.loads(out) | fresh(env, args.repeats))
    results = {
        name: {
            fn: {
                cell: {
                    "pooled": summary([t for run in tree_runs for t in run[fn][cell]]),
                    "fastest": summary([min(run[fn][cell]) for run in tree_runs]),
                }
                for cell in by_cell
                if all(cell in run[fn] for run in tree_runs)
            }
            for fn, by_cell in tree_runs[0].items()
        }
        for name, tree_runs in runs.items()
    }
    base, *others = trees

    def paired(name: str, fn: str, cell: str) -> dict:
        """Per-round ratios of the base tree's fastest call to ``name``'s."""
        return summary([
            min(b[fn][cell]) / min(o[fn][cell])
            for b, o in zip(runs[base], runs[name])
        ])

    speedup = {
        name: {
            fn: {
                cell: {
                    kind: results[base][fn][cell][kind]["median"] / stats[kind]["median"]
                    for kind in ("pooled", "fastest")
                }
                | {"paired": paired(name, fn, cell)}
                for cell, stats in by_cell.items()
                if cell in results[base][fn]
            }
            for fn, by_cell in results[name].items()
        }
        for name in others
    }
    record = {
        "script": "scripts/bench_orders.py",
        "pair": list(PAIR),
        "raised_pair": list(RAISED_PAIR),
        "long_order": LONG_ORDER,
        "sweep": {
            "raises": list(SWEEP),
            "call": "solve(7, 7r + 1, 10)",
            "skip_budget_s": SWEEP_BUDGET_S,
        },
        "verify_sweep": {
            "raises": list(VERIFY_SWEEP),
            "call": 'cli.main(["verify", "--m", "7", "--n", str(7r + 1), "--terms", "10"])',
            "skip_budget_s": SWEEP_BUDGET_S,
        },
        "cold": {
            "base_forms_cold": list(COLD_ORDERS),
            "solve_cold": list(COLD_SOLVE),
            "run_all": "acceptance.run_all()",
        },
        "fresh": {name: shlex.join(["python", *argv]) for name, argv in FRESH.items()},
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

"""One workload in one fresh, single-threaded Python process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace | --setup-only]

Set-up imports the package and prepares the workload's inputs.  The
package is imported before any module of the benchmark, so set-up pays
for every module the package needs; the benchmark's own imports and
argument parsing are timed and left out of set-up.  ``ready`` in the
output line is CLOCK_MONOTONIC at the end of set-up less that harness
time, so the process that started the worker can time set-up from
outside.

The worker then runs whole rounds of operations, one at a time, until
``--seconds`` have passed, checks every output against ``oracles``
outside the timed region, and prints one JSON line.  With ``--trace``
every operation runs under the tracer and the per-layer figures are
added to the line.  Times are reported in host-normalized seconds (see
``HostSpeed``).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import schwarzian  # noqa: E402

PACKAGE_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_S = 0.010  # calibration time that defines host-normalized seconds
SAMPLE_EVERY_S = 0.25
WINDOW_S = 1.5  # calibrations this close to an operation set its scale
CALIBRATIONS_AFTER_SETUP = 5
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def calibrate() -> None:
    """Fixed exact-rational work of the package's own kind, none of its code."""
    oracles.frobenius_h(9, 2, 36)


class HostSpeed:
    """Times ``calibrate`` every SAMPLE_EVERY_S seconds from a SIGALRM handler.

    The speed of a shared host drifts by up to 2x over tens of seconds.
    An operation's time scaled by REFERENCE_S over the calibration times
    sampled during and around it is in host-normalized seconds: a change to
    the package moves it, host drift mostly does not.  The handler's own
    time is counted in ``stolen`` and taken out of the operation's time,
    and ``on_sample`` lets a tracer take it out of the open span.
    """

    def __init__(self, on_sample: Callable[[float], None] | None = None) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0
        self.on_sample = on_sample

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.stolen += t1 - t0
        if self.on_sample:
            self.on_sample(t1 - t0)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _at(self, t: float) -> float:
        """REFERENCE_S over the median calibration time within WINDOW_S of t."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        near = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return REFERENCE_S / statistics.median(near)

    def factor(self, start: float, end: float) -> float:
        """Time average of the local factor over [start, end], one point per period,
        so a long operation is scaled by the host speed it actually ran at."""
        steps = max(1, math.ceil((end - start) / SAMPLE_EVERY_S))
        width = (end - start) / steps
        return statistics.fmean(self._at(start + (k + 0.5) * width) for k in range(steps))


def setup_factor() -> float:
    """REFERENCE_S over the median of a few calibrations right after set-up."""
    host = HostSpeed()
    for _ in range(CALIBRATIONS_AFTER_SETUP):
        host.sample()
    return REFERENCE_S / statistics.median(host.samples)


def run_op(op: workloads.Op, host: HostSpeed) -> workloads.Record:
    if op.prepare:
        op.prepare()
    stolen = host.stolen
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0 - (host.stolen - stolen)
    return workloads.Record(op, t0, seconds, result, error)


def measure(workload, seconds: float, tracer) -> tuple[list[list[workloads.Record]], list[int], HostSpeed]:
    """Whole rounds until ``seconds`` have passed, sampling the host's speed.

    With a tracer, every operation runs under it, and the tracer's span
    count at the start of each round is returned alongside the rounds.
    """
    rounds: list[list[workloads.Record]] = []
    marks: list[int] = []
    host = HostSpeed(on_sample=tracer.exclude if tracer else None)
    start = time.perf_counter()
    with host:
        while not rounds or time.perf_counter() - start < seconds:
            marks.append(len(tracer.spans) if tracer else 0)
            if tracer:
                tracer.install()
            try:
                rounds.append([run_op(op, host) for op in workload.next_round()])
            finally:
                if tracer:
                    tracer.uninstall()
    for rec in (r for rnd in rounds for r in rnd):
        rec.normalized = rec.seconds * host.factor(rec.start, rec.start + rec.seconds)
    return rounds, marks, host


def check(records: list[workloads.Record]) -> None:
    for rec in records:
        if rec.error is None:
            rec.failed, rec.problems = rec.op.check(rec.result)
        else:
            rec.failed = rec.op.attempts
            print(f"{rec.op.label}: {rec.error}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    harness_s = time.perf_counter() - PACKAGE_IMPORTED
    workload.setup(schwarzian)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC) - harness_s
    result = {"ready": ready, "setup_factor": setup_factor()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds, marks, host = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [r for rnd in rounds for r in rnd]
    check(records)
    problems = getattr(workload, "setup_problems", list)()
    problems += [p for r in records for p in r.problems]
    done = [r for r in records if r.error is None]
    headline = [r.normalized for r in done if r.op.headline]
    if not headline:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    result.update(
        attempted=sum(r.op.attempts for r in records),
        failed=sum(r.failed for r in records),
        op_s=statistics.median(headline),
        items_per_s=sum(r.op.items - r.failed for r in done) / sum(r.normalized for r in records),
        peak_rss_mb=peak_rss_mb,
        round_s=[sum(r.normalized for r in rnd) for rnd in rounds],
        round_failed=[[r.failed for r in rnd] for rnd in rounds],
        problems=problems,
    )
    op_label, items_label = workload.LABELS
    result["info"] = {op_label: result["op_s"], items_label: result["items_per_s"]}
    if args.workload == "numeric-eval" and len(done) >= P90_MIN_SAMPLES:
        result["info"]["eval_p90_s"] = statistics.quantiles([r.normalized for r in done], n=10)[-1]
    result["info"]["host_factor"] = statistics.median(r.normalized / r.seconds for r in records)
    if tracer:
        own = tracer.scaled_self_times(host.factor)
        result["layers"] = tracer.layer_metrics(own, host.factor)
        result["round_self_s"] = [sum(own[a:b]) for a, b in zip(marks, marks[1:] + [len(own)])]
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded inputs, operations and their checks.

Each workload hands the worker one round of operations at a time; a run
repeats whole rounds until its time is up.  An operation calls only the
package's public functions and looks them up at call time, so a tracer
installed around it sees every call.  Its check runs after the timed
region and compares the output with ``oracles``, never with stored copies
of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Any, Callable

import oracles

SOLVE_ORDER = 60  # solve-minimal top order; each pair is also solved at half of it
RAISED_ORDER = 30
MINIMAL_MS = (7, 9, 11, 13)  # one seeded n per m in every round
RAISED_STEPS = (4, 5, 6, 7, 8)
RAISED_MS = (9, 13, 7, 12, 10)  # paired with RAISED_STEPS in every round
NUMERIC_BANDS = ((7, 8), (9, 10), (11, 13))  # one seeded set-up pair per band
NUMERIC_SETUP_ORDER = 30
NUMERIC_TERMS = 60  # eval_h_hypergeometric's default
PRECISIONS = (None, 200)  # complex doubles, then 200 bits
SELFTEST_CHECKS = (
    "classical-identities",
    "minimal-form-shape",
    "wronskian-delta-power",
    "raising-constants",
    "schwarzian-proportionality",
    "ode-solutions",
    "numeric-cross-check",
    "seeded-bug-sensitivity",
)
KNOWN_FAULT_TAU = 0.3 + 1.2j  # |1728/j| = 1.0176: eval_h_hypergeometric has no continuation


@dataclass
class Op:
    """One request of the closed-loop client."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[int, list[str]]]  # -> (failed checks inside, problems)
    items: int  # verified output items: h coefficients, evaluations or selftest checks
    headline: bool = True  # counts toward op_s
    attempts: int = 1
    prepare: Callable[[], None] | None = None


@dataclass
class Record:
    op: Op
    start: float
    seconds: float  # wall time less the calibration samples taken inside it
    result: Any = None
    error: str | None = None
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    normalized: float = 0.0  # host-normalized seconds


def coprime_residues(m: int) -> list[int]:
    return [n for n in range(1, m) if gcd(m, n) == 1]


def _solve_op(pkg, m: int, n: int, order: int, headline: bool) -> Op:
    return Op(
        label=f"solve({m},{n},{order})",
        call=lambda: pkg.solve(m, n, order),
        check=lambda bundle: (0, oracles.check_solution(bundle, m, n, order)),
        items=order,
        headline=headline,
    )


class SolveMinimal:
    """solve(m, n, 60) and solve(m, n, 30) for one seeded n < m per m in MINIMAL_MS."""

    LABELS = ("solve_s", "coeffs_per_s")  # names of op_s and items_per_s on the human-readable line

    def __init__(self, seed: int):
        self.rng = random.Random(f"solve-minimal:{seed}")

    def setup(self, pkg) -> None:
        self.pkg = pkg

    def next_round(self) -> list[Op]:
        ops = []
        for m in MINIMAL_MS:
            n = self.rng.choice(coprime_residues(m))
            ops.append(_solve_op(self.pkg, m, n, SOLVE_ORDER, True))
            ops.append(_solve_op(self.pkg, m, n, SOLVE_ORDER // 2, False))
        return ops


class SolveRaised:
    """solve(m, r m + n', 30) with seeded n' < m, for fixed (r, m) strata.

    Every round, and so every seed and every run length, has the same mix of
    raising steps and denominators; only n' varies.
    """

    LABELS = ("solve_s", "coeffs_per_s")

    def __init__(self, seed: int):
        self.rng = random.Random(f"solve-raised:{seed}")

    def setup(self, pkg) -> None:
        self.pkg = pkg

    def next_round(self) -> list[Op]:
        ops = []
        for r, m in zip(RAISED_STEPS, RAISED_MS):
            n = r * m + self.rng.choice(coprime_residues(m))
            ops.append(_solve_op(self.pkg, m, n, RAISED_ORDER, True))
        return ops


class NumericEval:
    """Two-route evaluations of three pre-solved h at seeded tau, doubles and 200 bits."""

    LABELS = ("eval_s", "evals_per_s")

    def __init__(self, seed: int):
        self.rng = random.Random(f"numeric-eval:{seed}")
        self.pairs = [
            (m, self.rng.choice(coprime_residues(m)))
            for m in (self.rng.randint(lo, hi) for lo, hi in NUMERIC_BANDS)
        ]
        self.taus = oracles.tau_stream(self.rng)  # lazy: draws after the pairs

    def setup(self, pkg) -> None:
        self.pkg = pkg
        self.solved = {p: pkg.solve(*p, NUMERIC_SETUP_ORDER) for p in self.pairs}

    def setup_problems(self) -> list[str]:
        return [
            problem
            for (m, n), bundle in self.solved.items()
            for problem in oracles.check_solution(bundle, m, n, NUMERIC_SETUP_ORDER)
        ]

    def next_round(self) -> list[Op]:
        return [
            self._op(m, n, next(self.taus), bits)
            for m, n in self.pairs
            for bits in PRECISIONS
        ]

    def _op(self, m: int, n: int, tau: complex, bits: int | None) -> Op:
        numeric = self.pkg.numeric
        h = self.solved[(m, n)].h

        def call():
            return (
                numeric.eval_qseries(h, tau, precision=bits),
                numeric.eval_h_hypergeometric(m, n, tau, NUMERIC_TERMS, precision=bits),
            )

        def check(values):
            via_series, via_closed = values
            eps = 1e-11 if bits is None else 2.0 ** (16 - bits)
            ref_bits = (bits or 53) + 40
            reference, hyp_tail = oracles.closed_form(m, n, tau, ref_bits, NUMERIC_TERMS)
            where = f"({m},{n}) tau={tau} bits={bits}"
            problems = []
            err = oracles.relative_error(via_series, reference, ref_bits)
            bound = eps + oracles.series_tail(h.body.coeffs, tau)
            if not err <= bound:
                problems.append(f"{where}: eval_qseries off by {err:.3e} > {bound:.3e}")
            err = oracles.relative_error(via_closed, reference, ref_bits)
            bound = eps + 4 * hyp_tail
            if not err <= bound:
                problems.append(f"{where}: eval_h_hypergeometric off by {err:.3e} > {bound:.3e}")
            shifted = numeric.eval_qseries(h, tau + 1, precision=bits)
            phase = oracles.relative_error(
                shifted, reference * oracles.unit_root(n, m, ref_bits), ref_bits
            )
            if not phase <= 10 * eps + oracles.series_tail(h.body.coeffs, tau):
                problems.append(f"{where}: h(tau+1) != e^(2 pi i n/m) h(tau), off by {phase:.3e}")
            return 0, problems

        return Op(label=f"eval({m},{n},{tau},{bits})", call=call, check=check, items=1)


class Selftest:
    """One cold cli.main(["selftest", "--format", "json"]); its 8 checks are the operations."""

    LABELS = ("selftest_s", "checks_per_s")

    def __init__(self, seed: int):
        del seed  # the battery's inputs are its own

    def setup(self, pkg) -> None:
        import schwarzian.acceptance
        import schwarzian.cli

        self.pkg = pkg

    def next_round(self) -> list[Op]:
        acceptance = self.pkg.acceptance
        cold = []

        def prepare():
            acceptance._solved.cache_clear()
            cold.append(acceptance._solved.cache_info().currsize == 0)

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.pkg.cli.main(["selftest", "--format", "json"])
            return code, out.getvalue()

        def check(result):
            failed, problems = _check_selftest(*result)
            if not all(cold):
                problems.append("acceptance._solved was not empty at the start")
            return failed, problems

        return [
            Op(
                label="selftest",
                call=call,
                check=check,
                items=len(SELFTEST_CHECKS),
                attempts=len(SELFTEST_CHECKS),
                prepare=prepare,
            )
        ]


def _check_selftest(code: int, text: str) -> tuple[int, list[str]]:
    payload = json.loads(text)
    checks = payload["checks"]
    names = [c["name"] for c in checks]
    failing = [c for c in checks if not c["pass"]]
    problems = []
    if names != list(SELFTEST_CHECKS):
        problems.append(f"selftest ran {names}")
    if payload["results"] != {"passed": len(checks) - len(failing), "failed": len(failing)}:
        problems.append(f"selftest counts {payload['results']} disagree with its checks")
    if code != (1 if failing else 0):
        problems.append(f"selftest exit status {code} with {len(failing)} failing checks")
    for c in failing:
        if c["name"] == "numeric-cross-check":
            problems += _known_fault_problems(c["detail"])
    return len(failing), problems


def _known_fault_problems(detail: str) -> list[str]:
    """numeric-cross-check may fail only by refusing tau = 0.3+1.2i for all three pairs."""
    problems = []
    if not detail.startswith("3 failing point(s) of 9;"):
        problems.append(f"numeric-cross-check: {detail[:80]}")
    if detail.count(f"tau={KNOWN_FAULT_TAU}: OutsideDisk") != 3:
        problems.append("numeric-cross-check: failures are not the three OutsideDisk refusals")
    errors = [float(part.split("rel_error=")[1].split()[0]) for part in detail.split(";") if "rel_error=" in part]
    if len(errors) != 6 or max(errors) >= 1e-9:
        problems.append(f"numeric-cross-check: in-disk errors {errors}")
    if oracles.klein_z(KNOWN_FAULT_TAU) < 1:
        problems.append("numeric-cross-check: tau = 0.3+1.2i is inside the disk after all")
    return problems


WORKLOADS = {
    "solve-minimal": SolveMinimal,
    "solve-raised": SolveRaised,
    "numeric-eval": NumericEval,
    "selftest": Selftest,
}

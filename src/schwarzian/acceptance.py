"""Acceptance checks: every headline identity, re-derived and timed.

Each criterion function returns a CheckResult; ``run_all`` runs the full
battery in order.  These are the same checks the test suite and the CLI
``selftest`` subcommand run — one place defines what "working" means.

The numeric cross-check criterion evaluates the closed hypergeometric form
on the interior of the fundamental domain (|Re tau| < 1/2, |tau| > 1),
where its principal branches represent h.  Its grid includes
tau = 0.3 + 1.2i, where |1728/j(tau)| ~ 1.0176 lies outside the disk of
the 2F1 Taylor series, so that point exercises the analytically continued
evaluation.
"""

from __future__ import annotations

import cmath
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import forms, hypergeometric, numeric, solver, vvmf
from .errors import OutsideDisk, VerificationError
from .series import PuiseuxSeries, QSeries

SHAPE_GRID = ((7, 1), (7, 2), (7, 3), (8, 3), (9, 2), (11, 5), (12, 5))
SOLVE_GRID = ((7, 1), (7, 2), (7, 6), (8, 3), (9, 2), (7, 9), (7, 16), (11, 13))
NUMERIC_GRID = ((7, 1), (8, 3), (9, 2))
NUMERIC_TAUS = (2j, 1.5j, 0.3 + 1.2j)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _solved(m: int, n: int, order: int) -> solver.SolutionBundle:
    return solver.solve(m, n, order)


def check_classical_identities(order: int = 100, budget: float = 10.0) -> CheckResult:
    """Eisenstein/eta/discriminant identities, exact through ``order``."""
    t0 = time.perf_counter()
    problems: list[str] = []
    e4 = forms.eisenstein(4, order)
    e6 = forms.eisenstein(6, order)
    delta = forms.delta(order)  # internally compares its two routes

    if not forms.serre_derivative(e4, 4) == e6 * Fraction(-1, 3):
        problems.append("serre(E4) != -E6/3")
    if not forms.serre_derivative(e6, 6) == e4 * e4 * Fraction(-1, 2):
        problems.append("serre(E6) != -E4^2/2")
    if not forms.serre_derivative(delta, 12).is_zero():
        problems.append("serre(Delta) != 0")
    if not e4**3 - e6**2 == delta * 1728:
        problems.append("E4^3 - E6^2 != 1728 Delta")
    if not forms.j_inverse(order) * e4**3 == delta * 1728:
        problems.append("(1728/j) E4^3 != 1728 Delta")

    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        problems.append(f"took {elapsed:.2f}s > {budget:g}s")
    detail = f"order {order}, {elapsed:.2f}s"
    if problems:
        detail += "; " + "; ".join(problems)
    return CheckResult("classical-identities", not problems, detail)


def check_minimal_form_shape(order: int = 40) -> CheckResult:
    """Minimal vector forms have weight 5 and exponents (m +- n')/2m."""
    problems: list[str] = []
    for m, n_prime in SHAPE_GRID:
        rep = vvmf.ReprData(m, n_prime)
        form = vvmf.minimal_form(rep, order)
        lead1 = form.first.leading
        lead2 = form.second.leading
        checks = [
            (form.weight == 5, "weight != 5"),
            (form.first.offset == Fraction(m + n_prime, 2 * m), "first exponent"),
            (form.second.offset == Fraction(m - n_prime, 2 * m), "second exponent"),
            (lead1 == 1 and lead2 == 1, "leading coefficients"),
            (form.first.offset + form.second.offset == 1, "exponent sum"),
        ]
        for ok, what in checks:
            if not ok:
                problems.append(f"({m},{n_prime}): {what}")
    detail = f"{len(SHAPE_GRID)} pairs at order {order}"
    if problems:
        detail += "; " + "; ".join(problems)
    return CheckResult("minimal-form-shape", not problems, detail)


def check_wronskian_delta_power(order: int = 40) -> CheckResult:
    """Wronskian = c Delta at level 0, = c' Delta^2 after one raise."""
    problems: list[str] = []
    for m, n_prime in SHAPE_GRID:
        rep = vvmf.ReprData(m, n_prime)
        form = vvmf.minimal_form(rep, order)
        try:
            c0, e0 = vvmf.wronskian_check(form)
            if (c0, e0) != (Fraction(n_prime, m), 1):
                problems.append(
                    f"({m},{n_prime}): level 0 gave c={c0}, e={e0}, "
                    f"expected c={Fraction(n_prime, m)}, e=1"
                )
            raised = vvmf.raise_weight(form)
            c1, e1 = vvmf.wronskian_check(raised)
            if e1 != 2 or c1 == 0:
                problems.append(f"({m},{n_prime}): level 1 gave c={c1}, e={e1}")
        except VerificationError as exc:
            problems.append(f"({m},{n_prime}): {type(exc).__name__}: {exc}")
    detail = f"{len(SHAPE_GRID)} pairs, levels 0 and 1, order {order}"
    if problems:
        detail += "; " + "; ".join(problems)
    return CheckResult("wronskian-delta-power", not problems, detail)


def check_raising_constants(order: int = 40) -> CheckResult:
    """Second-component raising ratio matches 12n'/(m+6n') exactly.

    The analogous first-component ratio is compared against the closed-form
    candidate ``vvmf.c1_closed_form_candidate`` and the comparison is
    reported either way; agreement there is informational, not required,
    because the computed series value is the ground truth.
    """
    problems: list[str] = []
    notes: list[str] = []
    for m, n_prime in SHAPE_GRID:
        rep = vvmf.ReprData(m, n_prime)
        form = vvmf.minimal_form(rep, order)
        c1, c2 = vvmf.raising_constants(form)
        expected_c2 = vvmf.c2_closed_form(m, n_prime)
        if c2 != expected_c2:
            problems.append(
                f"({m},{n_prime}): c2={c2} != closed form {expected_c2}"
            )
        candidate = vvmf.c1_closed_form_candidate(m, n_prime)
        verdict = "agrees" if c1 == candidate else "DISAGREES"
        notes.append(f"({m},{n_prime}) c1={c1} candidate={candidate} {verdict}")
    detail = "c2 exact on all pairs; " + "; ".join(notes)
    if problems:
        detail = "; ".join(problems) + "; " + "; ".join(notes)
    return CheckResult("raising-constants", not problems, detail)


def check_schwarzian_proportionality(
    order: int = 40, budget: float = 30.0
) -> CheckResult:
    """solve() verifies {h} = -(1/2)(n/m)^2 E4 on the whole grid."""
    t0 = time.perf_counter()
    problems: list[str] = []
    for m, n in SOLVE_GRID:
        try:
            bundle = _solved(m, n, order)
        except VerificationError as exc:
            problems.append(f"({m},{n}): {type(exc).__name__}: {exc}")
            continue
        expected = -Fraction(n, m) ** 2 / 2
        if bundle.schwarz_constant != expected:
            problems.append(
                f"({m},{n}): constant {bundle.schwarz_constant} != {expected}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        problems.append(f"took {elapsed:.2f}s > {budget:g}s")
    detail = f"{len(SOLVE_GRID)} pairs at order {order}, {elapsed:.2f}s"
    if problems:
        detail += "; " + "; ".join(problems)
    return CheckResult("schwarzian-proportionality", not problems, detail)


def check_ode_solutions(order: int = 40) -> CheckResult:
    """y1, y2 from each solved h satisfy D^2 y + s E4 y = 0, s = -(n/2m)^2."""
    problems: list[str] = []
    for m, n in SOLVE_GRID:
        try:
            bundle = _solved(m, n, order)
            expected = -Fraction(n, 2 * m) ** 2
            if bundle.ode_parameter != expected:
                problems.append(
                    f"({m},{n}): s={bundle.ode_parameter} != {expected}"
                )
            y1, y2 = solver.ode_solutions(bundle.h)
            solver.verify_ode(y1, bundle.ode_parameter)
            solver.verify_ode(y2, bundle.ode_parameter)
            if not (y1 / y2) == bundle.h:
                problems.append(f"({m},{n}): y1/y2 != h")
        except VerificationError as exc:
            problems.append(f"({m},{n}): {type(exc).__name__}: {exc}")
    detail = f"{len(SOLVE_GRID)} pairs at order {order}"
    if problems:
        detail += "; " + "; ".join(problems)
    return CheckResult("ode-solutions", not problems, detail)


def check_numeric_cross_check(
    n_terms: int = 60, tolerance: float = 1e-9, phase_tolerance: float = 1e-8
) -> CheckResult:
    """Series and closed hypergeometric evaluations of h agree on the grid.

    Every grid point lies inside the fundamental domain, where the closed
    form is defined on both sides of |1728/j| = 1; a point the evaluator
    refuses (OutsideDisk) is reported with the reason and counts as a
    failure.  Phase equivariance h(tau+1) = exp(2 pi i n/m) h(tau) is
    checked on the series route at every grid point.
    """
    lines: list[str] = []
    failures = 0
    for m, n in NUMERIC_GRID:
        bundle = _solved(m, n, n_terms)
        for tau in NUMERIC_TAUS:
            try:
                report = numeric._cross_check_bundle(bundle, tau, n_terms)
                ok = report.rel_error < tolerance
                lines.append(
                    f"({m},{n}) tau={tau}: rel_error={report.rel_error:.3e}"
                    + ("" if ok else f" exceeds {tolerance:g}")
                )
                failures += 0 if ok else 1
            except OutsideDisk as exc:
                lines.append(f"({m},{n}) tau={tau}: OutsideDisk ({exc})")
                failures += 1
            # phase equivariance on the series route, all points
            a = numeric.eval_qseries(bundle.h, tau)
            b = numeric.eval_qseries(bundle.h, tau + 1)
            phase = cmath.exp(2j * cmath.pi * n / m)
            drift = abs(b - phase * a) / max(abs(a), 1e-300)
            if drift >= phase_tolerance:
                failures += 1
                lines.append(
                    f"({m},{n}) tau={tau}: phase drift {drift:.3e} "
                    f"exceeds {phase_tolerance:g}"
                )
    detail = f"{failures} failing point(s) of {len(NUMERIC_GRID) * len(NUMERIC_TAUS)}; " + "; ".join(lines)
    return CheckResult("numeric-cross-check", failures == 0, detail)


@contextmanager
def _patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def _bumped_qseries(series: QSeries, index: int) -> QSeries:
    coeffs = list(series.coeffs)
    if index < len(coeffs):
        coeffs[index] += 1
    return QSeries(coeffs)


def check_seeded_bug_sensitivity(order: int = 40, max_index: int = 5) -> CheckResult:
    """Corrupting any early coefficient of a core ingredient must be caught.

    For each of three ingredient series — the weight-4 Eisenstein series,
    the 24th eta power, and the first hypergeometric component — bump one
    of the first five coefficients by 1 and run the full solve pipeline.
    The run must raise a VerificationError whose reported index is at most
    ``max_index``; silent success on any corruption fails this check.
    """
    problems: list[str] = []
    runs = 0

    def eisen_bug(index):
        original = forms.eisenstein

        def wrapper(k, n_coeffs):
            out = original(k, n_coeffs)
            if k == 4:
                out = _bumped_qseries(out, index)
            return out

        return wrapper

    def eta_bug(index):
        original = forms.eta_power

        def wrapper(exponent, order_):
            out = original(exponent, order_)
            if exponent == 24:
                out = PuiseuxSeries(out.offset, _bumped_qseries(out.body, index))
            return out

        return wrapper

    def hyper_bug(index):
        original = hypergeometric.hypergeom_coeffs
        fired = [False]

        def wrapper(params, n_terms):
            out = original(params, n_terms)
            if not fired[0]:
                fired[0] = True
                out = _bumped_qseries(out, index)
            return out

        return wrapper

    seams = [
        ("eisenstein-4", forms, "eisenstein", eisen_bug),
        ("eta-power-24", forms, "eta_power", eta_bug),
        ("hypergeometric", hypergeometric, "hypergeom_coeffs", hyper_bug),
    ]
    for label, module, attr, factory in seams:
        for index in range(5):
            runs += 1
            with _patched(module, attr, factory(index)):
                try:
                    solver.solve(7, 1, order)
                except VerificationError as exc:
                    where = exc.index
                    if where is None or where > max_index:
                        problems.append(
                            f"{label}[{index}]: {type(exc).__name__} at "
                            f"index {where}, beyond {max_index}"
                        )
                else:
                    problems.append(f"{label}[{index}]: corruption went undetected")
    detail = f"{runs} corrupted runs, all caught with index <= {max_index}"
    if problems:
        detail = "; ".join(problems)
    return CheckResult("seeded-bug-sensitivity", not problems, detail)


def run_all() -> list[CheckResult]:
    """Run every acceptance criterion in order and return the results."""
    return [
        check_classical_identities(),
        check_minimal_form_shape(),
        check_wronskian_delta_power(),
        check_raising_constants(),
        check_schwarzian_proportionality(),
        check_ode_solutions(),
        check_numeric_cross_check(),
        check_seeded_bug_sensitivity(),
    ]

"""Acceptance checks: every headline identity, re-derived and timed.

Each criterion function returns a CheckResult; ``run_all`` runs the full
battery in order.  These are the same checks the test suite and the CLI
``selftest`` subcommand run — one place defines what "working" means.
Criteria 2-5 apply one per-pair predicate each (``*_problems``) over
their grids; the CLI's ``verify`` and ``vvmf`` apply the same ones to
their own pair.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import forms, hypergeometric, numeric, solver, vvmf
from .errors import DivergentSeries, OutsideDisk, VerificationError
from .series import PuiseuxSeries, QSeries

SHAPE_GRID = ((7, 1), (7, 2), (7, 3), (8, 3), (9, 2), (11, 5), (12, 5))
SOLVE_GRID = ((7, 1), (7, 2), (7, 6), (8, 3), (9, 2), (7, 9), (7, 16), (11, 13))
NUMERIC_GRID = ((7, 1), (8, 3), (9, 2))
NUMERIC_TAUS = (2j, 1.5j, 0.3 + 1.2j)

CLASSICAL_ORDER = 100
CLASSICAL_BUDGET = 10.0  # seconds
ORDER = 40  # tracked coefficients in criteria 2-6 and 8
SOLVE_BUDGET = 30.0  # seconds, criterion 5
NUMERIC_TERMS = 60
NUMERIC_TOLERANCE = 1e-9
PHASE_TOLERANCE = 1e-8
MAX_BUG_INDEX = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verdict(name: str, detail: str, problems: list[str]) -> CheckResult:
    """Passes when ``problems`` is empty; the detail lists every problem."""
    return CheckResult(name, not problems, "; ".join([detail, *problems]))


def failure(exc: Exception) -> str:
    """How a check reports the error that stopped it: type and message."""
    return f"{type(exc).__name__}: {exc}"


def shape_problems(form: vvmf.VectorForm) -> list[str]:
    """How a minimal form misses weight 5, exponents (m +- n')/2m or unit leadings."""
    rep = form.rep
    checks = [
        (form.weight == 5, "weight != 5"),
        (form.first.offset == rep.exp_first, "first exponent"),
        (form.second.offset == rep.exp_second, "second exponent"),
        (form.first.leading == 1 and form.second.leading == 1, "leading coefficients"),
        (form.first.offset + form.second.offset == 1, "exponent sum"),
    ]
    return [what for ok, what in checks if not ok]


def wronskian_problems(
    rep: vvmf.ReprData, levels: list[tuple[Fraction, int]]
) -> list[str]:
    """How the Wronskian checks (c, e) of levels 0, 1, ... miss c Delta**(level+1).

    Every level needs c != 0 and e = level + 1; level 0 needs c = n'/m.
    """
    n_over_m = Fraction(rep.n_prime, rep.m)
    return [
        f"level {level} gave c={c}, e={e}"
        + (f", expected c={n_over_m}, e=1" if level == 0 else "")
        for level, (c, e) in enumerate(levels)
        if c == 0 or e != level + 1 or (level == 0 and c != n_over_m)
    ]


def raising_problems(rep: vvmf.ReprData, c1: Fraction, c2: Fraction) -> list[str]:
    """How the raising ratios c1, c2 at level 0 miss their closed forms."""
    want = (vvmf.c1_closed_form(rep.m, rep.n_prime), vvmf.c2_closed_form(rep.m, rep.n_prime))
    return [
        f"c{i}={c} != closed form {w}"
        for i, (c, w) in enumerate(zip((c1, c2), want), 1)
        if c != w
    ]


def schwarzian_problems(bundle: solver.SolutionBundle) -> list[str]:
    """How the solved {h} / E4 misses -(1/2)(n/m)^2."""
    expected = -Fraction(bundle.n, bundle.m) ** 2 / 2
    if bundle.schwarz_constant == expected:
        return []
    return [f"constant {bundle.schwarz_constant} != {expected}"]


@lru_cache(maxsize=None)
def _solved(m: int, n: int, order: int) -> solver.SolutionBundle:
    return solver.solve(m, n, order)


@lru_cache(maxsize=None)
def _minimal(m: int, n_prime: int) -> vvmf.VectorForm:
    """The minimal form of a SHAPE_GRID pair, shared by criteria 2-4."""
    return vvmf.minimal_form(vvmf.ReprData(m, n_prime), ORDER)


@lru_cache(maxsize=None)
def _raised(m: int, n_prime: int) -> vvmf.VectorForm:
    """That form raised once, shared by criteria 3 and 4."""
    return vvmf.raise_weight(_minimal(m, n_prime))


def _over(grid, problems_of) -> list[str]:
    """``problems_of(m, n)`` on every pair of ``grid``, each prefixed "(m,n): ".

    A VerificationError raised for a pair is that pair's problem.
    """
    problems = []
    for m, n in grid:
        try:
            found = problems_of(m, n)
        except VerificationError as exc:
            found = [failure(exc)]
        problems += [f"({m},{n}): {p}" for p in found]
    return problems


def check_classical_identities() -> CheckResult:
    """Eisenstein/eta/discriminant identities, exact through CLASSICAL_ORDER."""
    t0 = time.perf_counter()
    problems: list[str] = []
    try:
        e4 = forms.eisenstein(4, CLASSICAL_ORDER)
        e6 = forms.eisenstein(6, CLASSICAL_ORDER)
        delta = forms.delta(CLASSICAL_ORDER)  # internally compares its two routes

        if not forms.serre_derivative(e4, 4) == e6 * Fraction(-1, 3):
            problems.append("serre(E4) != -E6/3")
        if not forms.serre_derivative(e6, 6) == e4 * e4 * Fraction(-1, 2):
            problems.append("serre(E6) != -E4^2/2")
        if not forms.serre_derivative(delta, 12).is_zero():
            problems.append("serre(Delta) != 0")
        if not e4**3 - e6**2 == delta * 1728:
            problems.append("E4^3 - E6^2 != 1728 Delta")
        if not forms.j_inverse(CLASSICAL_ORDER) * e4**3 == delta * 1728:
            problems.append("(1728/j) E4^3 != 1728 Delta")
    except VerificationError as exc:
        problems.append(failure(exc))

    elapsed = time.perf_counter() - t0
    if elapsed > CLASSICAL_BUDGET:
        problems.append(f"took {elapsed:.2f}s > {CLASSICAL_BUDGET:g}s")
    detail = f"order {CLASSICAL_ORDER}, {elapsed:.2f}s"
    return verdict("classical-identities", detail, problems)


def check_minimal_form_shape() -> CheckResult:
    """Minimal vector forms have weight 5 and exponents (m +- n')/2m."""
    problems = _over(SHAPE_GRID, lambda m, n: shape_problems(_minimal(m, n)))
    return verdict(
        "minimal-form-shape", f"{len(SHAPE_GRID)} pairs at order {ORDER}", problems
    )


def check_wronskian_delta_power() -> CheckResult:
    """Wronskian = (n'/m) Delta at level 0, = c' Delta^2 after one raise."""

    def problems_of(m: int, n_prime: int) -> list[str]:
        form = _minimal(m, n_prime)
        levels = [vvmf.wronskian_check(form), vvmf.wronskian_check(_raised(m, n_prime))]
        return wronskian_problems(form.rep, levels)

    detail = f"{len(SHAPE_GRID)} pairs, levels 0 and 1, order {ORDER}"
    return verdict("wronskian-delta-power", detail, _over(SHAPE_GRID, problems_of))


def check_raising_constants() -> CheckResult:
    """Both raising ratios match -144(5m+6n')/(m+n') and 12n'/(m+6n') exactly."""

    def problems_of(m: int, n_prime: int) -> list[str]:
        form = _minimal(m, n_prime)
        c1, c2 = vvmf.raising_ratios(form, _raised(m, n_prime))
        return raising_problems(form.rep, c1, c2)

    detail = f"{len(SHAPE_GRID)} pairs at order {ORDER}"
    return verdict("raising-constants", detail, _over(SHAPE_GRID, problems_of))


def check_schwarzian_proportionality() -> CheckResult:
    """solve() verifies {h} = -(1/2)(n/m)^2 E4 on the whole grid."""
    t0 = time.perf_counter()
    problems = _over(SOLVE_GRID, lambda m, n: schwarzian_problems(_solved(m, n, ORDER)))
    elapsed = time.perf_counter() - t0
    if elapsed > SOLVE_BUDGET:
        problems.append(f"took {elapsed:.2f}s > {SOLVE_BUDGET:g}s")
    detail = f"{len(SOLVE_GRID)} pairs at order {ORDER}, {elapsed:.2f}s"
    return verdict("schwarzian-proportionality", detail, problems)


def check_ode_solutions() -> CheckResult:
    """Both Frobenius solutions satisfy D^2 y + s E4 y = 0 with the solved
    s = -(n/2m)^2, by series arithmetic; solve() checked h = y1/y2."""

    def problems_of(m: int, n: int) -> list[str]:
        bundle = _solved(m, n, ORDER)
        expected = -Fraction(n, 2 * m) ** 2
        if bundle.ode_parameter != expected:
            return [f"s={bundle.ode_parameter} != {expected}"]
        for y in solver.ode_solutions(bundle.h):
            solver.verify_ode(y, bundle.ode_parameter)
        return []

    detail = f"{len(SOLVE_GRID)} pairs at order {ORDER}"
    return verdict("ode-solutions", detail, _over(SOLVE_GRID, problems_of))


def check_numeric_cross_check() -> CheckResult:
    """Series and closed hypergeometric evaluations of h agree on the grid.

    Every grid point lies inside the fundamental domain, where the closed
    form is defined on both sides of |1728/j| = 1; a point the evaluator
    refuses (OutsideDisk), or where the summed q-series does not converge
    (DivergentSeries), is reported with the reason and counts as a
    failure.  Phase equivariance h(tau+1) = exp(2 pi i n/m) h(tau) is
    checked on the series route at every grid point, reusing the series
    value the cross-check summed.
    """
    lines: list[str] = []

    def problems_of(m: int, n: int) -> list[str]:
        bundle = _solved(m, n, NUMERIC_TERMS)
        problems = []
        for tau in NUMERIC_TAUS:
            try:
                report = numeric._cross_check_bundle(bundle, tau, NUMERIC_TERMS)
                lines.append(f"({m},{n}) tau={tau}: rel_error={report.rel_error:.3e}")
                if not report.rel_error < NUMERIC_TOLERANCE:
                    problems.append(f"tau={tau}: rel_error exceeds {NUMERIC_TOLERANCE:g}")
                a = report.via_series
            except (OutsideDisk, DivergentSeries) as exc:
                problems.append(f"tau={tau}: {failure(exc)}")
                a = numeric.eval_qseries(bundle.h, tau)
            # phase equivariance on the series route, all points
            b = numeric.eval_qseries(bundle.h, tau + 1)
            phase = cmath.exp(2j * cmath.pi * n / m)
            drift = abs(b - phase * a) / max(abs(a), 1e-300)
            if drift >= PHASE_TOLERANCE:
                problems.append(
                    f"tau={tau}: phase drift {drift:.3e} exceeds {PHASE_TOLERANCE:g}"
                )
        return problems

    problems = _over(NUMERIC_GRID, problems_of)
    points = len(NUMERIC_GRID) * len(NUMERIC_TAUS)
    detail = "; ".join([f"{len(problems)} failing point(s) of {points}", *lines])
    return verdict("numeric-cross-check", detail, problems)


def _bumped(original, index: int, hit):
    """``original``, with coefficient ``index`` of its output raised by 1 on
    every call whose arguments satisfy ``hit``."""

    def wrapper(*args):
        out = original(*args)
        if not hit(*args):
            return out
        body = out.body if isinstance(out, PuiseuxSeries) else out
        coeffs = list(body.coeffs)
        if index < len(coeffs):
            coeffs[index] += 1
        if isinstance(out, PuiseuxSeries):
            return PuiseuxSeries(out.offset, QSeries(coeffs))
        return QSeries(coeffs)

    return wrapper


def check_seeded_bug_sensitivity() -> CheckResult:
    """Corrupting any early coefficient of a core ingredient must be caught.

    For each of three ingredient series — the weight-4 Eisenstein series,
    the 24th eta power, and the first component's 2F1(1728/j) as
    ``hypergeometric.pulled_back_2f1`` builds it — bump one of the first
    five coefficients by 1 and run the full solve pipeline.
    The run must raise a VerificationError whose reported index is at most
    MAX_BUG_INDEX; silent success on any corruption fails this check.
    """
    problems: list[str] = []
    first = hypergeometric.component_recipe(7, 1, "first").params
    seams = [
        ("eisenstein-4", forms, "eisenstein", lambda k, order: k == 4),
        ("eta-power-24", forms, "eta_power", lambda exponent, order: exponent == 24),
        ("hypergeometric", hypergeometric, "pulled_back_2f1", lambda p, base: p == first),
    ]
    for label, module, attr, hit in seams:
        for index in range(5):
            original = getattr(module, attr)
            setattr(module, attr, _bumped(original, index, hit))
            try:
                solver.solve(7, 1, ORDER)
            except VerificationError as exc:
                where = exc.index
                if where is None or where > MAX_BUG_INDEX:
                    problems.append(
                        f"{label}[{index}]: {type(exc).__name__} at "
                        f"index {where}, beyond {MAX_BUG_INDEX}"
                    )
            else:
                problems.append(f"{label}[{index}]: corruption went undetected")
            finally:
                setattr(module, attr, original)
    detail = f"{5 * len(seams)} corrupted runs, each to be caught at index <= {MAX_BUG_INDEX}"
    return verdict("seeded-bug-sensitivity", detail, problems)


def run_all() -> list[CheckResult]:
    """Run every acceptance criterion in order and return the results.

    Starts cold: the forms and solutions that criteria share within one
    run are built afresh, so each run checks the code as it is now.
    """
    for cached in (_solved, _minimal, _raised):
        cached.cache_clear()
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

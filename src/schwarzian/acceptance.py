"""Acceptance checks: every headline identity, re-derived and timed.

Each criterion function returns a CheckResult; ``run_all`` runs the full
battery in order.  These are the same checks the test suite and the CLI
``selftest`` subcommand run — one place defines what "working" means.
``walk`` drives the literal level chain for criteria 2-4 and the CLI's
``verify`` and ``vvmf``, which read their Wronskian and raising-ratio
problems from one ``Walk``; criteria 5 and 6 apply one per-pair predicate
each (``*_problems``), as ``verify`` does to its own h.  Criterion 2
passes when each minimal form builds, which ``vvmf.VectorForm`` checks.

``solver.solve`` proves the minimal form, and for a raised pair the
second component at every level, against that level's modular
differential equation, which fixes {h} and h = y1 / y2 by exact algebra;
each level's Wronskian constant is a closed form,
``vvmf.level_constants``.  Criteria 3, 5 and 6 do not lean on that
argument: they recompute the Wronskian, the Schwarzian derivative and
the ODE residual of h y2 literally from the series, and criterion 3
compares each W with its closed form.

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
from typing import NamedTuple

from . import forms, hypergeometric, numeric, solver, vvmf
from .errors import DivergentSeries, OutsideDisk, VerificationError
from .series import QSeries

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


class Walk(NamedTuple):
    """Levels 0, 1, ... of a pair as far as ``walk`` built them; for each of
    levels 0..r among them, the (c, e) of W checked literally or how that
    check failed; and how a refused raise stopped the walk, if one did."""

    r: int
    forms: list[vvmf.VectorForm]
    wronskians: list[tuple[Fraction, int] | str]
    stopped: str | None

    def checked(self) -> list[tuple[int, vvmf.VectorForm, Fraction, int]]:
        """(level, form, c, e) of every level whose W check gave (c, e)."""
        return [
            (lvl, self.forms[lvl], *w)
            for lvl, w in enumerate(self.wronskians)
            if not isinstance(w, str)
        ]

    def wronskian_problems(self) -> list[str]:
        """How levels 0..r miss W = c_k Delta**(k + 1): each failed W check,
        each (c, e) off the closed form of ``vvmf.level_constants``, and
        the refusal that stopped the walk below level r + 1; the refusal
        alone if no form was built."""
        if not self.forms:
            return [self.stopped]
        rep = self.forms[0].rep
        want = vvmf.level_constants(rep.m, self.r * rep.m + rep.n_prime)
        problems = [
            f"level {lvl}: {w}" for lvl, w in enumerate(self.wronskians) if isinstance(w, str)
        ]
        problems += [
            f"level {lvl} gave c={c}, e={e}, "
            f"expected c={want[lvl][0]}, e={want[lvl][1]}"
            for lvl, _, c, e in self.checked()
            if (c, e) != want[lvl]
        ]
        if len(self.forms) <= self.r:
            problems.append(f"level {len(self.forms)}: {self.stopped}")
        return problems

    def wronskian_verdict(self) -> CheckResult:
        """wronskian-delta-power, a verdict for each of levels 0..r and each W
        with the order it was checked through."""
        detail = f"levels 0..{self.r}" + "".join(
            f"; level {lvl}: c={c}, Delta^{e} through "
            f"{min(form.first.order, form.second.order)} terms"
            for lvl, form, c, e in self.checked()
        )
        return verdict("wronskian-delta-power", detail, self.wronskian_problems())

    def raising_problems(self) -> list[str]:
        """How the raising ratios miss -144(5m+6n')/(m+n') and 12n'/(m+6n'),
        or the refusal that left level 1 unbuilt."""
        if len(self.forms) < 2:
            return [self.stopped]
        rep = self.forms[0].rep
        want = (vvmf.c1_closed_form(rep.m, rep.n_prime), vvmf.c2_closed_form(rep.m, rep.n_prime))
        return [
            f"c{i}={c} != closed form {w}"
            for i, (c, w) in enumerate(zip(vvmf.raising_ratios(*self.forms[:2]), want), 1)
            if c != w
        ]


def walk(rep: vvmf.ReprData, order: int, r: int, top: int) -> Walk:
    """Levels 0..max(r, top) of ``rep``'s chain, ``vvmf.minimal_form(rep,
    order, r)`` raised by ``vvmf.raise_weight`` up to the first raise that
    ``VectorForm`` refuses, and the literal ``vvmf.wronskian_check`` on each
    of levels 0..r; with no form if the minimal form fails to build.

    Each raise uses up the first component's leading term, so it is built
    at order + r and level r keeps ``order``, as the second component does.
    """
    forms, stopped = [], None
    try:
        forms.append(vvmf.minimal_form(rep, order, r))
        while len(forms) <= max(r, top):
            forms.append(vvmf.raise_weight(forms[-1]))
    except VerificationError as exc:
        stopped = failure(exc)
    wronskians = []
    for form in forms[: r + 1]:
        try:
            wronskians.append(vvmf.wronskian_check(form))
        except VerificationError as exc:
            wronskians.append(failure(exc))
    return Walk(r, forms, wronskians, stopped)


def schwarzian_problems(bundle: solver.SolutionBundle) -> list[str]:
    """How {h} / E4, computed from the solved h, misses -(1/2)(n/m)^2.
    NotProportional if {h} / E4 is not constant."""
    computed = solver.verify_proportionality(solver.schwarz_derivative(bundle.h))
    if computed != bundle.schwarz_constant:
        return [f"computed constant {computed} != {bundle.schwarz_constant}"]
    return []


def ode_problems(bundle: solver.SolutionBundle) -> list[str]:
    """Both Frobenius solutions and h y2 must satisfy D^2 y + s E4 y = 0,
    s = -(n/2m)^2, by series arithmetic; the last holds only if h = y1 / y2,
    and OdeResidualNonzero names the first failing index."""
    y1, y2 = solver.ode_solutions(bundle.h)
    for y in (y1, y2, bundle.h * y2):
        solver.verify_ode(y, bundle.ode_parameter)
    return []


@lru_cache(maxsize=None)
def _solved(m: int, n: int, order: int) -> solver.SolutionBundle:
    return solver.solve(m, n, order)


@lru_cache(maxsize=None)
def _walked(m: int, n_prime: int) -> Walk:
    """The walk of SHAPE_GRID pair (m, n')'s raised pair (m, m + n') at
    ORDER to level 1: the first component at ORDER + 1 terms, so that one
    raise leaves ORDER, and W at levels 0 and 1; shared by criteria 2-4."""
    return walk(vvmf.ReprData(m, n_prime), ORDER, 1, 1)


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
    """Eisenstein/eta/discriminant identities, exact through CLASSICAL_ORDER.

    ``forms.checked_eisenstein`` proves 12 D E2 = E2^2 - E4 and
    3 D E4 = E2 E4 - E6, which is D_4 E4 = -E6/3; ``forms.delta`` proves
    E4^3 - E6^2 = 1728 Delta against the eta product.  Here follow
    D_6 E6 = -E4^2/2, D_12 Delta = 0 and (1728/j) E4^3 = 1728 Delta.
    """
    t0 = time.perf_counter()
    problems: list[str] = []
    try:
        _, e4, e6, _ = forms.checked_eisenstein(CLASSICAL_ORDER)
        delta = forms.delta(CLASSICAL_ORDER)
        e4_cubed = e4 * e4 * e4

        if not forms.serre_derivative(e6, 6) == e4 * e4 * Fraction(-1, 2):
            problems.append("serre(E6) != -E4^2/2")
        if not forms.serre_derivative(delta, 12).is_zero():
            problems.append("serre(Delta) != 0")
        if not forms.j_inverse(CLASSICAL_ORDER) * e4_cubed == delta * 1728:
            problems.append("(1728/j) E4^3 != 1728 Delta")
    except VerificationError as exc:
        problems.append(failure(exc))

    elapsed = time.perf_counter() - t0
    if elapsed > CLASSICAL_BUDGET:
        problems.append(f"took {elapsed:.2f}s > {CLASSICAL_BUDGET:g}s")
    detail = f"order {CLASSICAL_ORDER}, {elapsed:.2f}s"
    return verdict("classical-identities", detail, problems)


def check_minimal_form_shape() -> CheckResult:
    """Every SHAPE_GRID pair's minimal form builds: ``vvmf.VectorForm``
    refuses a form whose exponents are not (m +- n')/2m or whose leading
    coefficients are not 1, and ``vvmf.minimal_form`` one off its MLDE, so
    the problems are the pairs whose construction failed."""

    def problems_of(m: int, n_prime: int) -> list[str]:
        walked = _walked(m, n_prime)
        return [] if walked.forms else [walked.stopped]

    detail = f"{len(SHAPE_GRID)} pairs at order {ORDER}"
    return verdict("minimal-form-shape", detail, _over(SHAPE_GRID, problems_of))


def check_wronskian_delta_power() -> CheckResult:
    """Wronskian = (n'/m) Delta at level 0, = c' Delta^2 after one raise,
    each W checked through the terms that both components of its level
    hold, which the detail states per level (fewest over the grid)."""
    problems = _over(SHAPE_GRID, lambda m, n: _walked(m, n).wronskian_problems())
    terms = [
        (lvl, min(form.first.order, form.second.order))
        for m, n in SHAPE_GRID
        for lvl, form, _, _ in _walked(m, n).checked()
    ]
    detail = f"{len(SHAPE_GRID)} pairs" + "".join(
        f"; level {lvl} through {min(t for k, t in terms if k == lvl)} terms"
        for lvl in sorted({lvl for lvl, _ in terms})
    )
    return verdict("wronskian-delta-power", detail, problems)


def check_raising_constants() -> CheckResult:
    """Both raising ratios match -144(5m+6n')/(m+n') and 12n'/(m+6n') exactly."""
    problems = _over(SHAPE_GRID, lambda m, n: _walked(m, n).raising_problems())
    detail = f"{len(SHAPE_GRID)} pairs at order {ORDER}"
    return verdict("raising-constants", detail, problems)


def check_schwarzian_proportionality() -> CheckResult:
    """{h} = -(1/2)(n/m)^2 E4 on the whole grid, with {h} computed here from
    each solved h by ``solver.schwarz_derivative``."""
    t0 = time.perf_counter()
    problems = _over(SOLVE_GRID, lambda m, n: schwarzian_problems(_solved(m, n, ORDER)))
    elapsed = time.perf_counter() - t0
    if elapsed > SOLVE_BUDGET:
        problems.append(f"took {elapsed:.2f}s > {SOLVE_BUDGET:g}s")
    detail = f"{len(SOLVE_GRID)} pairs at order {ORDER}, {elapsed:.2f}s"
    return verdict("schwarzian-proportionality", detail, problems)


def check_ode_solutions() -> CheckResult:
    """Both Frobenius solutions, and h y2, satisfy D^2 y + s E4 y = 0 with the
    solved s = -(n/2m)^2, by series arithmetic here, so h = y1/y2."""
    problems = _over(SOLVE_GRID, lambda m, n: ode_problems(_solved(m, n, ORDER)))
    detail = f"{len(SOLVE_GRID)} pairs at order {ORDER}"
    return verdict("ode-solutions", detail, problems)


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
        if not hit(*args) or index >= out.order:
            return out
        coeffs = list(out.coeffs)
        coeffs[index] += 1
        return QSeries(coeffs)

    return wrapper


def check_seeded_bug_sensitivity() -> CheckResult:
    """Corrupting any early coefficient of a core ingredient must be caught.

    For each of three ingredient series — the Eisenstein series E4 and
    E2, and the first component's Phi = E4^-3P F(1728/j)
    (``hypergeometric.gauged_2f1``) — bump one of the first five
    coefficients by 1 and run the full solve pipeline, with the
    ``hypergeometric.base_forms`` cache cleared before and after each run.
    The run must raise a VerificationError whose reported index is at most
    MAX_BUG_INDEX; silent success on any corruption fails this check.
    """
    problems: list[str] = []
    first = vvmf.ReprData(7, 1).recipes[0]
    seams = [
        ("eisenstein-4", forms, "eisenstein", lambda k, order: k == 4),
        ("eisenstein-2", forms, "eisenstein", lambda k, order: k == 2),
        ("hypergeometric", hypergeometric, "gauged_2f1", lambda rec, *_: rec == first),
    ]
    for label, module, attr, hit in seams:
        for index in range(5):
            original = getattr(module, attr)
            setattr(module, attr, _bumped(original, index, hit))
            # a cold build reads the corruption, and none outlives the run
            hypergeometric.base_forms.cache_clear()
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
                hypergeometric.base_forms.cache_clear()
    detail = f"{5 * len(seams)} corrupted runs, each to be caught at index <= {MAX_BUG_INDEX}"
    return verdict("seeded-bug-sensitivity", detail, problems)


def run_all() -> list[CheckResult]:
    """Run every acceptance criterion in order and return the results.

    Starts cold: the ``hypergeometric.base_forms`` cache and the forms and
    solutions that criteria share within one run are cleared and built
    afresh, so each run checks the code as it is now.
    """
    for cached in (hypergeometric.base_forms, _solved, _walked):
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

"""Acceptance gate: one test per criterion, one pass/fail line each.

Every criterion runs at the tolerance and time budget that
``schwarzian.acceptance`` fixes as module constants (the same battery
behind the CLI's ``selftest``).  Each test prints its
``[PASS]/[FAIL] name: detail`` line and asserts the verdict, so the pytest
report carries exactly one line per criterion.

Criterion 7 (numeric-cross-check) runs on the tau grid
{2i, 1.5i, 0.3 + 1.2i}.  At tau = 0.3 + 1.2i, |1728/j(tau)| = 1.017565... > 1,
outside the disk of the 2F1 Taylor series; the point is inside the
fundamental domain, so the evaluator continues the closed form there with
its principal branches, and all nine points must agree to 1e-9.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from schwarzian import (
    PuiseuxSeries,
    QSeries,
    acceptance,
    cli,
    hypergeometric,
    numeric,
    solver,
    vvmf,
)
from schwarzian.errors import NotProportional, OdeResidualNonzero, VerificationError
from test_solver import raise_component_with_de4_coefficient_2


def _report(result: acceptance.CheckResult) -> None:
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_classical_identities():
    _report(acceptance.check_classical_identities())


def test_criterion_2_minimal_form_shape():
    _report(acceptance.check_minimal_form_shape())


def test_criterion_2_names_each_pair_that_fails_to_build(monkeypatch):
    """With every Phi = E4^-3P F(1728/j) doubled, VectorForm refuses each
    minimal form for its leading coefficients, and criterion 2 names every
    pair."""
    bumped = acceptance._bumped(hypergeometric.gauged_2f1, 0, lambda *_: True)
    monkeypatch.setattr(hypergeometric, "gauged_2f1", bumped)
    acceptance._walked.cache_clear()
    try:
        result = acceptance.check_minimal_form_shape()
    finally:
        acceptance._walked.cache_clear()
    assert not result.passed
    for m, n in acceptance.SHAPE_GRID:
        assert (
            f"({m},{n}): InternalMismatch: leading coefficients 2, 2, expected 1, 1"
            in result.detail
        )


def test_criterion_3_wronskian_delta_power():
    _report(acceptance.check_wronskian_delta_power())


def test_criterion_3_checks_both_levels_through_order_terms(monkeypatch):
    """Levels 0 and 1 come from one walk, ``acceptance.walk(rep, ORDER, 1,
    1)``, so the raise that uses up a term of the first component still
    leaves ORDER, and every W is checked through ORDER terms."""
    checked = []
    original = vvmf.wronskian_check

    def recorded(form):
        checked.append((form.level, min(form.first.order, form.second.order)))
        return original(form)

    monkeypatch.setattr(vvmf, "wronskian_check", recorded)
    acceptance._walked.cache_clear()
    try:
        result = acceptance.check_wronskian_delta_power()
    finally:
        acceptance._walked.cache_clear()
    order, pairs = acceptance.ORDER, len(acceptance.SHAPE_GRID)
    assert result.passed, result.detail
    assert checked == [(0, order), (1, order)] * pairs
    assert result.detail == (
        f"{pairs} pairs; level 0 through {order} terms; level 1 through {order} terms"
    )


def test_mutated_closed_form_constant_fails_criterion_3_and_verify(monkeypatch, capsys):
    """Criterion 3 and the CLI's verify compare each literal W check with
    ``vvmf.level_constants``: a closed form off at level 1 fails both,
    naming that level, and level 0 still passes."""
    original = vvmf.level_constants

    def off(m, n):
        levels = list(original(m, n))
        c, e = levels[1]
        levels[1] = (2 * c, e)
        return tuple(levels)

    monkeypatch.setattr(vvmf, "level_constants", off)
    acceptance._walked.cache_clear()
    try:
        result = acceptance.check_wronskian_delta_power()
    finally:
        acceptance._walked.cache_clear()
    assert not result.passed
    # c = (n_1/m) l1 l2 at level 1, with l1, l2 level 0's raising ratios
    c = vvmf.c1_closed_form(7, 1) * vvmf.c2_closed_form(7, 1) * 8 / 7
    assert f"(7,1): level 1 gave c={c}, e=2, expected c={2 * c}, e=2" in result.detail
    assert "level 0 gave" not in result.detail

    assert cli.main(["verify", "--m", "7", "--n", "9", "--terms", "10"]) == 1
    out = capsys.readouterr().out
    assert "level 1 gave c=-162432/133, e=2, expected c=-324864/133, e=2" in out
    assert "level 0 gave" not in out


@pytest.mark.parametrize("mutated", [False, True], ids=["as-is", "mutated-raise"])
def test_criteria_3_and_4_agree_with_the_vvmf_command(monkeypatch, capsys, mutated):
    """On every SHAPE_GRID pair (m, n'), criteria 3 and 4 and
    ``schwarzian vvmf --m m --n m+n' --terms ORDER`` pass or fail together,
    on the same (c, e) at each level and the same ratios c1, c2: as the
    code is, and with the D E4 coefficient of the raising step mutated,
    which fails W at level 1 and c1 on every pair."""
    if mutated:
        monkeypatch.setattr(vvmf, "raise_component", raise_component_with_de4_coefficient_2)
    acceptance._walked.cache_clear()
    try:
        criteria = (acceptance.check_wronskian_delta_power(), acceptance.check_raising_constants())
        walks = {pair: acceptance._walked(*pair) for pair in acceptance.SHAPE_GRID}
    finally:
        acceptance._walked.cache_clear()
    assert [c.passed for c in criteria] == [not mutated] * 2
    for (m, n_prime), walked in walks.items():
        argv = ["vvmf", "--m", str(m), "--n", str(m + n_prime), "--terms", str(acceptance.ORDER)]
        assert cli.main([*argv, "--format", "json"]) == int(mutated)
        payload = json.loads(capsys.readouterr().out)
        verdicts = [c["pass"] for c in payload["checks"]]
        assert verdicts == [f"({m},{n_prime}): " not in c.detail for c in criteria]
        levels = payload["results"]["levels"]
        assert [(Fraction(lvl["wronskian_constant"]), lvl["delta_power"]) for lvl in levels] == [
            (c, e) for _, _, c, e in walked.checked()
        ]
        assert len(levels) == (1 if mutated else 2)
        raising = payload["results"]["raising"]
        ratios = Fraction(raising["first_ratio"]), Fraction(raising["second_ratio"])
        assert ratios == vvmf.raising_ratios(*walked.forms[:2])


def test_criterion_4_raising_constants():
    _report(acceptance.check_raising_constants())


def test_criterion_5_schwarzian_proportionality():
    _report(acceptance.check_schwarzian_proportionality())


def test_criterion_6_ode_solutions():
    _report(acceptance.check_ode_solutions())


def bumped_h(bundle: solver.SolutionBundle, k: int) -> solver.SolutionBundle:
    """``bundle`` with 1 added to the body coefficient of h at q^k."""
    coeffs = list(bundle.h.body.coeffs)
    coeffs[k] += 1
    return dataclasses.replace(bundle, h=PuiseuxSeries(bundle.h.offset, QSeries(coeffs)))


@pytest.mark.parametrize("k", [1, 4, 17])
def test_literal_predicates_name_the_first_wrong_coefficient_of_h(k):
    # criteria 5 and 6 recompute {h} and the h y2 residual from h itself,
    # so an h wrong from q^k fails both at k whatever the bundle reports
    bad = bumped_h(solver.solve(11, 16, 30), k)
    with pytest.raises(NotProportional) as schwarzian:
        acceptance.schwarzian_problems(bad)
    assert schwarzian.value.index == k
    with pytest.raises(OdeResidualNonzero) as ode:
        acceptance.ode_problems(bad)
    assert ode.value.index == k


def test_literal_predicates_report_wrong_constants():
    good = solver.solve(11, 16, 30)
    assert acceptance.schwarzian_problems(good) == []
    assert acceptance.ode_problems(good) == []
    # the constant computed from another pair's h; the bundle derives the
    # constant it is compared with from (m, n), so it cannot misreport one
    other_h = dataclasses.replace(good, h=solver.solve(11, 17, 30).h)
    assert acceptance.schwarzian_problems(other_h) == ["computed constant -289/242 != -128/121"]


@pytest.mark.slow
def test_criterion_7_numeric_cross_check():
    # Three of the nine points (tau = 0.3 + 1.2i for each (m, n) pair) have
    # |1728/j(tau)| > 1 and go through the continued closed form; phase
    # equivariance is checked at all nine.  The per-point breakdown is in
    # the detail line below.
    _report(acceptance.check_numeric_cross_check())


@pytest.mark.slow
def test_criterion_8_seeded_bug_sensitivity():
    _report(acceptance.check_seeded_bug_sensitivity())


# what each of the 15 corrupted solves raises, in the check's order: E4
# and E2 stop at the base forms' Ramanujan identities, the 2F1 at the
# minimal form's unit-leading check (index 0) or its MLDE comparison; each
# at the index it corrupts
SEEDED_RAISES = [("InternalMismatch", i) for _ in range(3) for i in range(5)]


@pytest.mark.slow
def test_seeded_bugs_caught_with_warm_base_forms(monkeypatch):
    # the check clears the base_forms cache around each corrupted run, so
    # base forms already built at its order do not hide a corruption of forms
    solver.solve(7, 1, acceptance.ORDER)
    raised = []
    original = solver.solve

    def recorded(*args):
        try:
            return original(*args)
        except VerificationError as exc:
            raised.append((type(exc).__name__, exc.index))
            raise

    monkeypatch.setattr(solver, "solve", recorded)
    _report(acceptance.check_seeded_bug_sensitivity())
    assert raised == SEEDED_RAISES


@pytest.fixture
def series_sums(monkeypatch):
    """The tau of every numeric.eval_qseries call made during the test."""
    taus = []
    original = numeric.eval_qseries

    def counted(f, tau, precision=None):
        taus.append(tau)
        return original(f, tau, precision)

    monkeypatch.setattr(numeric, "eval_qseries", counted)
    return taus


@pytest.mark.slow
def test_numeric_cross_check_sums_h_once_per_point(series_sums):
    # the phase check reuses the cross-check's series value at tau and
    # sums h only at tau + 1
    assert acceptance.check_numeric_cross_check().passed
    points = len(acceptance.NUMERIC_GRID) * len(acceptance.NUMERIC_TAUS)
    assert len(series_sums) == 2 * points == 18


def test_refused_point_sums_h_itself(monkeypatch, series_sums):
    # 0.2 + 0.9i lies below the arc: the closed form refuses it after the
    # series route has run, so the phase check sums h at tau again
    monkeypatch.setattr(acceptance, "NUMERIC_GRID", ((7, 1),))
    monkeypatch.setattr(acceptance, "NUMERIC_TAUS", (2j, 0.2 + 0.9j))
    result = acceptance.check_numeric_cross_check()
    assert not result.passed
    assert "tau=(0.2+0.9j): OutsideDisk" in result.detail
    assert "phase drift" not in result.detail
    assert series_sums == [2j, 2j + 1, 0.2 + 0.9j, 0.2 + 0.9j, 1.2 + 0.9j]


def test_battery_builds_each_shape_form_once(monkeypatch, build_counts):
    # criteria 2-4 share one minimal and one raised form per SHAPE_GRID
    # pair, and every run_all() builds them afresh
    others = (
        "check_classical_identities",
        "check_schwarzian_proportionality",
        "check_ode_solutions",
        "check_numeric_cross_check",
        "check_seeded_bug_sensitivity",
    )
    for name in others:
        monkeypatch.setattr(
            acceptance, name, lambda _name=name: acceptance.CheckResult(_name, True, "")
        )
    pairs = len(acceptance.SHAPE_GRID)
    for _ in range(2):
        results = acceptance.run_all()
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        assert build_counts == {"minimal_form": pairs, "raise_weight": pairs}
        build_counts.update(minimal_form=0, raise_weight=0)

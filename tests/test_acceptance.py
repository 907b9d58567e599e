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

import pytest

from schwarzian import acceptance


def _report(result: acceptance.CheckResult) -> None:
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_classical_identities():
    _report(acceptance.check_classical_identities())


def test_criterion_2_minimal_form_shape():
    _report(acceptance.check_minimal_form_shape())


def test_criterion_3_wronskian_delta_power():
    _report(acceptance.check_wronskian_delta_power())


def test_criterion_4_raising_constants():
    _report(acceptance.check_raising_constants())


def test_criterion_5_schwarzian_proportionality():
    _report(acceptance.check_schwarzian_proportionality())


def test_criterion_6_ode_solutions():
    _report(acceptance.check_ode_solutions())


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

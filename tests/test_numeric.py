"""Floating-point route tests: evaluation, domain guard, two-route agreement.

The discriminant value at tau = 2i is cross-checked against mpmath's
q-Pochhammer product — an implementation with no code in common with this
package's series engine.
"""

import cmath
from fractions import Fraction

import mpmath
import pytest

from schwarzian import (
    DivergentSeries,
    InvalidParameters,
    NotUpperHalfPlane,
    NumericOverflow,
    OutsideDisk,
    PuiseuxSeries,
    QSeries,
    acceptance,
    cross_check,
    delta,
    eval_h_hypergeometric,
    eval_qseries,
    j_inverse,
    numeric,
    solve,
    solver,
)

F = Fraction

IN_DISK_TAUS = (2j, 1.5j)
ALL_TAUS = (2j, 1.5j, 0.3 + 1.2j)
NUMERIC_GRID = ((7, 1), (8, 3), (9, 2))


def test_constant_series_evaluates_to_constant():
    assert eval_qseries(QSeries([5]), 2j) == 5
    assert eval_qseries(QSeries([0, 0, 0]), 1j) == 0


def test_pure_offset_is_exponential():
    # q^(1/2) at tau = i is exp(2 pi i * i / 2) = e^(-pi)
    p = PuiseuxSeries(F(1, 2), QSeries([1]))
    got = eval_qseries(p, 1j)
    assert abs(got - cmath.exp(-cmath.pi)) < 1e-15


def test_geometric_series_value():
    # sum q^k with q = e^(-4 pi): matches 1/(1-q) up to the q^40 tail
    s = QSeries([1] * 40)
    q = cmath.exp(2j * cmath.pi * 2j).real
    assert abs(eval_qseries(s, 2j) - 1 / (1 - q)) < 1e-15


def test_delta_against_qpochhammer_oracle():
    q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(2j))
    reference = q * mpmath.qp(q) ** 24  # q prod (1-q^n)^24, independent code
    mine = eval_qseries(delta(60), 2j, precision=120)
    assert float(abs(mine - reference) / abs(reference)) < 1e-14


def test_upper_half_plane_enforced():
    with pytest.raises(NotUpperHalfPlane):
        eval_qseries(QSeries([1, 1]), 0.5)
    with pytest.raises(NotUpperHalfPlane):
        eval_qseries(QSeries([1, 1]), -2j)
    with pytest.raises(NotUpperHalfPlane):
        eval_h_hypergeometric(7, 1, -1j)
    with pytest.raises(NotUpperHalfPlane):
        cross_check(7, 1, 0j)


def test_cross_check_refuses_before_solving(monkeypatch):
    calls = []
    original = solver.solve
    monkeypatch.setattr(solver, "solve", lambda *args: calls.append(args) or original(*args))
    with pytest.raises(InvalidParameters, match="precision must be at least 8 bits"):
        cross_check(7, 1, 2j, precision=4)
    with pytest.raises(NotUpperHalfPlane, match="nonpositive imaginary part"):
        cross_check(7, 1, -2j)
    assert calls == []


@pytest.mark.parametrize(
    "tau", [complex("nan+2j"), complex(0, float("inf")), complex(float("inf"), 2)]
)
def test_non_finite_tau_is_refused_before_solving(monkeypatch, tau):
    def unreachable(*args):
        raise AssertionError("solved for a non-finite tau")

    monkeypatch.setattr(solver, "solve", unreachable)
    with pytest.raises(NotUpperHalfPlane):
        eval_qseries(QSeries([1, 1]), tau)
    with pytest.raises(NotUpperHalfPlane):
        eval_h_hypergeometric(7, 1, tau)
    with pytest.raises(NotUpperHalfPlane):
        cross_check(7, 1, tau)


@pytest.mark.parametrize("n_terms", [0, 1])
def test_eval_h_refuses_too_few_terms_before_building(monkeypatch, n_terms):
    def unreachable(*args):
        raise AssertionError("built a series for too few terms")

    monkeypatch.setattr(numeric, "hypergeom_coeffs", unreachable)
    monkeypatch.setattr(numeric, "_z_factors", unreachable)
    with pytest.raises(InvalidParameters, match="n_terms must be >= 2"):
        eval_h_hypergeometric(7, 1, 2j, n_terms=n_terms)


@pytest.mark.parametrize(
    "tau", [0.1 + 115j, 0.1 + 150j, 0.1 + 400j, -0.5 + 400j, 0.5 + 150j, 3.2 + 400j]
)
def test_doubles_where_q_underflows(tau):
    # q = exp(2 pi i tau) is subnormal in doubles from Im tau ~ 112.7 and 0
    # from ~ 118.6, while h ~ |q|**(1/7) still fits: 1.2e-156 at Im tau = 400
    reference = eval_h_hypergeometric(7, 1, tau, precision=200)
    got = eval_h_hypergeometric(7, 1, tau)
    assert got != 0
    assert float(abs(got - reference) / abs(reference)) < 1e-12
    h = solve(7, 1, 20).h
    assert float(abs(eval_qseries(h, tau) - reference) / abs(reference)) < 1e-12


def test_eval_h_parameter_validation():
    with pytest.raises(InvalidParameters):
        eval_h_hypergeometric(6, 1, 2j)
    with pytest.raises(InvalidParameters):
        eval_h_hypergeometric(7, 9, 2j)  # closed form covers 0 < n < m only
    with pytest.raises(InvalidParameters):
        eval_h_hypergeometric(8, 2, 2j)  # not coprime


def test_outside_disk_near_real_axis():
    # low on the imaginary axis, |1728/j| -> 1 from above the cusp ordering
    with pytest.raises(OutsideDisk):
        eval_h_hypergeometric(7, 1, 0.05j)


def test_outside_disk_at_measured_point():
    # |1728/j(0.3 + 1.2i)| = 1.017565... > 1: the summed 2F1 series diverges
    # there, but tau is inside the fundamental domain, so the continued
    # closed form must still reproduce the q-series of h
    tau = 0.3 + 1.2j
    closed = eval_h_hypergeometric(7, 1, tau, precision=200)
    series = eval_qseries(solve(7, 1, 60).h, tau, precision=200)
    assert abs(closed - series) / abs(series) < 1e-40
    # 0.2 + 0.9i lies below the arc |tau| = 1, where the principal branches
    # do not represent h: the point is refused, not evaluated
    with pytest.raises(OutsideDisk) as info:
        eval_h_hypergeometric(7, 1, 0.2 + 0.9j)
    assert "principal branches" in str(info.value)


def test_cross_check_outside_the_strip():
    # |Re tau| > 1/2: the closed form is evaluated at tau - k and restored
    # by h(tau + k) = exp(2 pi i k n/m) h(tau)
    for m, n in NUMERIC_GRID:
        for tau in (0.6 + 2j, -0.7 + 1.5j):
            report = cross_check(m, n, tau, 30)
            assert report.rel_error < 1e-9, (m, n, tau, report.rel_error)


def test_branch_on_the_strip_edges():
    # on Re tau = +-1/2, z = 1728/j is negative real; the sign rounding gives
    # its imaginary part must not pick the other side of the Log cut
    h = solve(7, 1, 40).h
    for tau in (0.5 + 1.5j, -0.5 + 2j):
        for precision in (None, 41, 42, 44, 48, 64, 200):
            closed = eval_h_hypergeometric(7, 1, tau, 40, precision=precision)
            series = eval_qseries(h, tau, precision=precision)
            rel = abs(closed - series) / abs(series)
            assert rel < 1e-9, (tau, precision, rel)


def test_double_continuation_matches_mpmath():
    # past |z| = 1, doubles continue 2F1 with the package's own code and an
    # integer precision uses mpmath's hyp2f1: the two must agree
    for tau in (0.3 + 1.2j, 1.0001j, -0.45 + 0.95j, 0.5 + 0.9j, 0.2 + 1.0j):
        for m, n in ((7, 1), (9, 2)):
            doubles = eval_h_hypergeometric(m, n, tau)
            bits = eval_h_hypergeometric(m, n, tau, precision=200)
            assert abs(doubles - bits) / abs(bits) < 1e-12, (m, n, tau)


def test_continuation_just_above_the_arc():
    # just above the arc z lies within about 1e-7 of the 2F1 cut (1, inf),
    # and within rounding of it one ulp above the arc; where the summed z
    # lands across the cut the interior's side is taken, and in doubles
    # the walk to z keeps clear of the branch point 1
    h = solve(7, 1, 40).h
    for tau in (
        cmath.rect(1 + 1e-9, 1.2),
        cmath.rect(1 + 1e-9, 1.9),
        -0.029199522301288815 + 0.9995736030415056j,  # one ulp above the arc
        # one ulp above the arc, and z = 3.11 + 1.1e-16i in doubles lands
        # across the cut from Re tau < 0
        -0.26387304996537264 + 0.9645574184577983j,
    ):
        series = eval_qseries(h, tau, precision=200)
        for precision in (None, 200):
            closed = eval_h_hypergeometric(7, 1, tau, precision=precision)
            assert abs(closed - series) / abs(series) < 1e-6, (tau, precision)
    # within 1e-8 of tau = i, z rounds onto the cut in doubles: the point is
    # refused there, and still evaluated at 200 bits
    tau = 1.0000000001j
    with pytest.raises(OutsideDisk):
        eval_h_hypergeometric(7, 1, tau)
    closed = eval_h_hypergeometric(7, 1, tau, precision=200)
    series = eval_qseries(h, tau, precision=200)
    assert abs(closed - series) / abs(series) < 1e-9


def kleinj_reference(m, n, tau):
    """h(tau) = (z/1728)**(n/m) F_first(z) / F_second(z) with z = 1/J(tau),
    every factor from mpmath's own ``kleinj`` and ``hyp2f1`` at 400 bits,
    as ``perfbench/oracles.py`` builds its closed form."""
    ctx = mpmath.mp.clone()
    ctx.prec = 400
    z = 1 / ctx.kleinj(ctx.mpc(tau))
    w = ctx.mpf(n) / (2 * m)
    first, second = (
        ctx.hyp2f1(s * w + ctx.mpf(1) / 12, s * w + ctx.mpf(5) / 12, 1 + 2 * s * w, z)
        for s in (1, -1)
    )
    return ctx.exp(ctx.mpf(n) / m * (ctx.log(z) - ctx.log(1728))) * first / second


@pytest.mark.parametrize(
    "m, n, tau, doubles_bound",
    [
        (7, 1, -0.49 + 0.88j, 1e-13),
        (7, 1, -0.49 + 0.9j, 1e-13),
        (11, 5, 0.3 + 0.96j, 1e-13),
        (7, 1, 1.00000001j, 1e-9),
        (7, 1, 1.0000000001j, None),  # z rounds onto the cut in doubles
        (9, 2, 0.3 + 1.2j, 1e-13),
    ],
)
def test_closed_form_against_kleinj(m, n, tau, doubles_bound):
    # near rho and near i, against mpmath's modular function instead of
    # the package's own q-series
    reference = kleinj_reference(m, n, tau)
    got = eval_h_hypergeometric(m, n, tau, 60, precision=200)
    assert abs(reference.context.mpc(got) - reference) < 1e-50 * abs(reference)
    if doubles_bound is None:
        with pytest.raises(OutsideDisk):
            eval_h_hypergeometric(m, n, tau, 60)
        return
    got = eval_h_hypergeometric(m, n, tau, 60)
    assert abs(reference.context.mpc(got) - reference) < doubles_bound * abs(reference)


def test_closed_form_on_the_strip_edge_near_rho():
    # on Re tau = 1/2 mpmath's principal Log takes the other side of the
    # cut, so the 200-bit q-series of h is the reference there
    tau = 0.5 + 0.8661j
    series = eval_qseries(solve(7, 1, 120).h, tau, precision=200)
    for precision, bound in ((None, 1e-13), (200, 1e-50)):
        closed = eval_h_hypergeometric(7, 1, tau, 120, precision=precision)
        assert abs(series.context.mpc(closed) - series) < bound * abs(series)


def test_cross_check_headline_point():
    report = cross_check(7, 1, 2j, 40)
    assert report.rel_error < 1e-10
    assert report.tail_bound < 1e-100  # |q| = e^(-4 pi) makes the tail tiny


@pytest.mark.parametrize("precision", [None, 200])
def test_rel_error_is_the_relative_difference_of_the_two_values(precision):
    # (8, 3) at this tau differs by 6.8e-5 (the summed 2F1 Taylor series),
    # far above the rounding of the two values to doubles in the report
    report = cross_check(8, 3, -0.0945 + 1.1044j, 60, precision=precision)
    ctx = mpmath.mp.clone()
    ctx.prec = 200
    a, b = ctx.mpc(report.via_series), ctx.mpc(report.via_hypergeom)
    want = abs(a - b) / max(abs(a), abs(b))
    assert 6e-5 < want < 7e-5
    assert abs(report.rel_error - want) < 1e-9 * want


def test_tail_estimate_worked_by_hand():
    # body 1 + 3q + 6q^2 after q^(1/2), |q| = 1/4: the last term is
    # 6 (1/4)^(5/2) = 3/16 and the trailing ratio rho = (6/3) / 4 = 1/2,
    # so the tail is 3/16 * rho / (1 - rho) = 3/16
    h = PuiseuxSeries(F(1, 2), QSeries([1, 3, 6]))
    assert numeric._tail_estimate(h, 0.25) == 3 / 16
    # rho = 1: the terms do not shrink
    assert numeric._tail_estimate(h, 0.5) == float("inf")


def test_eval_report_holds_only_what_was_computed():
    assert numeric.EvalReport._fields == ("via_series", "via_hypergeom", "rel_error", "tail_bound")
    assert not hasattr(cross_check(7, 1, 2j, 8), "__dict__")  # slotted


def test_divergent_series_is_refused_by_name():
    # near the corner rho, 60 terms of h for (13, 12) sum to |h| = 12.1 at
    # this tau, where the closed form gives 0.0015; the last terms grow 1.16x
    # per index, so the tail estimate is infinite and the cross-check refuses
    # instead of reporting a value of the series route
    tau = 0.1153 + 1.0044j
    bundle = solve(13, 12, 60)
    assert abs(eval_qseries(bundle.h, tau)) > 12
    assert abs(eval_h_hypergeometric(13, 12, tau)) < 0.002
    with pytest.raises(DivergentSeries) as info:
        numeric._cross_check_bundle(bundle, tau, 60)
    assert "the q-series route does not converge" in str(info.value)
    with pytest.raises(DivergentSeries):
        cross_check(13, 12, tau, 60)


@pytest.mark.parametrize("n_terms", [30, 60])
def test_growing_trailing_terms_are_refused(n_terms):
    # at this tau the last terms of h for (8, 7) grow 1.49x per index, yet
    # the last one stays below the partial sum (about 905 against |-2539 +
    # 1052i| with 30 terms, where the closed form gives 0.018 - 0.0075i):
    # only the growth shows that the q-series does not converge
    tau = 0.5 + 0.86689j
    with pytest.raises(DivergentSeries):
        numeric._cross_check_bundle(solve(8, 7, n_terms), tau, n_terms)
    with pytest.raises(DivergentSeries):
        cross_check(8, 7, tau, n_terms)
    # h for (7, 1) converges there and is still compared
    report = cross_check(7, 1, tau, n_terms)
    assert 0 < report.tail_bound < 1e-70
    assert report.rel_error < 1e-12


def test_doubles_near_rho_agree_with_200_bits():
    # z is summed from E4 and Delta, whose integer coefficients stay far
    # inside the double range however many terms are kept
    tau = -0.49 + 0.9j
    exact = complex(eval_h_hypergeometric(7, 1, tau, 150, precision=200))
    assert abs(eval_h_hypergeometric(7, 1, tau, 150) - exact) < 1e-15 * abs(exact)
    assert cross_check(7, 1, tau, 140).rel_error < 1e-14
    assert cross_check(7, 1, tau, 140, precision=200).rel_error < 1e-50
    assert cross_check(7, 1, 2j, 140, precision=200).rel_error < 1e-50
    # at 2i doubles answer to rounding of the 200-bit value
    # 0.1660947205672964957...
    exact = complex(eval_h_hypergeometric(7, 1, 2j, 150, precision=200))
    assert abs(eval_h_hypergeometric(7, 1, 2j, 150) - exact) < 1e-15 * abs(exact)
    assert cross_check(7, 1, 2j, 140).rel_error < 1e-15


def test_numeric_taus_converge_on_the_series_route():
    # the acceptance grid stays clear of the refusal
    for m, n in acceptance.NUMERIC_GRID:
        bundle = solve(m, n, acceptance.NUMERIC_TERMS)
        for tau in acceptance.NUMERIC_TAUS:
            report = numeric._cross_check_bundle(bundle, tau, acceptance.NUMERIC_TERMS)
            assert report.tail_bound < abs(report.via_series)


def test_cross_check_in_disk_grid():
    # the green half of the acceptance grid, locked tight
    for m, n in NUMERIC_GRID:
        for tau in IN_DISK_TAUS:
            report = cross_check(m, n, tau, 60)
            assert report.rel_error < 1e-9, (m, n, tau, report.rel_error)


def test_phase_equivariance_everywhere():
    # h(tau + 1) = exp(2 pi i n/m) h(tau) holds for the series route at
    # every grid point, including the one outside the hypergeometric disk
    for m, n in NUMERIC_GRID:
        h = solve(m, n, 60).h
        for tau in ALL_TAUS:
            a = eval_qseries(h, tau)
            b = eval_qseries(h, tau + 1)
            phase = cmath.exp(2j * cmath.pi * n / m)
            assert abs(b - phase * a) / abs(a) < 1e-8


def test_more_terms_tighten_the_match():
    # tau = 1.2i sits mid-disk (|z| ~ 0.63), so truncation error is visible
    # and must fall as the term count doubles
    errors = [cross_check(7, 1, 1.2j, n, precision=120).rel_error for n in (15, 30, 60)]
    assert errors[0] < 1e-4
    assert errors[1] < 1e-7
    assert errors[2] < 1e-13
    assert errors[0] > errors[1] > errors[2]


def test_high_precision_agreement():
    # with 150 bits the two routes agree far below double rounding,
    # so the agreement is structural, not a float coincidence
    report = cross_check(7, 1, 1.5j, 60, precision=150)
    assert report.rel_error < 1e-30


def test_determinism():
    a = cross_check(8, 3, 1.5j, 40)
    b = cross_check(8, 3, 1.5j, 40)
    assert a.via_series == b.via_series
    assert a.via_hypergeom == b.via_hypergeom
    assert a.rel_error == b.rel_error


def test_eval_qseries_term_limit():
    # every tracked term is summed, and nothing beyond: at tau = 0.5i,
    # |q| = e^(-pi) ~ 0.043, so one term more or less is visible
    s = QSeries([1] * 30)
    q = cmath.exp(2j * cmath.pi * 0.5j)
    assert abs(eval_qseries(s, 0.5j) - (1 - q**30) / (1 - q)) < 1e-15


@pytest.mark.parametrize(
    "f, tau",
    [
        # a coefficient beyond the double range: int / int overflows
        (QSeries([10**400]), 1j),
        # a finite double beyond the 1e300 bound
        (QSeries([10**301]), 1j),
        # the Horner sum overflows to inf, then to NaN
        (QSeries([10**308] * 40), 0.001j),
        # q**offset beyond the double range: exp overflows
        (PuiseuxSeries(-1000, QSeries([1])), 1j),
    ],
    ids=["coefficient", "value", "nan", "offset"],
)
def test_doubles_overflow_is_typed(f, tau):
    with pytest.raises(NumericOverflow):
        eval_qseries(f, tau)


def test_integer_precision_has_no_double_range():
    value = eval_qseries(QSeries([10**400]), 1j, precision=200)
    assert abs(value / value.context.mpf(10) ** 400 - 1) < 2.0**-190


def test_one_mpmath_context_per_precision():
    # a fresh context per call would be kept alive by every result it returns
    h = solve(7, 1, 30).h
    series = eval_qseries(h, 1.5j, precision=200)
    closed = eval_h_hypergeometric(7, 1, 1.5j, 30, precision=200)
    assert series.context is closed.context
    assert series.context.prec == 200
    assert eval_qseries(h, 1.5j, precision=120).context.prec == 120


@pytest.mark.parametrize(
    "coeffs, tau",
    [
        # leading zeros and a tiny q: the value is ~3 q^2 ~ 1e-65
        ([0, 0, 3, F(-5, 7), F(10**40, 3)], 12j),
        # the 1728/j coefficients grow past 400 bits
        (list(j_inverse(60).coeffs), 0.3 + 1.1j),
        ([F(1, 3), F(-2, 9), 0, F(7, 1024)] * 15, -0.45 + 0.9j),
        # 10**40 q next to 1: an error in q costs 133 bits more
        ([1, 10**40], 22j),
    ],
)
def test_integer_sum_keeps_the_working_precision(coeffs, tau):
    # at 200 bits the sum runs on scaled integers; against a 400-bit
    # mpmath sum it must still be good to nearly 200 bits
    ref = mpmath.mp.clone()
    ref.prec = 400
    q = ref.exp(2j * ref.pi * ref.mpc(tau))
    want = sum(ref.mpf(c.numerator) / c.denominator * q**k for k, c in enumerate(map(F, coeffs)))
    got = eval_qseries(QSeries(coeffs), tau, precision=200)
    assert abs(ref.mpc(got) - want) <= abs(want) * 2.0**-190

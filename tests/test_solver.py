"""Schwarzian-derivative and end-to-end solver tests.

The frozen expansion of {q^(1/7)(1+q)} is re-derived inside
test_schwarzian_sympy_oracle with symbolic calculus, so the golden and the
implementation are checked against an independent third computation.
test_solve_matches_frobenius_ratio checks h on random coprime (m, n)
against the ratio of the two Frobenius solutions, summed here over plain
Fractions from E4's own divisor sums.
"""

import dataclasses
import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzian import forms, solver, vvmf
from schwarzian import (
    DegenerateDerivative,
    InvalidParameters,
    NotProportional,
    OdeResidualNonzero,
    PuiseuxSeries,
    QSeries,
    eisenstein,
    ode_solutions,
    schwarz_derivative,
    solve,
    verify_ode,
    verify_proportionality,
)

F = Fraction


def monomial(sigma, order=6):
    return PuiseuxSeries(sigma, QSeries([1] + [0] * (order - 1)))


def test_monomial_schwarzian_is_constant():
    # {q^sigma} = -sigma^2/2 exactly, all higher coefficients zero
    sd = schwarz_derivative(monomial(F(3, 5)))
    assert sd[0] == F(-9, 50)
    assert all(c == 0 for c in sd.coeffs[1:])
    sd = schwarz_derivative(monomial(F(1, 7)))
    assert sd[0] == F(-1, 98)


SD_GOLDEN = [F(-1, 98), F(48, 7), F(-1056, 7), F(13824, 7)]


def test_schwarzian_frozen_example():
    h = PuiseuxSeries(F(1, 7), QSeries([1, 1, 0, 0, 0, 0]))
    sd = schwarz_derivative(h)
    assert list(sd.coeffs[:4]) == SD_GOLDEN


def test_schwarzian_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    q, s = sympy.symbols("q"), sympy.Rational(1, 7)
    h = q**s * (1 + q)
    D = lambda f: q * sympy.diff(f, q)  # noqa: E731
    g = sympy.simplify(D(D(h)) / D(h))
    sd = sympy.simplify(D(g) - g**2 / 2)
    expansion = sympy.series(sympy.simplify(sd), q, 0, 4).removeO().expand()
    got = [expansion.coeff(q, k) for k in range(4)]
    assert got == [sympy.Rational(c.numerator, c.denominator) for c in SD_GOLDEN]


def test_schwarzian_mobius_invariance():
    h = PuiseuxSeries(1, QSeries([1, 1, 2, 3, 5, 8]))
    base = schwarz_derivative(h)
    assert schwarz_derivative(h * 7) == base
    assert schwarz_derivative(h + 3) == base
    assert schwarz_derivative(1 / h) == base
    assert schwarz_derivative((2 * h + 3) / (h + 1)) == base


def test_schwarzian_mobius_invariance_fractional_offset():
    h = PuiseuxSeries(F(2, 7), QSeries([1, -4, 2, 0, 1]))
    assert schwarz_derivative(5 * h) == schwarz_derivative(h)
    assert schwarz_derivative(1 / h) == schwarz_derivative(h)


def test_schwarzian_requires_nonconstant():
    with pytest.raises(DegenerateDerivative):
        schwarz_derivative(PuiseuxSeries(0, QSeries([5, 0, 0])))


def test_verify_proportionality_reports_first_bad_index():
    order = 8
    sd = eisenstein(4, order) * F(-1, 98)
    assert verify_proportionality(sd) == F(-1, 98)
    bad = sd + QSeries([0, 0, 0, 1, 0, 0, 0, 0])
    with pytest.raises(NotProportional) as info:
        verify_proportionality(bad)
    assert info.value.index == 3
    # (bad / E4)[3] = 1: the quotient's first nonconstant coefficient
    assert str(info.value) == "sd / E4 is not constant: coefficient 1 at q^3"


def test_solve_smallest_case():
    bundle = solve(7, 1, 12)
    assert bundle.h.offset == F(1, 7)
    assert bundle.h.leading == 1
    assert bundle.schwarz_constant == F(-1, 98)
    assert bundle.ode_parameter == F(-1, 196)
    assert bundle.n_prime == 1
    assert bundle.r == 0
    assert bundle.wronskians == ((F(1, 7), 1),)
    assert bundle.weight == 5


def test_solve_with_one_raise():
    bundle = solve(7, 9, 12)
    assert bundle.n_prime == 2
    assert bundle.r == 1
    assert bundle.h.offset == F(9, 7)
    assert bundle.schwarz_constant == F(-81, 98)
    assert bundle.weight == 11
    assert len(bundle.wronskians) == 2
    assert bundle.wronskians[0] == (F(2, 7), 1)
    assert bundle.wronskians[1][1] == 2


def test_solve_validation():
    with pytest.raises(InvalidParameters):
        solve(6, 1, 10)
    with pytest.raises(InvalidParameters):
        solve(7, 14, 10)  # shares a factor
    with pytest.raises(InvalidParameters):
        solve(7, 0, 10)
    with pytest.raises(InvalidParameters):
        solve(7, -1, 10)
    with pytest.raises(InvalidParameters):
        solve(7.0, 1, 10)


def test_ode_solutions_shape_and_ratio():
    bundle = solve(7, 2, 12)
    y1, y2 = ode_solutions(bundle.h)
    assert y1.offset == F(2, 14) == F(1, 7)
    assert y2.offset == F(-1, 7)
    assert y1.leading == 1
    assert y2.leading == 1
    assert (y1 / y2) == bundle.h
    # normalized Wronskian of the two solutions is exactly n/m
    w = y1.derive() * y2 - y1 * y2.derive()
    assert w.offset == 0
    assert (w - F(2, 7)).is_zero()
    # the pair is, coefficient by coefficient, the square-root route
    # y2 = 1 / sqrt(Dh) and y1 = h y2, normalized to leading 1
    root_inverse = 1 / bundle.h.derive().sqrt()
    for y, old in ((y1, bundle.h * root_inverse), (y2, root_inverse)):
        assert y.offset == old.offset
        assert y.body.coeffs == old.body.coeffs


def test_ode_solutions_refuse_integer_offset():
    # a = offset/2 makes k + 2(-a) vanish at k = offset: a resonant recurrence
    for offset in (1, 2):
        with pytest.raises(InvalidParameters):
            ode_solutions(PuiseuxSeries(offset, QSeries([1, 2, 3, 4])))


@pytest.mark.parametrize("k", [1, 4, 17])
def test_ode_stage_names_first_wrong_coefficient_of_h(monkeypatch, k):
    # bump the first component at q^k, so h is wrong from q^k on, and let it
    # through the Wronskian and Schwarzian stages, which would catch it first
    build = vvmf.minimal_form

    def bumped(rep, order):
        form = build(rep, order)
        coeffs = list(form.first.body.coeffs)
        coeffs[k] += 1
        return dataclasses.replace(
            form, first=PuiseuxSeries(form.first.offset, QSeries(coeffs))
        )

    monkeypatch.setattr(vvmf, "minimal_form", bumped)
    monkeypatch.setattr(vvmf, "wronskian_check", lambda form: (F(5, 11), 1))
    monkeypatch.setattr(solver, "verify_proportionality", lambda sd: sd[0])
    with pytest.raises(OdeResidualNonzero) as info:
        solve(11, 5, 30)
    assert info.value.index == k


def test_solve_checks_the_ode_once_without_square_roots(monkeypatch):
    calls = {"sqrt": 0, "verify_ode": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(PuiseuxSeries, "sqrt", counted("sqrt", PuiseuxSeries.sqrt))
    monkeypatch.setattr(solver, "verify_ode", counted("verify_ode", verify_ode))
    solve(7, 1, 40)
    assert calls == {"sqrt": 0, "verify_ode": 1}


def test_verify_ode_on_solved_pair():
    bundle = solve(7, 1, 10)
    y1, y2 = ode_solutions(bundle.h)
    assert verify_ode(y1, bundle.ode_parameter)
    assert verify_ode(y2, bundle.ode_parameter)
    # with s + 1 the residual is E4 y1, nonzero from the leading term on
    with pytest.raises(OdeResidualNonzero) as info:
        verify_ode(y1, bundle.ode_parameter + 1)
    assert info.value.index == 0


def test_verify_ode_rejects_zero():
    with pytest.raises(InvalidParameters):
        verify_ode(PuiseuxSeries(0, QSeries.zero(3)), F(1))


# sha256 of "offset;c0;c1;..." (each rational as str) for solve(m, n, order).h,
# computed with the series kernels that predate the integer-numerator ones,
# whose Horner composition and convolution ran entirely over Fraction; any
# change in a single coefficient of h changes the hash.  The order-120
# entries were computed while division and rational powers still ran over
# Fraction; at that length the running denominator of both is raised many
# times.
H_SHA256 = {
    (7, 1, 60): "e998db9a65ae310d5db708ea4a27d97a33eb64f783e35106f1bfbf2a105e312c",
    (13, 5, 60): "fc0d912918cf4a9f09a6277a414c8fc344505f653b29ece7a10c8dd5a72d8baa",
    (11, 13, 30): "57834aef28f75d4a86fbd5f58ae84eb1eb54ea63a799acec4e729af684de614f",
    (7, 1, 120): "de63c8fd9fee562c58961786772116d91192733bac37a840129f6123c76c0106",
    (13, 5, 120): "43ae3efa6f82467e405bc10aad2f34ce8cded77c6388d15784a21572db71d832",
    (9, 38, 30): "9ab162b36275dd6ad90b2409ff8e491475df38920b86310266e28f21236747b0",
    (10, 83, 30): "853621fe39ea52fb6a6b42ea7fcdbd0ea7377dc354fa26de7e2a7e88b47665f4",
}

# sha256 of "c0:e0;c1:e1;..." for solve(m, n, order).wronskians, the (c, e)
# of every raising level (r = 4 and r = 8), computed while the Wronskian
# check still divided W by a power of eta**24.
W_SHA256 = {
    (9, 38, 30): "7ecfa0f4da3ad92440dca63714ef5a738cf9c3a0d7dd6bce9fe3c1445e48f066",
    (10, 83, 30): "baec2803bab17eeb87d2a3e0990107deb4099e37b018836db7e3c49b84ac5f1f",
}


@pytest.mark.parametrize("m, n, order", sorted(H_SHA256))
def test_solution_golden_hash(m, n, order):
    h = solve(m, n, order).h
    text = ";".join(str(c) for c in (h.offset, *h.body.coeffs))
    assert hashlib.sha256(text.encode()).hexdigest() == H_SHA256[(m, n, order)]


@pytest.mark.parametrize("m, n, order", sorted(W_SHA256))
def test_wronskian_golden_hash(m, n, order):
    levels = solve(m, n, order).wronskians
    assert len(levels) == n // m + 1
    text = ";".join(f"{c}:{e}" for c, e in levels)
    assert hashlib.sha256(text.encode()).hexdigest() == W_SHA256[(m, n, order)]


def test_solve_builds_eta_powers_once(monkeypatch):
    """eta**24 once, inside delta: the components' prefactor eta**10
    (1728/j)**P comes from a recurrence in E4 and E6, and the Wronskian
    checks of the r = 4 raising levels build no power of eta."""
    calls = []
    original = forms.eta_power

    def counted(exponent, order):
        calls.append(exponent)
        return original(exponent, order)

    monkeypatch.setattr(forms, "eta_power", counted)
    solve(9, 38, 30)
    assert calls == [24]


def _e4(order):
    sums = [0] * order
    for d in range(1, order):
        for k in range(d, order, d):
            sums[k] += d**3
    return [1] + [240 * x for x in sums[1:]]


def frobenius_ratio(m, n, order):
    """Body of y1 / y2, y = q^b (1 + sum c_k q^k) with b = +-n/2m and
    c_k k (k + 2b) = (n/2m)^2 sum_{j>=1} E4_j c_{k-j}."""
    a = F(n, 2 * m)
    e4 = _e4(order)

    def solution(b):
        c = [F(1)]
        for k in range(1, order):
            acc = sum(e4[j] * c[k - j] for j in range(1, k + 1))
            c.append(a * a * acc / (k * (k + 2 * b)))
        return c

    y1, y2 = solution(a), solution(-a)
    h = []
    for k in range(order):
        h.append(y1[k] - sum(h[j] * y2[k - j] for j in range(k)))
    return h


@given(st.integers(7, 40), st.data(), st.integers(8, 12))
@settings(max_examples=150, deadline=None)
def test_solve_matches_frobenius_ratio(m, data, order):
    n = data.draw(st.integers(1, 5 * m).filter(lambda n: gcd(m, n) == 1), label="n")
    h = solve(m, n, order).h
    assert h.offset == F(n, m)
    assert list(h.body.coeffs) == frobenius_ratio(m, n, order)

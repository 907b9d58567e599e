"""Schwarzian-derivative and end-to-end solver tests.

The frozen expansion of {q^(1/7)(1+q)} is re-derived inside
test_schwarzian_sympy_oracle with symbolic calculus, so the golden and the
implementation are checked against an independent third computation.
"""

import hashlib
from fractions import Fraction

import pytest

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
}


@pytest.mark.parametrize("m, n, order", sorted(H_SHA256))
def test_solution_golden_hash(m, n, order):
    h = solve(m, n, order).h
    text = ";".join(str(c) for c in (h.offset, *h.body.coeffs))
    assert hashlib.sha256(text.encode()).hexdigest() == H_SHA256[(m, n, order)]

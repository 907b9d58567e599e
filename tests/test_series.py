"""Series-core tests: exact arithmetic, truncation discipline, normalization.

Expected values here were computed independently (binomial expansion by
hand, long multiplication/division done manually or via a brute-force
helper) before being frozen, so the series engine is checked against
arithmetic it did not produce.
"""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schwarzian import (
    DivisionByNonUnit,
    IncompatibleOffsets,
    NonUnitBase,
    NonvanishingInnerConstant,
    PuiseuxSeries,
    QSeries,
)
from schwarzian.series import apply_ode, solve_ode

F = Fraction


# ---------------------------------------------------------------- QSeries


def test_constructor_validates():
    with pytest.raises(ValueError):
        QSeries([])
    with pytest.raises(TypeError):
        QSeries([1.5])  # floats are not exact
    s = QSeries([1, F(2, 3)])
    assert s.coeffs == (F(1), F(2, 3))
    assert s.order == 2


def test_square_of_linear():
    # (1 - 24q)^2 = 1 - 48q + 576q^2, truncated at the operand order
    s = QSeries([1, -24, 0])
    assert (s * s).coeffs == (1, -48, 576)


def test_min_order_rule_no_padding():
    a = QSeries([1, 1, 1, 1, 1])
    b = QSeries([1, 2])
    assert (a * b).order == 2
    assert (a + b).order == 2
    assert (a - b).order == 2
    assert (a * b).coeffs == (1, 3)


def test_scalar_ops():
    s = QSeries([1, 2, 3])
    assert (s * 2).coeffs == (2, 4, 6)
    assert (2 * s).coeffs == (2, 4, 6)
    assert (s + 5).coeffs == (6, 2, 3)
    assert (s - 1).coeffs == (0, 2, 3)
    assert (1 - s).coeffs == (0, -2, -3)
    assert (s / 2).coeffs == (F(1, 2), 1, F(3, 2))


def test_geometric_series_division():
    one = QSeries([1, 0, 0, 0, 0])
    g = one / QSeries([1, -1, 0, 0, 0])
    assert g.coeffs == (1, 1, 1, 1, 1)


def test_division_cancels_common_valuation():
    # (q + q^2) / q = 1 + q, with one order lost to the cancelled power
    num = QSeries([0, 1, 1])
    den = QSeries([0, 1, 0])
    assert (num / den).coeffs == (1, 1)


def test_division_by_nonunit_raises():
    with pytest.raises(DivisionByNonUnit):
        QSeries([1, 1]) / QSeries([0, 1])  # dividend valuation too small
    with pytest.raises(DivisionByNonUnit):
        QSeries([1, 1]) / QSeries([0, 0])
    with pytest.raises(ZeroDivisionError):
        QSeries([1, 1]) / 0


def test_sqrt_of_one_plus_q():
    # (1+q)^(1/2) = 1 + q/2 - q^2/8 + q^3/16 - 5q^4/128 (binomial series)
    s = QSeries([1, 1, 0, 0, 0])
    assert s.pow_rational(F(1, 2)).coeffs == (
        1,
        F(1, 2),
        F(-1, 8),
        F(1, 16),
        F(-5, 128),
    )


def test_pow_rational_requires_unit_one():
    with pytest.raises(NonUnitBase):
        QSeries([2, 1]).pow_rational(F(1, 2))
    with pytest.raises(NonUnitBase):
        QSeries([0, 1]).pow_rational(F(1, 2))


def test_integer_pow():
    s = QSeries([1, 1, 0, 0])
    assert s.pow_rational(3).coeffs == (1, 3, 3, 1)
    assert s.pow_rational(0).coeffs == (1, 0, 0, 0)


def test_compose_geometric():
    outer = QSeries([1, 1, 1, 1])
    inner = QSeries([0, 2, 0, 0])
    assert outer.compose(inner).coeffs == (1, 2, 4, 8)


def test_compose_requires_vanishing_inner_constant():
    with pytest.raises(NonvanishingInnerConstant):
        QSeries([1, 1]).compose(QSeries([1, 1]))


def test_compose_order_respects_inner_valuation():
    # inner ~ q^2 means outer term k contributes from exponent 2k
    outer = QSeries([1, 1, 1])
    inner = QSeries([0, 0, 1, 0, 0, 0])
    out = outer.compose(inner)
    assert out.order == min(inner.order, outer.order * 2)
    assert out.coeffs == (1, 0, 1, 0, 1, 0)


def test_derive_multiplies_by_exponent():
    s = QSeries([1, 2, 3])
    assert s.derive().coeffs == (0, 2, 6)


def test_truncate_never_extends():
    s = QSeries([1, 2, 3])
    assert s.truncate(2).coeffs == (1, 2)
    assert s.truncate(10).coeffs == (1, 2, 3)


def test_shift_is_exact():
    s = QSeries([1, 2])
    assert s.shift(2).coeffs == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_prefix_equality():
    assert QSeries([1, 2, 3]) == QSeries([1, 2])
    assert QSeries([1, 2, 3]) != QSeries([1, 5])
    assert QSeries([1]) == QSeries([1, 999])  # only the shared prefix counts


def test_valuation():
    assert QSeries([0, 0, 5]).valuation() == 2
    assert QSeries([3]).valuation() == 0
    assert QSeries([0, 0, 0, 0]).valuation() is None
    assert QSeries([0, 0, 0, 0]).is_zero()


# ---------------------------------------------------------- PuiseuxSeries


def test_puiseux_normalizes_valuation_into_offset():
    p = PuiseuxSeries(F(1, 2), QSeries([0, 0, 3, 1]))
    assert p.offset == F(5, 2)
    assert p.body.coeffs == (3, 1)
    assert p.leading == 3


def test_puiseux_zero_is_exact_zero():
    p = PuiseuxSeries(F(1, 3), QSeries([0, 0, 0, 0]))
    assert p.is_zero()
    assert p == PuiseuxSeries(7, QSeries([0, 0]))  # zero regardless of offset


def test_puiseux_addition_requires_integer_gap():
    a = PuiseuxSeries(F(1, 2), QSeries([1, 1]))
    b = PuiseuxSeries(F(3, 2), QSeries([1, 1]))
    assert (a + b).offset == F(1, 2)
    assert (a + b).body.coeffs == (1, 2)
    c = PuiseuxSeries(F(1, 3), QSeries([1, 1]))
    with pytest.raises(IncompatibleOffsets):
        a + c


def test_puiseux_add_scalar_only_at_integer_offsets():
    p = PuiseuxSeries(0, QSeries([1, 2, 3]))
    assert (p + 1).body.coeffs == (2, 2, 3)
    frac = PuiseuxSeries(F(1, 2), QSeries([1, 1]))
    with pytest.raises(IncompatibleOffsets):
        frac + 1


def test_puiseux_mul_adds_offsets():
    a = PuiseuxSeries(F(1, 2), QSeries([1, 1]))
    b = PuiseuxSeries(F(1, 3), QSeries([2, 0]))
    p = a * b
    assert p.offset == F(5, 6)
    assert p.body.coeffs == (2, 2)


def test_puiseux_division():
    a = PuiseuxSeries(F(3, 2), QSeries([2, 2]))
    b = PuiseuxSeries(F(1, 2), QSeries([1, 1]))
    p = a / b
    assert p.offset == 1
    assert p.body.coeffs == (2, 0)
    with pytest.raises(DivisionByNonUnit):
        a / PuiseuxSeries(0, QSeries([0, 0, 0]))


def test_puiseux_scalar_reciprocal():
    p = PuiseuxSeries(F(1, 2), QSeries([1, 1, 0]))
    inv = 1 / p
    assert inv.offset == F(-1, 2)
    assert inv.body.coeffs == (1, -1, 1)


def test_puiseux_derive_uses_q_d_dq():
    # D(q^(1/2)(1 + q)) = q^(1/2)(1/2 + 3/2 q)
    p = PuiseuxSeries(F(1, 2), QSeries([1, 1]))
    d = p.derive()
    assert d.offset == F(1, 2)
    assert d.body.coeffs == (F(1, 2), F(3, 2))


def test_puiseux_derive_kills_constants():
    p = PuiseuxSeries(0, QSeries([5, 0, 7]))
    d = p.derive()
    assert d.offset == 2
    assert d.body.coeffs == (14,)


def test_puiseux_sqrt_drops_scalar_root():
    # sqrt(q (4 + 4q + q^2)) -> unit-normalized: q^(1/2)(1 + q/2 + 0 q^2)
    p = PuiseuxSeries(1, QSeries([4, 4, 1]))
    r = p.sqrt()
    assert r.offset == F(1, 2)
    assert r.leading == 1
    assert r.body.coeffs == (1, F(1, 2), 0)


# ------------------------------------------------------------- properties

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def qseries(order: int = 6, nonzero_constant: bool = False):
    head = (
        rationals.filter(lambda x: x != 0)
        if nonzero_constant
        else rationals
    )
    return st.tuples(head, *([rationals] * (order - 1))).map(QSeries)


@given(qseries(), qseries(), qseries())
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qseries(), qseries(nonzero_constant=True))
@settings(max_examples=60)
def test_mul_div_roundtrip(a, b):
    assert (a * b) / b == a


@given(qseries(), qseries())
@settings(max_examples=60)
def test_leibniz_rule(a, b):
    assert (a * b).derive() == a.derive() * b + a * b.derive()


@given(qseries(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_pow_rational_matches_integer_pow(a, k):
    u = QSeries((1,) + a.coeffs[1:])  # force unit constant term
    product = QSeries([1] + [0] * (u.order - 1))
    for _ in range(k):
        product = product * u
    assert u.pow_rational(k) == product


@given(qseries(), st.fractions(max_denominator=6).filter(lambda x: x != 0))
@settings(max_examples=60)
def test_pow_rational_roundtrip(a, alpha):
    u = QSeries((1,) + a.coeffs[1:])
    assert u.pow_rational(alpha).pow_rational(1 / alpha) == u


@given(qseries(nonzero_constant=True))
@settings(max_examples=60)
def test_self_division_is_one(a):
    assert a / a == QSeries([1] + [0] * (a.order - 1))


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    qseries(nonzero_constant=True),
)
@settings(max_examples=60)
def test_puiseux_sqrt_squares_back(offset, body):
    p = PuiseuxSeries(2 * offset, QSeries((1,) + body.coeffs[1:]))
    r = p.sqrt()
    assert r * r == p
    assert r.leading == 1


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    qseries(),
    qseries(),
)
@settings(max_examples=60)
def test_puiseux_leibniz(offset, b1, b2):
    x = PuiseuxSeries(offset, b1)
    y = PuiseuxSeries(offset, b2)
    assert (x * y).derive() == x.derive() * y + x * y.derive()


# ---------------------------------------------------- kernels vs reference
#
# The product kernels compute on integer numerators over a common
# denominator, division and rational powers on integer numerators over a
# running one, and rational powers use the power recurrence.  These
# plain-Fraction loops are the reference they must reproduce exactly:
# Cauchy product, Horner composition, repeated products, long division,
# exp(alpha log u).


def ref_mul(a, b, target):
    out = [F(0)] * target
    for i in range(min(target, len(a))):
        for j in range(min(target - i, len(b))):
            out[i + j] += a[i] * b[j]
    return out


def ref_compose(outer, inner):
    v = next(i for i, c in enumerate(inner) if c)
    target = min(len(inner), len(outer) * v)
    acc = [F(0)] * target
    acc[0] = outer[-1]
    for c in reversed(outer[:-1]):
        acc = ref_mul(acc, inner, target)
        acc[0] += c
    return acc


def ref_pow(a, k):
    out = [F(1)] + [F(0)] * (len(a) - 1)
    for _ in range(k):
        out = ref_mul(out, a, len(a))
    return out


def ref_div(a, b):
    """a / b by long division, after cancelling the valuation v of b."""
    v = next(i for i, c in enumerate(b) if c)
    a, b = a[v:], b[v:]
    n = min(len(a), len(b))
    rem = list(a[:n])
    out = []
    for i in range(n):
        c = rem[i] / b[0]
        out.append(c)
        for j in range(1, n - i):
            rem[i + j] -= c * b[j]
    return out


def ref_pow_rational(u, alpha):
    """exp(alpha log u) for u[0] == 1, with log u integrated from Du / u."""
    n = len(u)
    dlog = [F(0)] * n
    rem = [i * c for i, c in enumerate(u)]
    for i in range(n):
        dlog[i] = rem[i]
        for j in range(1, n - i):
            rem[i + j] -= dlog[i] * u[j]
    v = [F(0)] + [alpha * dlog[k] / k for k in range(1, n)]
    e = [F(1)] + [F(0)] * (n - 1)
    for k in range(1, n):
        e[k] = sum(j * v[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


def exact(cs):
    """Coefficients as (numerator, denominator) pairs, for bit-identity."""
    return [(c.numerator, c.denominator) for c in cs]


integers = st.integers(min_value=-10**6, max_value=10**6).map(F)
mixed = st.one_of(
    integers,
    st.just(F(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@st.composite
def kernel_coeffs(draw, min_size=1, max_size=25):
    """Integer-only or mixed-denominator coefficients, zeros included."""
    element = draw(st.sampled_from([integers, mixed]))
    return draw(st.lists(element, min_size=min_size, max_size=max_size))


@st.composite
def inner_series(draw):
    """q**v (c + ...) with v in 1..3, c nonzero, 1 to 25 coefficients."""
    v = draw(st.integers(min_value=1, max_value=3))
    lead = draw(mixed.filter(lambda x: x != 0))
    rest = draw(kernel_coeffs(min_size=0, max_size=24 - v))
    return [F(0)] * v + [lead] + rest


@given(kernel_coeffs(), kernel_coeffs())
@settings(max_examples=150, deadline=None)
def test_mul_kernel_matches_fraction_reference(a, b):
    out = (QSeries(a) * QSeries(b)).coeffs
    assert all(type(c) is F for c in out)
    assert exact(out) == exact(ref_mul(a, b, min(len(a), len(b))))


@given(kernel_coeffs(), inner_series())
@settings(max_examples=150, deadline=None)
def test_compose_kernel_matches_fraction_reference(outer, inner):
    out = QSeries(outer).compose(QSeries(inner)).coeffs
    assert all(type(c) is F for c in out)
    assert exact(out) == exact(ref_compose(outer, inner))


@st.composite
def division_pairs(draw):
    """(a, b) with b = q**v (c + ...), c nonzero of either sign and often not
    1, zeros inside b, and a of valuation >= v, shorter or longer than b."""
    v = draw(st.integers(min_value=0, max_value=3))
    lead = draw(mixed.filter(lambda x: x != 0))
    rest = draw(st.lists(st.one_of(st.just(F(0)), mixed), max_size=24 - v))
    a = draw(kernel_coeffs(min_size=1, max_size=25 - v))
    return [F(0)] * v + a, [F(0)] * v + [lead] + rest


@given(division_pairs())
@example(([F(1), F(2)], [F(-3, 2), F(0), F(5), F(7)]))
@example(([F(0), F(0), F(4), F(1), F(-1)], [F(0), F(0), F(-2), F(0), F(3, 7), F(1)]))
@settings(max_examples=150, deadline=None)
def test_div_kernel_matches_fraction_reference(pair):
    a, b = pair
    out = (QSeries(a) / QSeries(b)).coeffs
    assert all(type(c) is F for c in out)
    assert exact(out) == exact(ref_div(a, b))


# integer powers of a unit base by the power recurrence: one term, zeros
# inside, and the power 0
@given(kernel_coeffs(min_size=0, max_size=14), st.integers(min_value=0, max_value=6))
@example([], 3)
@example([F(0), F(-2, 3), F(0), F(1, 5)], 4)
@example([F(7)], 0)
@settings(max_examples=100, deadline=None)
def test_pow_kernel_matches_fraction_reference(rest, k):
    u = [F(1)] + rest
    out = QSeries(u).pow_rational(k).coeffs
    assert all(type(c) is F for c in out)
    assert exact(out) == exact(ref_pow(u, k))


alphas = st.one_of(
    st.fractions(min_value=-6, max_value=-F(1, 12), max_denominator=12),
    st.just(F(1, 2)),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@given(kernel_coeffs(min_size=0, max_size=19), alphas)
@settings(max_examples=100, deadline=None)
def test_pow_rational_matches_exp_log_reference(rest, alpha):
    u = [F(1)] + rest
    out = QSeries(u).pow_rational(alpha).coeffs
    assert all(type(c) is F for c in out)
    assert exact(out) == exact(ref_pow_rational(u, alpha))


def ode_term(c, i):
    """q**i coefficient of an ODE coefficient: a list, or a constant."""
    if isinstance(c, list):
        return c[i]
    return F(c) if i == 0 else F(0)


def indicial(coefficients, x):
    return sum(ode_term(c, 0) * x**p for p, c in enumerate(coefficients))


def ref_solve_ode(coefficients, exponent, order):
    """g = 1 + ... with sum_p P_p D**p (q**exponent g) = 0, from the
    coefficient of q**(exponent + k) summed over plain Fractions."""
    g = [F(1)]
    for k in range(1, order):
        rhs = sum(
            ode_term(c, k - j) * (exponent + j) ** p * g[j]
            for p, c in enumerate(coefficients)
            for j in range(k)
        )
        g.append(-rhs / indicial(coefficients, exponent + k))
    return g


@st.composite
def odes(draw):
    """(P_0, P_1, P_2), exponent and order: each P_p a list of ``order``
    rationals or an int or Fraction constant, and P_0[0] chosen so the
    exponent is a root of the indicial polynomial."""
    order = draw(st.integers(min_value=1, max_value=20))
    constant = st.one_of(
        st.integers(min_value=-20, max_value=20),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    series = st.lists(mixed, min_size=order, max_size=order)
    coefficients = [draw(st.one_of(constant, series)) for _ in range(3)]
    exponent = draw(st.fractions(min_value=-3, max_value=3, max_denominator=12))
    c0 = coefficients[0]
    lead = ode_term(c0, 0) - indicial(coefficients, exponent)
    if isinstance(c0, list):
        coefficients[0] = [lead] + c0[1:]
    else:
        coefficients[0] = int(lead) if lead.denominator == 1 else lead
    return coefficients, exponent, order


@given(odes())
@settings(max_examples=150, deadline=None)
def test_solve_ode_matches_fraction_reference(ode):
    coefficients, exponent, order = ode
    assume(all(indicial(coefficients, exponent + k) for k in range(1, order)))
    ps = [QSeries(c) if isinstance(c, list) else c for c in coefficients]
    g = solve_ode(ps, exponent, order)
    assert g.order == order
    assert exact(g.coeffs) == exact(ref_solve_ode(coefficients, exponent, order))
    # sum_p P_p D**p f vanishes through q**(exponent + order - 1)
    f = PuiseuxSeries(exponent, g)
    assert apply_ode(ps, f).numerators == (0,) * order
    terms = []
    for p in ps:
        terms.append(p * f)
        f = f.derive()
    residual = terms[0] + terms[1] + terms[2]
    assert residual.is_zero()
    assert residual.offset + residual.order == exponent + order


def test_solve_ode_refuses_short_coefficients_and_resonance():
    with pytest.raises(ValueError, match="P_0 has 2 terms, need 3"):
        solve_ode((QSeries([0, 2]), 1), 0, 3)
    with pytest.raises(ValueError, match="P_1 has 2 terms, need 3"):
        apply_ode((1, QSeries([0, 2])), PuiseuxSeries(F(1, 2), QSeries([1, 2, 3])))
    # D^2 f - 2 D f = 0 has W(k) = k (k - 2), which vanishes at k = 2
    assert solve_ode((0, -2, 1), 0, 2).coeffs == (1, 0)
    with pytest.raises(ZeroDivisionError):
        solve_ode((0, -2, 1), 0, 3)


def ref_apply_ode(coefficients, offset, body):
    """sum_p P_p D**p f for f = q**offset body, at f's offset and to its
    order: D multiplies q**(offset + j) by offset + j, and each product
    with P_p is a Cauchy product."""
    out = [F(0)] * len(body)
    for p, c in enumerate(coefficients):
        derived = [(offset + j) ** p * x for j, x in enumerate(body)]
        for k in range(len(body)):
            out[k] += sum(ode_term(c, k - j) * derived[j] for j in range(k + 1))
    return out


@st.composite
def operators(draw):
    """(P_0 .. P_p), p < 4, each a list at least as long as the body or an
    int or Fraction constant, a rational offset and the body."""
    body = draw(kernel_coeffs(max_size=20))
    constant = st.one_of(
        st.integers(min_value=-20, max_value=20),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    series = st.integers(0, 3).flatmap(
        lambda n: st.lists(mixed, min_size=len(body) + n, max_size=len(body) + n)
    )
    coefficients = draw(st.lists(st.one_of(constant, series), min_size=1, max_size=4))
    offset = draw(st.fractions(min_value=-3, max_value=3, max_denominator=12))
    return coefficients, offset, body


@given(operators())
@settings(max_examples=150, deadline=None)
def test_apply_ode_matches_fraction_reference(operator):
    coefficients, offset, body = operator
    ps = [QSeries(c) if isinstance(c, list) else c for c in coefficients]
    f = PuiseuxSeries(offset, QSeries(body))  # absorbs leading zeros of the body
    out = apply_ode(ps, f)
    assert out.order == f.order
    want = ref_apply_ode(coefficients, f.offset, list(f.body.coeffs))
    assert exact(out.coeffs) == exact(want)


# The linear operations, derive, truncate, shift and == compute on integer
# numerators over one denominator; these plain-Fraction loops are their
# reference.

scalars = st.one_of(mixed, st.integers(min_value=-50, max_value=50))


def ref_add(a, b, sign=1):
    return [x + sign * y for x, y in zip(a, b)]


def padded(s, order):
    return [F(s)] + [F(0)] * (order - 1)


@given(kernel_coeffs(), kernel_coeffs(), scalars)
@settings(max_examples=150, deadline=None)
def test_add_sub_match_fraction_reference(a, b, s):
    x, y = QSeries(a), QSeries(b)
    assert exact((x + y).coeffs) == exact(ref_add(a, b))
    assert exact((x - y).coeffs) == exact(ref_add(a, b, -1))
    assert exact((x + s).coeffs) == exact(ref_add(a, padded(s, len(a))))
    assert exact((s + x).coeffs) == exact(ref_add(a, padded(s, len(a))))
    assert exact((x - s).coeffs) == exact(ref_add(a, padded(s, len(a)), -1))
    assert exact((s - x).coeffs) == exact(ref_add(padded(s, len(a)), a, -1))
    assert exact((-x).coeffs) == exact([-c for c in a])


@given(kernel_coeffs(), scalars)
@settings(max_examples=150, deadline=None)
def test_scalar_mul_div_match_fraction_reference(a, s):
    x = QSeries(a)
    assert exact((x * s).coeffs) == exact([c * s for c in a])
    assert exact((s * x).coeffs) == exact([s * c for c in a])
    if s:
        assert exact((x / s).coeffs) == exact([c / F(s) for c in a])


@given(kernel_coeffs(), st.integers(min_value=1, max_value=30), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_derive_truncate_shift_match_fraction_reference(a, order, k):
    x = QSeries(a)
    assert exact(x.derive().coeffs) == exact([i * c for i, c in enumerate(a)])
    assert exact(x.truncate(order).coeffs) == exact(a[:order])
    assert exact(x.shift(k).coeffs) == exact([F(0)] * k + a)


@given(kernel_coeffs(), kernel_coeffs(min_size=0), st.integers(0, 25), scalars)
@settings(max_examples=150, deadline=None)
def test_prefix_equality_matches_fraction_reference(a, tail, cut, s):
    # b shares a prefix of a, then continues with other coefficients, so
    # its common denominator generally differs from a's
    b = a[: max(1, cut)] + tail
    n = min(len(a), len(b))
    assert (QSeries(a) == QSeries(b)) == (a[:n] == b[:n])
    c = list(b)
    c[min(cut, len(c) - 1)] += 1
    assert (QSeries(a) == QSeries(c)) == (a[:n] == c[:n])
    assert QSeries(a) == QSeries(a[: max(1, cut)]) == QSeries(a + [F(s)])


@given(kernel_coeffs(), kernel_coeffs(), scalars.filter(lambda x: x != 0))
@settings(max_examples=100, deadline=None)
def test_results_are_stored_in_lowest_terms(a, b, s):
    """The integer view: numerators over a positive denominator sharing no factor."""
    x, y = QSeries(a), QSeries(b)
    results = [x, x + y, x - y, s - x, x * s, x / s, -x, x.derive(), x * y]
    results += [x.truncate(1 + len(a) // 2), x.shift(2)]
    results.append(PuiseuxSeries(F(1, 3), x).derive().body)
    for r in results:
        assert r.denominator > 0
        assert gcd(r.denominator, *r.numerators) == 1
        assert r.coeffs == tuple(F(n, r.denominator) for n in r.numerators)


def puiseux_terms(offset, body):
    """{exponent: coefficient} of q**offset * body, and the exclusive bound."""
    return {offset + i: c for i, c in enumerate(body)}, offset + len(body)


def check_terms(p, terms, bound):
    """p agrees with the reference terms (missing ones are 0) below bound."""
    if p.is_zero():
        assert not any(terms.values())
        return
    assert p.offset + p.order == bound
    for i, c in enumerate(p.body.coeffs):
        assert c == terms.get(p.offset + i, 0)
    assert not any(c for e, c in terms.items() if e < p.offset)


offsets = st.fractions(min_value=-3, max_value=3, max_denominator=12)
nonzero_bodies = kernel_coeffs(max_size=12).filter(any)


@given(offsets, st.integers(-8, 8), nonzero_bodies, nonzero_bodies)
@settings(max_examples=150, deadline=None)
def test_puiseux_add_sub_match_fraction_reference(offset, gap, a, b):
    x = PuiseuxSeries(offset, QSeries(a))
    y = PuiseuxSeries(offset + gap, QSeries(b))
    ta, ea = puiseux_terms(offset, a)
    tb, eb = puiseux_terms(offset + gap, b)
    bound = min(ea, eb)
    for sign, got in ((1, x + y), (-1, x - y)):
        terms = {e: ta.get(e, 0) + sign * tb.get(e, 0) for e in set(ta) | set(tb)}
        check_terms(got, {e: c for e, c in terms.items() if e < bound}, bound)


@given(offsets, nonzero_bodies)
@settings(max_examples=150, deadline=None)
def test_puiseux_derive_matches_fraction_reference(offset, a):
    terms, bound = puiseux_terms(offset, a)
    check_terms(
        PuiseuxSeries(offset, QSeries(a)).derive(),
        {e: e * c for e, c in terms.items()},
        bound,
    )


def test_only_series_reaches_its_private_names():
    """No module but series.py imports an underscore name from .series:
    the integer numerators and their denominator stay its own business."""
    package = Path(__file__).resolve().parents[1] / "src" / "schwarzian"
    leaks = []
    for path in sorted(package.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "series"
                and node.level == 1
            ):
                leaks += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert leaks == []


def test_package_has_no_assert_statements():
    """Every check in the package raises a typed error; ``python -O``
    strips assert statements, so none may carry a check."""
    package = Path(__file__).resolve().parents[1] / "src" / "schwarzian"
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []

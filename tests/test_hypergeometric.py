"""Gauss-series, component-recipe and component-construction tests.

The in-test Pochhammer oracle recomputes 2F1 coefficients from the rising
factorial definition, independently of the package's term-ratio recurrence.
The components' two routes are checked against references built here:
F(1728/j) by substituting 1728/j into the 2F1 series (``QSeries.compose``),
which E4^-3P turns into the package's Phi, and the MLDE Frobenius series
from its recurrence over plain ``Fraction``s.  With sympy installed, the
equation the package solves for Phi is also proved symbolically, over Q(w),
and the raising step's map of each level's MLDE onto the next over Q(w, k).
"""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schwarzian import (
    HypergeomParams,
    InternalMismatch,
    InvalidC,
    PuiseuxSeries,
    QSeries,
    ReprData,
    base_forms,
    component_series,
    eisenstein,
    eta_power,
    hypergeom_coeffs,
    hypergeometric,
    j_inverse,
    minimal_form,
)
from schwarzian.acceptance import SHAPE_GRID

F = Fraction


def pochhammer(x: Fraction, k: int) -> Fraction:
    out = F(1)
    for i in range(k):
        out *= x + i
    return out


def oracle_coeffs(a, b, c, n):
    return [
        pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * pochhammer(F(1), k))
        for k in range(n)
    ]


def test_all_ones_when_a_b_c_collapse():
    p = HypergeomParams(1, 1, 1)
    assert list(hypergeom_coeffs(p, 6).coeffs) == [1] * 6


def test_linear_coefficient_for_first_component_params():
    p = HypergeomParams(F(13, 84), F(41, 84), F(8, 7))
    got = hypergeom_coeffs(p, 3)
    assert got[0] == 1
    assert got[1] == F(533, 8064)
    assert list(got.coeffs) == oracle_coeffs(F(13, 84), F(41, 84), F(8, 7), 3)


def test_symmetry_in_a_and_b():
    x = hypergeom_coeffs(HypergeomParams(F(1, 3), F(2, 5), F(7, 4)), 8)
    y = hypergeom_coeffs(HypergeomParams(F(2, 5), F(1, 3), F(7, 4)), 8)
    assert x == y


def test_invalid_c():
    for c in (0, -1, -5):
        with pytest.raises(InvalidC):
            HypergeomParams(F(1, 2), F(1, 3), c)


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(
        lambda c: not (c.denominator == 1 and c <= 0)
    ),
)
@settings(max_examples=60)
def test_recurrence_matches_pochhammer_definition(a, b, c):
    got = hypergeom_coeffs(HypergeomParams(a, b, c), 6)
    assert list(got.coeffs) == oracle_coeffs(a, b, c, 6)


def test_recipes_for_smallest_denominator():
    first, second = ReprData(7, 1).recipes
    assert first.params == HypergeomParams(F(13, 84), F(41, 84), F(8, 7))
    assert first.offset == F(4, 7)
    assert second.params == HypergeomParams(F(1, 84), F(29, 84), F(6, 7))
    assert second.offset == F(3, 7)


def test_second_recipe_is_sign_swapped_first():
    for m, n in ((7, 1), (7, 2), (9, 2), (11, 5)):
        first, second = ReprData(m, n).recipes
        assert first.signed_residue == n
        assert second.signed_residue == -n
        assert first.offset + second.offset == 1
        # swapping the sign of the residue swaps the recipes
        w = F(n, 2 * m)
        assert first.params.a == w + F(1, 12)
        assert second.params.a == -w + F(1, 12)


def test_component_series_shape():
    # component_series only assembles; vvmf.minimal_form checks offset and
    # unit leading (InternalMismatch otherwise), which hold for each part.
    for m, n in ((7, 1), (7, 2)):
        for rec in ReprData(m, n).recipes:
            s = component_series(rec, base_forms(10), 10)
            assert s.offset == rec.offset
            assert s.leading == 1
            assert s.order == 10
            # a shorter component from the same base forms is a prefix
            short = component_series(rec, base_forms(10), 6)
            assert short.order == 6 and short == s


def test_base_forms_raises_on_every_call_for_order_zero():
    # lru_cache does not cache an exception
    for _ in range(2):
        with pytest.raises(ValueError, match="order must be >= 1"):
            base_forms(0)
    assert base_forms.cache_info().currsize == 0


def hypergeometric_imports():
    """Every name hypergeometric imports, as "module:name" or "module"."""
    path = Path(hypergeometric.__file__)
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported += [f"{module}:{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return imported


def test_hypergeometric_imports_nothing_from_vvmf():
    """The recipes come from ``vvmf.ReprData``; hypergeometric, which vvmf
    imports, reads no name of vvmf back."""
    imported = hypergeometric_imports()
    assert imported and not [name for name in imported if "vvmf" in name]


def test_hypergeometric_imports_no_verification_error():
    """Assembly only: ``vvmf`` checks the components, so hypergeometric
    raises no verification error and imports only InvalidC from errors."""
    errors = [name for name in hypergeometric_imports() if name.startswith(".errors")]
    assert errors == [".errors:InvalidC"]


def divisor_series(power, factor, order):
    """1 + factor sum sigma_power(n) q^n, by direct divisor enumeration."""
    return [F(1)] + [
        F(factor * sum(d**power for d in range(1, n + 1) if n % d == 0))
        for n in range(1, order)
    ]


def mlde_reference(m, s, order):
    """Body of the Frobenius series q^alpha (1 + ...), alpha = (m + s)/2m, of
    D^2 f - E2 D f + (5/24) E2^2 f + (1/24 - s^2/4m^2) E4 f = 0, from
    c_k k (k + 2 alpha - 1) = sum_{j<k} [E2_{k-j} (alpha + j)
    - (5/24) (E2^2)_{k-j} - (1/24 - s^2/4m^2) E4_{k-j}] c_j."""
    alpha = F(m + s, 2 * m)
    lam = F(1, 24) - F(s * s, 4 * m * m)
    e2 = divisor_series(1, -24, order)
    e4 = divisor_series(3, 240, order)
    e2sq = [sum(e2[i] * e2[k - i] for i in range(k + 1)) for k in range(order)]
    c = [F(1)]
    for k in range(1, order):
        acc = sum(
            (e2[k - j] * (alpha + j) - F(5, 24) * e2sq[k - j] - lam * e4[k - j]) * c[j]
            for j in range(k)
        )
        c.append(acc / (k * (k + 2 * alpha - 1)))
    return c


def check_both_routes(m, n_prime, order):
    """Each component is (Delta/q)^alpha Phi, with Phi = E4^-3P F(1728/j) for
    F substituted here, and equals the MLDE's Frobenius series.  The two
    components' alphas, 1/2 +- n'/2m, sum to 1, so their (Delta/q)^alpha
    multiply to Delta/q."""
    base = base_forms(order)
    jinv = j_inverse(order + 1)
    e4 = eisenstein(4, order)
    delta_powers = []
    for rec in ReprData(m, n_prime).recipes:
        substituted = hypergeom_coeffs(rec.params, order).compose(jinv)
        phi = hypergeometric.gauged_2f1(rec, base, order)
        assert substituted * e4.pow_rational(-3 * rec.params.a) == phi
        component = component_series(rec, base, order)
        assert component.offset == rec.offset
        assert component.order == order
        assert list(component.body.coeffs) == mlde_reference(m, rec.signed_residue, order)
        delta_powers.append(component.body / phi)
    assert delta_powers[0] * delta_powers[1] == eta_power(24, order).body


@pytest.mark.parametrize("m, n_prime", SHAPE_GRID)
def test_components_match_substitution_and_mlde_on_shape_grid(m, n_prime):
    check_both_routes(m, n_prime, 40)


# m as large as test_solver's Frobenius-ratio property draws, at small orders
PAIRS = st.integers(7, 1009).flatmap(
    lambda m: st.tuples(
        st.just(m), st.integers(1, m - 1).filter(lambda n: gcd(m, n) == 1)
    )
)


@given(PAIRS, st.integers(2, 25))
@example((1009, 1), 8)
@example((1009, 500), 8)
@example((997, 13), 12)
@example((101, 50), 25)
@settings(max_examples=40, deadline=None)
def test_components_match_substitution_and_mlde(pair, order):
    check_both_routes(*pair, order)


@pytest.mark.parametrize("route", ["gauged_2f1", "mlde_coefficients"])
@pytest.mark.parametrize("index", [0, 1, 4, 11])
def test_bumped_route_names_its_index(monkeypatch, route, index):
    """One coefficient of either route, Phi = E4^-3P F(1728/j) or the MLDE's
    P0, bumped by 1/3 makes the minimal form fail at exactly that index: a
    bumped Phi its unit-leading check at q^0 and ``vvmf.mlde_check`` above,
    a bumped P0 ``vvmf.mlde_check`` at every index."""
    original = getattr(hypergeometric, route)

    def bump(series):
        cs = list(series.coeffs)
        cs[index] += F(1, 3)
        return QSeries(cs)

    def bumped(*args):
        out = original(*args)
        return bump(out) if route == "gauged_2f1" else (bump(out[0]), *out[1:])

    monkeypatch.setattr(hypergeometric, route, bumped)
    with pytest.raises(InternalMismatch) as info:
        minimal_form(ReprData(9, 4), 14)
    assert info.value.index == index


def test_component_equals_the_substituted_formula():
    # the assembled body is eta^10 (1728/j)^P / 1728^P times F(1728/j), with
    # the prefactor built here from eta^10 and 1728/j by rational powers
    order = 20
    jinv = j_inverse(order + 1)
    u = PuiseuxSeries(0, jinv).body / 1728
    for rec in ReprData(11, 3).recipes:
        prefactor = eta_power(10, order).body * u.pow_rational(rec.params.a)
        want = prefactor * hypergeom_coeffs(rec.params, order).compose(jinv)
        assert component_series(rec, base_forms(order), order).body == want


def test_reduced_equation_symbolically():
    """Phi's reduced equation, proved over Q(w) for every (m, n') at once,
    with E2, E4, E6 as symbols and D acting by Ramanujan's identities:

    1. D(1728/j) = (1728/j) E6/E4, with 1728/j = (E4^3 - E6^2)/E4^3;
    2. with theta = (E4/E6) D, F = E4^3a Phi and (a, b; c) = (w + 1/12,
       w + 5/12; 2w + 1), the Gauss operator theta (theta + c - 1) F
       - z (theta + a)(theta + b) F equals
       E4^(3a - 1) (D^2 + 2w E2 D + w (12w + 1) D E2) Phi;
    3. with alpha = 1/2 + w and D Delta = E2 Delta, the weight-5
       Kaneko-Zagier operator applied to Delta^alpha Phi equals
       Delta^alpha times that reduced operator applied to Phi.
    """
    sympy = pytest.importorskip("sympy")
    w, e2, e4, e6 = sympy.symbols("w E2 E4 E6")
    e4_3a, delta_alpha = sympy.symbols("E4_3a Delta_alpha")  # E4^3a, Delta^alpha
    phi = sympy.symbols("Phi0:4")  # Phi, D Phi, D^2 Phi, D^3 Phi
    a, b, c = w + sympy.Rational(1, 12), w + sympy.Rational(5, 12), 2 * w + 1
    alpha = sympy.Rational(1, 2) + w
    de2, de4 = (e2**2 - e4) / 12, (e2 * e4 - e6) / 3
    derivative = {
        e2: de2,
        e4: de4,
        e6: (e2 * e6 - e4**2) / 2,
        e4_3a: 3 * a * e4_3a * de4 / e4,
        delta_alpha: alpha * e2 * delta_alpha,  # D Delta = E2 Delta
        **{phi[k]: phi[k + 1] for k in range(3)},
    }

    def D(f):  # noqa: N802
        return sum(sympy.diff(f, x) * dx for x, dx in derivative.items())

    def is_zero(f):
        return sympy.cancel(sympy.together(f)) == 0

    z = (e4**3 - e6**2) / e4**3
    assert is_zero(D(z) - z * e6 / e4)

    def theta(f):
        return e4 / e6 * D(f)

    F = e4_3a * phi[0]
    theta_f = theta(F)
    theta2_f = theta(theta_f)
    gauss = theta2_f + (c - 1) * theta_f
    gauss -= z * (theta2_f + (a + b) * theta_f + a * b * F)
    reduced = phi[2] + 2 * w * e2 * phi[1] + w * (12 * w + 1) * de2 * phi[0]
    assert is_zero(gauss - e4_3a / e4 * reduced)

    f = delta_alpha * phi[0]
    p0 = sympy.Rational(5, 24) * e2**2 + (sympy.Rational(1, 24) - w**2) * e4
    assert is_zero(D(D(f)) - e2 * D(f) + p0 * f - delta_alpha * reduced)


def test_raising_maps_each_level_onto_the_next_symbolically():
    """Raising, proved over Q(w, k) for every (m, n') and every level k at
    once, with E2, E4, E6 as symbols, D acting by Ramanujan's identities and
    D^2 f eliminated with the level-k MLDE (``mlde_scalars``):

    4. with pivot p = w + 1/12 + k/2, weight 5 + 6k and
       X = (1 + (5 + 6k)/12p) E6 + ((5 + 6k)/4p) D E4, as
       ``vvmf.raise_component`` builds them, g = X f - (1/p) E4 D f solves
       the level-(k + 1) MLDE whenever f solves the level-k one.

    With the pivot off by 1/12 the residual is not zero.  With the
    Frobenius uniqueness of the components at their exponents, this makes
    every raised component the paper's, so solve may raise the second one
    alone.
    """
    sympy = pytest.importorskip("sympy")
    w, k, e2, e4, e6 = sympy.symbols("w k E2 E4 E6")
    f = sympy.symbols("f0:2")  # f, D f

    def mlde(level):  # (e, a, b) of D^2 f - e E2 D f + (a E2^2 + b E4) f
        e = sympy.sympify(level) + 1
        return e, e * (6 * e - 1) / 24, e / 24 - (w + (e - 1) / 2) ** 2

    e, a, b = mlde(k)
    de4 = (e2 * e4 - e6) / 3
    derivative = {
        e2: (e2**2 - e4) / 12,
        e4: de4,
        e6: (e2 * e6 - e4**2) / 2,
        f[0]: f[1],
        f[1]: e * e2 * f[1] - (a * e2**2 + b * e4) * f[0],
    }

    def D(x):  # noqa: N802
        return sum(sympy.diff(x, s) * dx for s, dx in derivative.items())

    def residual(pivot):
        kappa = (5 + 6 * k) / (12 * pivot)
        g = ((1 + kappa) * e6 + 3 * kappa * de4) * f[0] - e4 / pivot * f[1]
        e1, a1, b1 = mlde(k + 1)
        return sympy.cancel(
            sympy.together(D(D(g)) - e1 * e2 * D(g) + (a1 * e2**2 + b1 * e4) * g)
        )

    pivot = w + sympy.Rational(1, 12) + k / 2
    assert residual(pivot) == 0
    assert residual(pivot - sympy.Rational(1, 12)) != 0
    # the package's scalars are these at a sample pair and level
    level, m, n_prime = 3, 7, 2
    assert hypergeometric.mlde_scalars(level, m, n_prime) == tuple(
        Fraction(str(x.subs(w, Fraction(n_prime, 2 * m)))) for x in mlde(level)
    )

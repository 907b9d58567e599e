"""Gauss-series, component-recipe and component-construction tests.

The in-test Pochhammer oracle recomputes 2F1 coefficients from the rising
factorial definition, independently of the package's term-ratio recurrence.
The components' two routes are checked against references built here:
F(1728/j) by substituting 1728/j into the 2F1 series (``QSeries.compose``),
and the MLDE Frobenius series from its recurrence over plain ``Fraction``s.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzian import (
    HypergeomParams,
    InvalidC,
    InvalidParameters,
    PuiseuxSeries,
    QSeries,
    RecipeInconsistent,
    base_forms,
    component_recipe,
    component_series,
    eta_power,
    hypergeom_coeffs,
    hypergeometric,
    j_inverse,
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
    first = component_recipe(7, 1, "first")
    assert first.params == HypergeomParams(F(13, 84), F(41, 84), F(8, 7))
    assert first.offset == F(4, 7)
    second = component_recipe(7, 1, "second")
    assert second.params == HypergeomParams(F(1, 84), F(29, 84), F(6, 7))
    assert second.offset == F(3, 7)


def test_second_recipe_is_sign_swapped_first():
    for m, n in ((7, 1), (7, 2), (9, 2), (11, 5)):
        first = component_recipe(m, n, "first")
        second = component_recipe(m, n, "second")
        assert first.signed_residue == n
        assert second.signed_residue == -n
        assert first.offset + second.offset == 1
        # swapping the sign of the residue swaps the recipes
        w = F(n, 2 * m)
        assert first.params.a == w + F(1, 12)
        assert second.params.a == -w + F(1, 12)


def test_recipe_validation():
    with pytest.raises(InvalidParameters):
        component_recipe(6, 1, "first")  # m too small
    with pytest.raises(InvalidParameters):
        component_recipe(7, 0, "first")
    with pytest.raises(InvalidParameters):
        component_recipe(7, 7, "first")
    with pytest.raises(InvalidParameters):
        component_recipe(8, 2, "first")  # not coprime
    with pytest.raises(InvalidParameters):
        component_recipe(7, 1, "third")


def test_component_series_shape():
    # component_series itself verifies offset and unit leading, raising
    # RecipeInconsistent otherwise; these assertions re-state the contract.
    for m, n in ((7, 1), (7, 2)):
        for which in ("first", "second"):
            rec = component_recipe(m, n, which)
            s = component_series(rec, base_forms(10))
            assert s.offset == rec.offset
            assert s.leading == 1
            assert s.order == 10


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
    base = base_forms(order)
    jinv = j_inverse(order + 1)
    for which in ("first", "second"):
        rec = component_recipe(m, n_prime, which)
        substituted = hypergeom_coeffs(rec.params, order).compose(jinv)
        assert hypergeometric.pulled_back_2f1(rec.params, base) == substituted
        component = component_series(rec, base)
        assert component.offset == rec.offset
        assert component.order == order
        assert list(component.body.coeffs) == mlde_reference(m, rec.signed_residue, order)


@pytest.mark.parametrize("m, n_prime", SHAPE_GRID)
def test_components_match_substitution_and_mlde_on_shape_grid(m, n_prime):
    check_both_routes(m, n_prime, 16)


@given(st.integers(7, 40), st.data(), st.integers(2, 25))
@settings(max_examples=40, deadline=None)
def test_components_match_substitution_and_mlde(m, data, order):
    n_prime = data.draw(
        st.integers(1, m - 1).filter(lambda n: gcd(m, n) == 1), label="n_prime"
    )
    check_both_routes(m, n_prime, order)


@pytest.mark.parametrize("route", ["pulled_back_2f1", "_mlde_series"])
@pytest.mark.parametrize("index", [0, 1, 4, 11])
def test_bumped_route_names_its_index(monkeypatch, route, index):
    """One coefficient of either route bumped by 1/3 makes the component fail
    the comparison of the two at exactly that index."""
    original = getattr(hypergeometric, route)

    def bumped(*args):
        out = original(*args)
        cs = list(out.coeffs)
        cs[index] += F(1, 3)
        return QSeries(cs)

    monkeypatch.setattr(hypergeometric, route, bumped)
    rec = component_recipe(9, 4, "second")
    with pytest.raises(RecipeInconsistent) as info:
        component_series(rec, base_forms(14))
    assert info.value.index == index


def test_component_equals_the_substituted_formula():
    # the assembled body is eta^10 (1728/j)^P / 1728^P times F(1728/j), with
    # the prefactor built here from eta^10 and 1728/j by rational powers
    order = 20
    jinv = j_inverse(order + 1)
    u = PuiseuxSeries(0, jinv).body / 1728
    for which in ("first", "second"):
        rec = component_recipe(11, 3, which)
        prefactor = eta_power(10, order).body * u.pow_rational(rec.outer_power)
        want = prefactor * hypergeom_coeffs(rec.params, order).compose(jinv)
        assert component_series(rec, base_forms(order)).body == want

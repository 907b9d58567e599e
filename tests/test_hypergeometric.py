"""Gauss-series and component-recipe tests.

The in-test Pochhammer oracle recomputes 2F1 coefficients from the rising
factorial definition, independently of the package's term-ratio recurrence.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzian import (
    HypergeomParams,
    InvalidC,
    InvalidParameters,
    component_recipe,
    component_series,
    hypergeom_coeffs,
    j_inverse,
)

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
            s = component_series(rec, j_inverse(11))
            assert s.offset == rec.offset
            assert s.leading == 1
            assert s.order == 10

"""Classical q-series tests against independently computed coefficients.

Golden arrays were produced by a brute-force helper (divisor sums summed
directly; eta products multiplied factor by factor) separate from the
package code, then frozen here.  The in-test eta oracle below re-derives
one of them from scratch so a regression cannot hide in shared code.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schwarzian import (
    InternalMismatch,
    OddExponent,
    PuiseuxSeries,
    QSeries,
    UnsupportedWeight,
    delta,
    eisenstein,
    eta_power,
    j_inverse,
    serre_derivative,
)
from schwarzian import forms

F = Fraction

# sigma_k(n) computed by direct divisor enumeration when these were frozen
E2_HEAD = [1, -24, -72, -96, -168, -144, -288, -192, -360, -312, -432]
E4_HEAD = [1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400]
E6_HEAD = [1, -504, -16632, -122976, -532728, -1575504, -4058208]

# eta^24 body: product over n of (1 - q^n)^24, multiplied out by hand/helper
ETA24_BODY = [1, -24, 252, -1472, 4830, -6048, -16744, 84480]

JINV_HEAD = [0, 1728, -1285632, 616294656, -242544070656, 85253786824320]


def test_eisenstein_goldens():
    assert list(eisenstein(2, len(E2_HEAD)).coeffs) == E2_HEAD
    assert list(eisenstein(4, len(E4_HEAD)).coeffs) == E4_HEAD
    assert list(eisenstein(6, len(E6_HEAD)).coeffs) == E6_HEAD


def test_eisenstein_rejects_other_weights():
    for k in (0, 3, 8, 10, 12):
        with pytest.raises(UnsupportedWeight):
            eisenstein(k, 5)


IDENTITIES = ("12 D E2 = E2^2 - E4", "3 D E4 = E2 E4 - E6")


def test_checked_eisenstein_returns_the_series_and_e2_squared():
    e2, e4, e6, e2_squared = forms.checked_eisenstein(40)
    assert (e2, e4, e6) == tuple(eisenstein(k, 40) for k in (2, 4, 6))
    assert e2_squared == e2 * e2
    for order in (1, 2):
        assert forms.checked_eisenstein(order)[0] == eisenstein(2, order)


ORDER_AND_INDEX = st.integers(2, 80).flatmap(
    lambda order: st.tuples(st.just(order), st.integers(0, order - 1))
)


@given(ORDER_AND_INDEX, st.sampled_from((2, 4, 6)), st.integers().filter(bool))
@example((2, 0), 2, -2)  # E2(0) = -1 leaves E2^2 right at q^0
@settings(max_examples=150, deadline=None)
def test_checked_eisenstein_stops_a_bump_at_its_index(order_and_index, k, bump):
    """One coefficient of E2, E4 or E6 off by ``bump`` at q^i fails an
    identity that reads that series, at q^i."""
    order, index = order_and_index
    original = forms.eisenstein

    def bumped(weight, n):
        out = original(weight, n)
        if weight != k:
            return out
        coeffs = list(out.coeffs)
        coeffs[index] += bump
        return QSeries(coeffs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "eisenstein", bumped)
        with pytest.raises(InternalMismatch) as caught:
            forms.checked_eisenstein(order)
    assert caught.value.index == index
    message = str(caught.value)
    [name] = [i for i in IDENTITIES if f"identity {i} fails at q^{index} by" in message]
    assert f"E{k}" in name


def euler_product_by_loop(order: int) -> list[int]:
    """prod (1 - q^n) to ``order``, one factor at a time, in place."""
    base = [1] + [0] * (order - 1)
    for n in range(1, order):
        for i in range(order - 1, n - 1, -1):
            base[i] -= base[i - n]
    return base


def test_eta_power_product_matches_the_factor_loop():
    # eta_power sums Euler's pentagonal series; equal squares with constant
    # term 1 have equal bases
    for order in range(1, 201):
        assert eta_power(2, order).body == QSeries(euler_product_by_loop(order)) ** 2


def brute_force_eta_body(exponent: int, order: int) -> list[Fraction]:
    """Multiply out prod_n (1 - q^n)**exponent with plain list convolution."""
    coeffs = [F(1)] + [F(0)] * (order - 1)
    for n in range(1, order):
        for _ in range(exponent):
            nxt = list(coeffs)
            for i in range(order - n):
                nxt[i + n] -= coeffs[i]
            coeffs = nxt
    return coeffs


def test_eta_power_against_brute_force():
    got = eta_power(24, 8)
    assert got.offset == 1  # 24/24
    assert list(got.body.coeffs) == ETA24_BODY
    assert brute_force_eta_body(24, 8) == ETA24_BODY  # golden is independent
    ten = eta_power(10, 12)
    assert ten.offset == F(5, 12)
    assert list(ten.body.coeffs) == brute_force_eta_body(10, 12)


def test_eta_power_offset_is_exponent_over_24():
    for e in (2, 4, 10, 24, 26):
        assert eta_power(e, 4).offset == F(e, 24)


def test_eta_power_rejects_bad_exponents():
    with pytest.raises(OddExponent):
        eta_power(3, 5)
    with pytest.raises(OddExponent):
        eta_power(0, 5)
    with pytest.raises(OddExponent):
        eta_power(-2, 5)


def test_delta_head():
    assert list(delta(3).coeffs) == [0, 1, -24]
    assert list(delta(8).coeffs) == [0] + ETA24_BODY[:7]


def test_delta_two_routes_agree_deeply():
    # delta() itself compares its eta route against (E4^3 - E6^2)/1728 and
    # raises on the first mismatch; surviving to return IS the check.
    d = delta(60)
    e4, e6 = eisenstein(4, 60), eisenstein(6, 60)
    assert d * 1728 == e4**3 - e6**2


def test_j_inverse_golden():
    assert list(j_inverse(len(JINV_HEAD)).coeffs) == JINV_HEAD


def test_j_inverse_times_e4_cubed_is_1728_delta():
    order = 30
    assert j_inverse(order) * eisenstein(4, order) ** 3 == delta(order) * 1728


def test_ramanujan_identities():
    order = 10
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    assert serre_derivative(e4, 4) == e6 * F(-1, 3)
    assert serre_derivative(e6, 6) == e4 * e4 * F(-1, 2)
    assert serre_derivative(delta(order), 12).is_zero()


def test_serre_derivative_on_puiseux():
    # D_k(q^a u) carries the same formula with the fractional exponent live
    p = eta_power(24, 10)  # weight-12 object as a Puiseux series
    out = serre_derivative(p, 12)
    assert out.is_zero()


def test_serre_derivative_rejects_other_types():
    with pytest.raises(TypeError):
        serre_derivative([1, 2], 4)


"""Vector-form tests: shapes, Wronskians, and weight raising.

The frozen constants ((7,2) component coefficients, Wronskian constants at
three consecutive weights, the raising ratios) were computed with a
standalone script that assembled the same objects from scratch with plain
list arithmetic, before this package existed.
"""

import hashlib
from fractions import Fraction

import pytest

from schwarzian import forms, vvmf
from schwarzian import (
    InvalidParameters,
    MINIMAL_WEIGHT,
    NotProportionalToDeltaPower,
    PuiseuxSeries,
    QSeries,
    ReprData,
    c1_closed_form,
    c2_closed_form,
    eta_power,
    minimal_form,
    raise_weight,
    raising_constants,
    solve,
    wronskian,
    wronskian_check,
)

F = Fraction

GRID = ((7, 1), (7, 2), (7, 3), (8, 3), (9, 2), (11, 5), (12, 5))


def test_repr_data_validation():
    with pytest.raises(InvalidParameters):
        ReprData(6, 1)
    with pytest.raises(InvalidParameters):
        ReprData(7, 0)
    with pytest.raises(InvalidParameters):
        ReprData(7, 7)
    with pytest.raises(InvalidParameters):
        ReprData(8, 2)  # shares a factor
    with pytest.raises(InvalidParameters):
        ReprData(7, -1)


def test_exponents():
    rep = ReprData(7, 2)
    assert rep.exp_first == F(9, 14)
    assert rep.exp_second == F(5, 14)
    for m, n in GRID:
        rep = ReprData(m, n)
        assert rep.exp_first + rep.exp_second == 1
        assert rep.exp_first - rep.exp_second == F(n, m)


def test_minimal_form_shape_on_grid():
    for m, n in GRID:
        form = minimal_form(ReprData(m, n), 12)
        assert form.weight == MINIMAL_WEIGHT == 5
        assert form.level == 0
        assert form.first.offset == F(m + n, 2 * m)
        assert form.second.offset == F(m - n, 2 * m)
        assert form.first.leading == 1
        assert form.second.leading == 1


def test_component_heads_for_7_2():
    form = minimal_form(ReprData(7, 2), 6)
    assert form.first.body[0] == 1
    assert form.first.body[1] == F(-172, 21)
    assert form.second.body[0] == 1
    assert form.second.body[1] == F(-36, 7)


def test_wronskian_is_delta_on_grid():
    for m, n in GRID:
        form = minimal_form(ReprData(m, n), 14)
        c, e = wronskian_check(form)
        assert c == F(n, m)
        assert e == 1


def test_wronskian_raw_series_leading():
    form = minimal_form(ReprData(7, 1), 10)
    w = wronskian(form)
    assert w.offset == 1  # exp_first + exp_second
    assert w.leading == F(1, 7)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
def test_wronskian_check_names_first_bad_coefficient(monkeypatch, level, index):
    """A Wronskian bumped at q**(e + index) fails at that index, and the message
    names the coefficient of W / Delta**e there, worked out here by dividing by
    eta**24 raised to e."""
    form = minimal_form(ReprData(7, 2), 16)
    if level:
        form = raise_weight(form)
    original = vvmf.wronskian

    def bumped(f):
        w = original(f)
        cs = list(w.body.coeffs)
        cs[index] += F(-3, 7)
        return PuiseuxSeries(w.offset, QSeries(cs))

    w = bumped(form)
    e = level + 1
    quotient = w.body / eta_power(24, w.order).body ** e
    monkeypatch.setattr(vvmf, "wronskian", bumped)
    with pytest.raises(NotProportionalToDeltaPower) as info:
        wronskian_check(form)
    assert info.value.index == index
    assert str(info.value) == (
        f"W / Delta**{e} has nonconstant coefficient {quotient[index]} at q^{index}"
    )


@pytest.mark.parametrize("index", [0, 1, 2])
def test_wronskian_check_catches_wrong_e2(monkeypatch, index):
    """The check reads E2 (D Delta = E2 Delta), so an E2 bumped by 1 at q**index
    fails the level-0 check at that index; at q**0 no quotient is named."""
    form = minimal_form(ReprData(7, 1), 12)
    original = forms.eisenstein

    def bumped(k, order):
        out = original(k, order)
        if k != 2:
            return out
        cs = list(out.coeffs)
        cs[index] += 1
        return QSeries(cs)

    monkeypatch.setattr(forms, "eisenstein", bumped)
    with pytest.raises(NotProportionalToDeltaPower) as info:
        wronskian_check(form)
    assert info.value.index == index
    if index == 0:
        assert str(info.value) == "D W - 1 E2 W has coefficient -1/7 at q^0"


def test_raising_chain_for_7_2():
    form = minimal_form(ReprData(7, 2), 16)
    c0, e0 = wronskian_check(form)
    assert (c0, e0) == (F(2, 7), 1)

    lvl1 = raise_weight(form)
    assert lvl1.weight == 11
    assert lvl1.level == 1
    assert lvl1.first.offset == form.first.offset + 1
    assert lvl1.second.offset == form.second.offset  # pinned under raising
    c1, e1 = wronskian_check(lvl1)
    assert (c1, e1) == (F(-162432, 133), 2)

    lvl2 = raise_weight(lvl1)
    assert lvl2.weight == 17
    c2, e2 = wronskian_check(lvl2)
    assert (c2, e2) == (F(24980742144, 8113), 3)


def test_raising_constants_for_7_2():
    form = minimal_form(ReprData(7, 2), 12)
    c1, c2 = raising_constants(form)
    assert c2 == F(24, 19)
    assert c2 == c2_closed_form(7, 2)
    assert c1 == -752
    assert c1 == c1_closed_form(7, 2)


def test_second_ratio_closed_form_on_grid():
    for m, n in GRID:
        form = minimal_form(ReprData(m, n), 10)
        c1, c2 = raising_constants(form)
        assert c2 == c2_closed_form(m, n) == F(12 * n, m + 6 * n)
        assert c1 == c1_closed_form(m, n) == F(-144 * (5 * m + 6 * n), m + n)


def test_raised_leadings_match_raising_constants():
    form = minimal_form(ReprData(9, 2), 10)
    c1, c2 = raising_constants(form)
    lvl1 = raise_weight(form)
    assert lvl1.first.leading == c1
    assert lvl1.second.leading == c2


# sha256 of "offset;c0;c1;..." (each rational as str) for each component of
# minimal_form(ReprData(m, n'), order), computed while every form still built
# 1728/j once per component and composed into a truncated copy of it.  The
# golden hashes of h pin only the ratio of the two components.
COMPONENT_SHA256 = {
    (7, 1, 60): (
        "6837884e2154bc4e12b1c37c715b5e95eba3ce376f5b9c30240b87407d8285c8",
        "5d6e589208e9404499f9f88f970f6750da1feb3b327b95547c17254a61e92d1d",
    ),
    (13, 5, 60): (
        "5623d1233f6cff61a800ce4924ac79542e849ed45f20d2339eb8c7b301d1797a",
        "b72c93dfcd6bfbf6f7d9bcb603d94eb72ff26fd98478a2d4822d461e5f643756",
    ),
    (11, 4, 120): (
        "7a128c70d562dc2f826c993bb28aafeb2eb255e6c3a2a4419c3243e494bb1d22",
        "507d986aa1d2d28df492dbe414cb67c0a73f2b4a23e261cb815b0a4b2bc2304b",
    ),
}


@pytest.mark.parametrize("m, n_prime, order", sorted(COMPONENT_SHA256))
def test_minimal_form_golden_hash(m, n_prime, order):
    form = minimal_form(ReprData(m, n_prime), order)
    digests = tuple(
        hashlib.sha256(
            ";".join(str(c) for c in (s.offset, *s.body.coeffs)).encode()
        ).hexdigest()
        for s in (form.first, form.second)
    )
    assert digests == COMPONENT_SHA256[(m, n_prime, order)]


def test_one_base_build_per_form_and_no_composition(build_counts, construction_counts):
    # both components read one set of base forms, and 1728/j is never
    # built or substituted into: the components come from recurrences
    solve(7, 1, 40)
    assert build_counts["minimal_form"] == 1
    assert construction_counts == {
        "base_forms": 1,
        "delta": 1,
        "j_inverse": 0,
        "compose": 0,
    }

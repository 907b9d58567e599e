"""Vector-form tests: shapes, Wronskians, and weight raising.

The frozen constants ((7,2) component coefficients, Wronskian constants at
three consecutive weights, the raising ratios) were computed with a
standalone script that assembled the same objects from scratch with plain
list arithmetic, before this package existed.
"""

from fractions import Fraction

import pytest

from schwarzian import (
    InvalidParameters,
    MINIMAL_WEIGHT,
    ReprData,
    c1_closed_form,
    c2_closed_form,
    minimal_form,
    raise_weight,
    raising_constants,
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

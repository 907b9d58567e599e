"""Vector-form tests: shapes, Wronskians, and weight raising.

The frozen constants ((7,2) component coefficients, Wronskian constants at
three consecutive weights, the raising ratios) were computed with a
standalone script that assembled the same objects from scratch with plain
list arithmetic, before this package existed.
"""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from schwarzian import acceptance, forms, hypergeometric, vvmf
from schwarzian.acceptance import SHAPE_GRID
from schwarzian import (
    InternalMismatch,
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
    with pytest.raises(InvalidParameters):
        ReprData(7, True)  # a bool is not taken for n' = 1
    with pytest.raises(ValueError, match="order must be >= 1"):
        minimal_form(ReprData(7, 1), 0)


def test_exponents():
    first, second = ReprData(7, 2).recipes
    assert first.offset == F(9, 14)
    assert second.offset == F(5, 14)
    for m, n in GRID:
        first, second = ReprData(m, n).recipes
        assert first.offset + second.offset == 1
        assert first.offset - second.offset == F(n, m)


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
    assert w.offset == 1  # the two recipe offsets sum to 1
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
def test_wronskian_check_catches_wrong_e2(index):
    """The check reads the form's E2 (D Delta = E2 Delta), so an E2 bumped by 1
    at q**index fails the level-0 check at that index; at q**0 no quotient is
    named."""
    form = minimal_form(ReprData(7, 1), 12)
    cs = list(form.base.e2.coeffs)
    cs[index] += 1
    base = dataclasses.replace(form.base, e2=QSeries(cs))
    with pytest.raises(NotProportionalToDeltaPower) as info:
        wronskian_check(dataclasses.replace(form, base=base))
    assert info.value.index == index
    if index == 0:
        assert str(info.value) == "D W - 1 E2 W has coefficient -1/7 at q^0"


@pytest.mark.parametrize("field", ["e2", "e2_squared", "e4"])
@pytest.mark.parametrize("index", [1, 3])
def test_mlde_check_catches_wrong_base(field, index):
    """mlde_check reads E2, E2^2 and E4 from the base it is given: any of
    them bumped by 1 at q**index after raising fails the level-1 check
    there, for either component."""
    form = raise_weight(minimal_form(ReprData(7, 2), 12))
    vvmf.mlde_check(1, form.rep, form.base, form.first, form.second)
    cs = list(getattr(form.base, field).coeffs)
    cs[index] += 1
    base = dataclasses.replace(form.base, **{field: QSeries(cs)})
    for component in (form.first, form.second):
        with pytest.raises(InternalMismatch) as info:
            vvmf.mlde_check(1, form.rep, base, component)
        assert info.value.index == index


def test_mlde_check_names_the_frobenius_coefficient(monkeypatch):
    """Phi = E4^-3P F(1728/j) of (7, 1)'s first component bumped by 1 at
    q^1, as the seeded bug check does: the message gives the body's
    coefficient there and the leading coefficient times the MLDE's
    Frobenius series, f_1 - residual_1 / W(1)."""
    first = ReprData(7, 1).recipes[0]
    original = hypergeometric.gauged_2f1

    def bumped(recipe, base, order):
        out = original(recipe, base, order)
        if recipe != first:
            return out
        cs = list(out.coeffs)
        cs[1] += 1
        return QSeries(cs)

    monkeypatch.setattr(hypergeometric, "gauged_2f1", bumped)
    with pytest.raises(InternalMismatch) as info:
        minimal_form(ReprData(7, 1), 12)
    assert info.value.index == 1
    assert str(info.value) == (
        "level 0: the component at exponent 4/7 has -139/14 at q^1 of its body, "
        "its MLDE series -153/14"
    )


@pytest.mark.parametrize(
    "leading, message",
    [
        ({"e6": 2}, "level 1: exponents 9/14, 5/14, expected 23/14, 5/14"),
        ({"e4": 0, "e6": 0}, "level 1: exponents 23/14, 19/14, expected 23/14, 5/14"),
    ],
    ids=["first-kept", "second-killed"],
)
def test_raise_weight_refuses_a_wrong_leading_move(leading, message):
    """With E6(0) = 2 the pivot no longer cancels the first component's
    leading term; with E4(0) = E6(0) = 0 the step kills the second's.  Either
    way the raised VectorForm is refused at index 0 for its exponents."""
    form = minimal_form(ReprData(7, 2), 12)
    bad = {}
    for field, value in leading.items():
        cs = list(getattr(form.base, field).coeffs)
        cs[0] = value
        bad[field] = QSeries(cs)
    base = dataclasses.replace(form.base, **bad)
    with pytest.raises(InternalMismatch, match=message) as info:
        raise_weight(dataclasses.replace(form, base=base))
    assert info.value.index == 0


def test_vector_form_refuses_wrong_exponents():
    """The exponents are checked with a typed error, not an assert that
    python -O strips: swapped components fail at index 0."""
    form = minimal_form(ReprData(7, 2), 8)
    with pytest.raises(InternalMismatch, match="exponents 5/14, 9/14") as info:
        dataclasses.replace(form, first=form.second, second=form.first)
    assert info.value.index == 0


def test_vector_form_refuses_a_vanishing_component():
    """A component zero to working order at the right exponent passes the
    MLDE check with W = 0, so VectorForm refuses it, at every level.  It
    checks for a zero component before the exponents, as a zero series'
    offset is only a convention: raising a one-term first component leaves
    it zero at its old offset, and that is reported as a vanishing
    component, not as a wrong exponent."""
    form = raise_weight(minimal_form(ReprData(7, 2), 12))
    zero = PuiseuxSeries(form.second.offset, QSeries.zero(form.second.order))
    with pytest.raises(InternalMismatch, match="level 1: a component vanishes") as info:
        dataclasses.replace(form, second=zero)
    assert info.value.index == 0
    with pytest.raises(
        InternalMismatch, match="^level 1: a component vanishes to working order$"
    ) as info:
        raise_weight(minimal_form(ReprData(7, 1), 1))
    assert info.value.index == 0


def test_vector_form_refuses_non_unit_leadings_at_level_0():
    """Only the minimal form pins its leading coefficients to 1; a raised
    form carries the raising constants there."""
    form = minimal_form(ReprData(7, 2), 12)
    with pytest.raises(
        InternalMismatch, match="^leading coefficients 2, 1, expected 1, 1$"
    ) as info:
        dataclasses.replace(form, first=form.first * 2)
    assert info.value.index == 0
    raised = raise_weight(form)
    assert dataclasses.replace(raised, first=raised.first * 2).level == 1


@pytest.mark.parametrize(
    "bad_w, message",
    [
        (lambda w: w * 0, "Wronskian vanishes to working order"),
        (
            lambda w: w * PuiseuxSeries(1, QSeries([1])),
            "Wronskian leading exponent is 3, expected 2",
        ),
    ],
    ids=["zero", "shifted"],
)
def test_wronskian_check_refuses_a_literal_w_off_delta_power(
    monkeypatch, bad_w, message
):
    """wronskian_check tests the W that ``vvmf.wronskian`` computes: a zero
    W, or W times q, fails at index 0 even where the residual would pass."""
    form = raise_weight(minimal_form(ReprData(7, 2), 12))
    right = vvmf.wronskian(form)
    monkeypatch.setattr(vvmf, "wronskian", lambda f: bad_w(right))
    with pytest.raises(NotProportionalToDeltaPower, match=f"^{message}$") as info:
        wronskian_check(form)
    assert info.value.index == 0


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


def _digests(form):
    return tuple(
        hashlib.sha256(
            ";".join(str(c) for c in (s.offset, *s.body.coeffs)).encode()
        ).hexdigest()
        for s in (form.first, form.second)
    )


@pytest.mark.parametrize("m, n_prime, order", sorted(COMPONENT_SHA256))
def test_minimal_form_golden_hash(m, n_prime, order):
    form = minimal_form(ReprData(m, n_prime), order)
    assert _digests(form) == COMPONENT_SHA256[(m, n_prime, order)]


def _reference_raise(form):
    """E6 f - (1/pivot) E4 D_k f for each component f, built literally from
    fresh Eisenstein series and forms.serre_derivative."""
    pivot = form.first.offset - form.weight / 12

    def step(f):
        e4, e6 = forms.eisenstein(4, f.order), forms.eisenstein(6, f.order)
        return f * e6 - forms.serre_derivative(f, form.weight) * e4 * (1 / pivot)

    return step(form.first), step(form.second)


def _terms(s):
    return s.offset, s.body.coeffs


@pytest.mark.parametrize(
    "m, n, order", [(m, m + n, 20) for m, n in SHAPE_GRID] + [(9, 38, 30)]
)
def test_raise_weight_matches_reference_operator(m, n, order):
    """Every level that solve(m, n, order) raises to, built as
    ``acceptance.walk`` builds it, exactly and to the same order as the
    reference."""
    rep, r = vvmf.split_n(m, n)
    form = minimal_form(rep, order, r)
    for _ in range(r):
        want = _reference_raise(form)
        form = raise_weight(form)
        assert (_terms(form.first), _terms(form.second)) == tuple(map(_terms, want))


# sha256, as in COMPONENT_SHA256, of both components at every level 0..r of
# minimal_form(rep, 30 + r), the chain with both components at 30 + r terms,
# computed while raise_weight still built E2, E4 and E6 and took the Serre
# derivative at every level.
RAISED_SHA256 = {
    (9, 38, 30): (
        ("c15c1b48e7fcee5114aa36ad85aa0a0deb12a9e2b6e327bf6517315b4e19929b",
         "03cf815c2bc6d07d20148e7c62f03bdb5f555ac2b1d032fbe30e4068df352946"),
        ("a9b31558bf4e7b0b28bfde01a15e0694103a001e85abf1c92968f95f76adeeb6",
         "3dbc93474a28ad68ba3a07b5b2fb742ddedfd316701ea57ad3f53002e061987f"),
        ("50f93220025bc021b933a154209f8ce8249a21e45a47b37e758c574b3f26ba33",
         "87a5fce8dea0fa115ff0b1b6916070fcb743d902f519b7f216974d28df309da5"),
        ("46a6c0cf6777b0721a074853a6c3d05d4641c8fa6b693deb240eaebc11a19cbe",
         "4896c76d5ce5e2ab1b20fbbf91593e7bd10668535589e5c61ca1bc4e207fe813"),
        ("7f40c78b40a12435da9a1cba1f5b654542d390f647d897b8f5d02125cdf363e2",
         "d2005bdae4a02175c80c93e173ada6eed810a33e93c9624d539f547eeefa4712"),
    ),
    (10, 83, 30): (
        ("df87c5122bd05ead4966fb5d23286590e84a6c04deb13ebca95b207e50b575ff",
         "46bee96725dd0cf26eadbcb4bd7a9cc6724f81f650fddb604853aebd2f105a13"),
        ("f86c08eeec081cbb41f6f5dbb443f17b933ddbed838e51190953c9556365f936",
         "bdc7bb1dbaf26dd7c2da0e3f40de1778792967ba7ff3cca2cdb3431e2e3d433e"),
        ("38ec748ea781bb3f2d4c54f992567c1149b8174bedfbb06b49fb5d6952398e8c",
         "84c3642d695ba2c1e133ce35755a51fbaa22ae48b4006980e7847588781a781c"),
        ("3476bee3f255e6f99aea0a2c1846252d7054103313d14ced6bc25fa52840e010",
         "0db39db9921034d9aced017b631d0a5250e24f790949797eec4a2ca1ec099c12"),
        ("1fe56aafad457a82ab85bf0db54f4388b09fff258e5bf307fa3889232a564bfa",
         "59635cbe52160ec7e3d557615aae3b5147c9f0a03681486dc6af221611bac822"),
        ("bf44932f773f016fe5896ce5c7d6a8ba61a27ad04fb8e01e09b927cb3e90a813",
         "302bfb2749be8bcd360808c0e047479119c42d144843fac5a67fd7946a95116f"),
        ("6ff0d277856eac3f501b70c1319dd72c8ecd127254181f5393d32a448e027301",
         "1f7d4c02a8954c95a58eed95a9cfa52033c4dfec5560a49c9dc0ec1861755e25"),
        ("2137f207cdb272e58cf4898056454d735506151750419be6c9a84a529e580b4f",
         "a78f36f5f909870246b7198faf57677cb4dd7bea0b70fc73ff1138c68556dc85"),
        ("83e1b0244b19efce05e8d5b1523c35ee35d3f0901e66a1961fd478ca00c877f6",
         "c6aa2659e998c9ca3cede40dac902853cbc10d1fa1bdddd46a573d0dcbbda5ab"),
    ),
}


@pytest.mark.parametrize("m, n, order", sorted(RAISED_SHA256))
def test_raised_components_golden_hash(m, n, order):
    """The hashed chain, and the chain solve(m, n, order) raises: at every
    level its first component is the hashed one and its second is the
    hashed one's first ``order`` terms."""
    rep, r = vvmf.split_n(m, n)
    reference = acceptance.walk(rep, order + r, 0, r).forms
    levels = acceptance.walk(rep, order, r, 0).forms
    assert tuple(map(_digests, reference)) == RAISED_SHA256[(m, n, order)]
    assert len(levels) == r + 1
    for want, form in zip(reference, levels):
        assert _terms(form.first) == _terms(want.first)
        offset, coeffs = _terms(want.second)
        assert _terms(form.second) == (offset, coeffs[:order])
        assert len(form.second.body.coeffs) == order
    # solve's chain: the second component alone, from the minimal form at order
    second = vvmf.raise_second(minimal_form(rep, order), r)
    offset, coeffs = _terms(reference[-1].second)
    assert _terms(second) == (offset, coeffs[:order])


@pytest.mark.parametrize("m, n, order", [(9, 38, 6), (13, 68, 6), (7, 701, 3)])
def test_level_constants_match_the_literal_chain(m, n, order):
    """The closed-form (c, e) of every level is what ``wronskian_check``
    reads off the raised chain, here up to r = 100 for (7, 701)."""
    rep, r = vvmf.split_n(m, n)
    walk = acceptance.walk(rep, order, r, 0)
    assert len(walk.forms) == r + 1
    assert vvmf.level_constants(m, n) == tuple(walk.wronskians)



def test_one_base_build_per_form_and_no_composition(build_counts, construction_counts):
    # both components read one set of base forms, proved without Delta, and
    # 1728/j is never built or substituted into: the components come from
    # recurrences
    solve(7, 1, 40)
    assert build_counts["minimal_form"] == 1
    assert construction_counts == {
        "base_forms": 1,
        "delta": 0,
        "j_inverse": 0,
        "compose": 0,
    }

"""Schwarzian-derivative and end-to-end solver tests.

The frozen expansion of {q^(1/7)(1+q)} is re-derived inside
test_schwarzian_sympy_oracle with symbolic calculus, so the golden and the
implementation are checked against an independent third computation.
test_solve_matches_frobenius_ratio checks h on random coprime (m, n),
m <= 1009, against the ratio of the two Frobenius solutions, summed here
over plain Fractions from E4's own divisor sums.
"""

import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schwarzian import cli, forms, hypergeometric, solver, vvmf
from schwarzian import (
    DegenerateDerivative,
    InternalMismatch,
    InvalidParameters,
    NotProportional,
    NotProportionalToDeltaPower,
    OdeResidualNonzero,
    PuiseuxSeries,
    QSeries,
    ReprData,
    cross_check,
    eisenstein,
    eval_h_hypergeometric,
    minimal_form,
    ode_solutions,
    raise_weight,
    schwarz_derivative,
    solve,
    verify_ode,
    verify_proportionality,
    wronskian_check,
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


def test_n_divisible_by_m_is_named_as_passed():
    with pytest.raises(InvalidParameters, match=r"^m=7 and n=14 must be coprime$"):
        solve(7, 14)


# each entry point refuses (m, n) and the order alike, through vvmf.split_n
# and solver._parameters
ENTRY_POINTS = {
    "solve": lambda m, n, order=30: solve(m, n, order),
    "cross_check": lambda m, n, order=30: cross_check(m, n, 2j, order),
    "eval_h_hypergeometric": (
        lambda m, n, order=30: eval_h_hypergeometric(m, n, 2j, order)
    ),
}


@pytest.fixture
def no_series(monkeypatch):
    """Make building any series fail the test."""

    def unreachable(*args, **kwargs):
        raise AssertionError("built a series before refusing the input")

    monkeypatch.setattr(QSeries, "__init__", unreachable)
    monkeypatch.setattr(QSeries, "_make", classmethod(unreachable))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "m, n", [(6, 1), (7, 0), (8, 2), (7, 14), (7, 1.0), (True, 1), (7, True)]
)
def test_bad_pair_refused_before_building(no_series, entry, m, n):
    with pytest.raises(InvalidParameters):
        ENTRY_POINTS[entry](m, n)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("order", [2.5, 30.0, "40", None])
def test_non_integer_order_refused_before_building(no_series, entry, order):
    with pytest.raises(InvalidParameters, match="must be an integer"):
        ENTRY_POINTS[entry](7, 1, order)


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


def bumping(k, first, _raise_component=vvmf.raise_component):
    """``vvmf.raise_component`` with the raised first (``first``) or second
    component's body bumped by 1 at q^k."""

    def step(level, rep, base, component):
        raised = _raise_component(level, rep, base, component)
        if (component.offset != rep.recipes[1].offset) != first:
            return raised
        coeffs = list(raised.body.coeffs)
        coeffs[k] += 1
        return PuiseuxSeries(raised.offset, QSeries(coeffs))

    return step


@pytest.mark.parametrize("k", [1, 4, 17])
def test_ode_stage_names_first_wrong_coefficient_of_h(monkeypatch, capsys, k):
    """Either component of a raised form bumped at q^k of its body makes
    the ratio h wrong from q^k on.  solve raises the second component alone,
    and its level-1 MLDE check names index k; the first is raised by the
    CLI's ``verify``, whose literal checks of W, {h} and h y2 name k."""
    good = solve(11, 16, 30).h  # n' = 5, one raise
    for first in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(vvmf, "raise_component", bumping(k, first))
            raised = raise_weight(minimal_form(ReprData(11, 5), 30, 1))
            ratio = raised.first / raised.second
            assert ((ratio / ratio.leading).body - good.body).valuation() == k
            if not first:
                with pytest.raises(InternalMismatch) as info:
                    solve(11, 16, 30)
                assert info.value.index == k
                continue
            assert solve(11, 16, 30).h == good
            capsys.readouterr()
            argv = ["verify", "--m", "11", "--n", "16", "--terms", "30", "--format", "json"]
            assert cli.main(argv) == 1
            checks = json.loads(capsys.readouterr().out)["checks"]
            wronskian, schwarzian, ode = (c["detail"] for c in checks[1:])
            assert "level 1: NotProportionalToDeltaPower: W / Delta**2 " in wronskian
            assert wronskian.endswith(f" at q^{k}")
            assert "NotProportional: sd / E4 is not constant" in schwarzian
            assert schwarzian.endswith(f" at q^{k}")
            assert ode.endswith(f" at exponent offset {k}")


def test_solve_checks_the_ode_once_without_square_roots(monkeypatch):
    """solve builds each level's MLDE once, for both components at level 0
    and the second above it, and computes no literal Wronskian, Schwarzian
    or ODE residual, and no square root."""
    literal = [
        (solver, "verify_ode"),
        (solver, "schwarz_derivative"),
        (solver, "verify_proportionality"),
        (vvmf, "wronskian_check"),
    ]
    calls = dict.fromkeys(["sqrt"] + [name for _, name in literal], 0)
    mlde_levels = []

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    def recorded(level, *args, _original=hypergeometric.mlde_coefficients):
        mlde_levels.append(level)
        return _original(level, *args)

    monkeypatch.setattr(PuiseuxSeries, "sqrt", counted("sqrt", PuiseuxSeries.sqrt))
    for owner, name in literal:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    monkeypatch.setattr(hypergeometric, "mlde_coefficients", recorded)
    solve(7, 9, 40)  # levels 0 and 1
    assert set(calls.values()) == {0}
    assert mlde_levels == [0, 1]


def raise_component_with_de4_coefficient_2(
    level, rep, base, component, _raise_component=vvmf.raise_component
):
    """``vvmf.raise_component`` with the D E4 coefficient of X, 3 k/pivot,
    mutated to 2 k/pivot: the raised component less k/pivot D(E4) times the
    old one.  D E4 starts at q^1, so the leading exponent stays right."""
    raised = _raise_component(level, rep, base, component)
    weight = 5 + 6 * level
    pivot = rep.recipes[0].offset + level - F(weight, 12)
    return raised - component * (base.e4.derive() * (weight / (12 * pivot)))


@pytest.mark.parametrize(
    "m, n, order", [(7, 9, 30), (9, 38, 30), (11, 13, 20), (13, 40, 12)]
)
def test_mutated_raising_is_caught_at_index_1(monkeypatch, m, n, order):
    """A wrong D E4 coefficient in the raising step leaves the leading
    exponents right, and the level-1 MLDE check of the second component
    stops solve at index 1, where the literal Wronskian check of the
    raised form stops too."""
    rep, r = vvmf.split_n(m, n)
    monkeypatch.setattr(vvmf, "raise_component", raise_component_with_de4_coefficient_2)
    with pytest.raises(NotProportionalToDeltaPower) as literal:
        wronskian_check(raise_weight(minimal_form(rep, order, r)))
    assert literal.value.index == 1
    with pytest.raises(InternalMismatch) as info:
        solve(m, n, order)
    assert info.value.index == 1
    second = rep.recipes[1].offset
    assert str(info.value).startswith(f"level 1: the component at exponent {second} ")


def test_vanishing_raised_second_component_is_refused(monkeypatch):
    """A zero component solves every MLDE, so raise_second refuses a raised
    second component that vanishes to working order, naming its level."""
    original = vvmf.raise_component

    def zeroed(level, rep, base, component):
        raised = original(level, rep, base, component)
        if level == 1:
            return PuiseuxSeries(raised.offset, QSeries([0] * raised.order))
        return raised

    monkeypatch.setattr(vvmf, "raise_component", zeroed)
    with pytest.raises(InternalMismatch, match="^level 2: a component vanishes") as info:
        solve(7, 16, 10)
    assert info.value.index == 0


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
        verify_ode(PuiseuxSeries(0, QSeries([0, 0, 0])), F(1))


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


def test_solve_builds_no_delta_and_no_eta_power(monkeypatch):
    """The base forms are proved by Ramanujan's identities, not by Delta's
    two routes; the components' prefactor eta**10 (1728/j)**P comes from
    equations in E2, and the checks of the r = 4 raising levels build no
    power of eta."""
    calls = []
    for name in ("delta", "eta_power"):
        original = getattr(forms, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(forms, name, counted)
    solve(9, 38, 30)
    assert calls == []


def _digests(bundle):
    h = ";".join(str(c) for c in (bundle.h.offset, *bundle.h.body.coeffs))
    w = ";".join(f"{c}:{e}" for c, e in bundle.wronskians)
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in (h, w))


def test_solves_at_one_order_share_one_base_build(monkeypatch, construction_counts):
    # the base forms of order 60 are built, and proved, once
    builds = []
    original = forms.checked_eisenstein

    def counted(order):
        builds.append(order)
        return original(order)

    monkeypatch.setattr(forms, "checked_eisenstein", counted)
    solve(7, 3, 60)
    solve(13, 6, 60)
    assert construction_counts["base_forms"] == 2
    assert builds == [60]
    assert construction_counts["delta"] == 0


def test_warm_base_forms_give_the_cold_solution():
    solve(7, 3, 60)
    warm = _digests(solve(13, 6, 60))
    hypergeometric.base_forms.cache_clear()
    assert _digests(solve(13, 6, 60)) == warm


def test_raising_and_checks_read_the_minimal_forms_base(monkeypatch):
    """The r = 4 raising levels and their MLDE checks read E2, E4 and E6
    from the base forms built once for the minimal form, each once there; no
    level takes a Serre derivative and nothing builds E4 again to check h."""
    calls = []
    serre = []
    original = forms.eisenstein
    original_serre = forms.serre_derivative

    def counted(k, order):
        calls.append(k)
        return original(k, order)

    def counted_serre(f, weight):
        serre.append(weight)
        return original_serre(f, weight)

    monkeypatch.setattr(forms, "eisenstein", counted)
    monkeypatch.setattr(forms, "serre_derivative", counted_serre)
    solve(9, 38, 30)
    assert {k: calls.count(k) for k in (2, 4, 6)} == {2: 1, 4: 1, 6: 1}
    assert serre == []


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


# n <= 5m: the cost of solve grows faster than r**3 in r = n // m
COPRIME_PAIRS = st.integers(7, 1009).flatmap(
    lambda m: st.tuples(
        st.just(m), st.integers(1, 5 * m).filter(lambda n: gcd(m, n) == 1)
    )
)


@given(COPRIME_PAIRS, st.integers(8, 12))
@example((997, 2996), 12)
@example((1009, 5044), 12)
@example((7, 9), 2)
@example((1009, 1), 2)
@settings(max_examples=150, deadline=None)
def test_solve_matches_frobenius_ratio(pair, order):
    m, n = pair
    h = solve(m, n, order).h
    assert h.offset == F(n, m)
    assert list(h.body.coeffs) == frobenius_ratio(m, n, order)


@given(st.integers(7, 60), st.data(), st.integers(8, 16))
@settings(max_examples=60, deadline=None)
def test_solve_agrees_with_the_literal_checks(m, data, order):
    """What solve reads off its MLDE checks is what the literal routes
    compute: every level's Wronskian (c, e), {h} / E4 and the ODE residual
    of h y2."""
    n_prime = data.draw(
        st.integers(1, m - 1).filter(lambda n: gcd(m, n) == 1), label="n_prime"
    )
    r = data.draw(st.integers(0, 8), label="r")
    bundle = solve(m, r * m + n_prime, order)

    form = minimal_form(ReprData(m, n_prime), order + r)
    levels = [wronskian_check(form)]
    for _ in range(r):
        form = raise_weight(form)
        levels.append(wronskian_check(form))
    assert bundle.wronskians == tuple(levels)

    h = bundle.h
    assert bundle.schwarz_constant == verify_proportionality(schwarz_derivative(h))
    assert verify_ode(h * ode_solutions(h)[1], bundle.ode_parameter)


# coprime (m, n') with m <= 1009, and r <= 1000 raises
RAISED_TRIPLES = st.integers(7, 1009).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.integers(1, m - 1).filter(lambda n: gcd(m, n) == 1),
        st.integers(0, 1000),
    )
)


@given(RAISED_TRIPLES, st.integers(4, 8))
@example((7, 1, 1000), 8)
@example((1009, 1008, 1000), 4)
@example((13, 12, 0), 4)
@settings(max_examples=25, deadline=None)
def test_raised_pairs_check_every_level_at_the_requested_order(triple, order):
    """For n = r m + n' with r up to 1000, solve checks both components of
    level 0 against its MLDE, then the second component alone at each of
    levels 1..r, every one through exactly ``order`` terms; no form is
    raised.  h is the ratio y1 / y2 of the Frobenius solutions."""
    m, n_prime, r = triple
    seen = []
    original = vvmf.mlde_check

    def recorded(level, rep, base, *components):
        seen.append((level, [c.order for c in components]))
        return original(level, rep, base, *components)

    def unreachable(form):
        raise AssertionError("solve raised a whole form")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vvmf, "mlde_check", recorded)
        patch.setattr(vvmf, "raise_weight", unreachable)
        h = solve(m, r * m + n_prime, order).h
    assert seen == [(0, [order, order])] + [(k, [order]) for k in range(1, r + 1)]
    y1, y2 = ode_solutions(h)
    assert h.order == order
    assert h == y1 / y2


def test_bundle_stores_only_what_solve_computed():
    assert solver.SolutionBundle._fields == ("m", "n", "h")
    assert not hasattr(solve(7, 1, 2), "__dict__")  # slotted: no per-bundle dict


@given(st.integers(7, 60), st.data())
@settings(max_examples=60, deadline=None)
def test_bundle_derives_its_constants_from_m_and_n(m, data):
    n = data.draw(
        st.integers(1, 5 * m).filter(lambda n: gcd(m, n) == 1), label="n"
    )
    bundle = solve(m, n, 2)
    rep, r = vvmf.split_n(m, n)
    assert (bundle.n_prime, bundle.r) == (rep.n_prime, r)
    assert bundle.weight == 5 + 6 * r
    assert len(bundle.wronskians) == r + 1
    assert bundle.schwarz_constant == -F(n, m) ** 2 / 2
    assert bundle.ode_parameter == -F(n, 2 * m) ** 2

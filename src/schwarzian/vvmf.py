"""Two-component vector forms: construction, weight raising, Wronskian checks.

The minimal form for parameters (m, n') has weight 5, component leading
exponents (m + n')/2m and (m - n')/2m, and both leading coefficients 1.
Raising multiplies by E6 and subtracts (1/pivot) E4 D_k, where the pivot
lambda = first.offset - weight/12 is chosen so the first component's leading
coefficient cancels exactly; its exponent moves up by 1 while the second
component's exponent stays put.  Each raise adds 6 to the weight.

The Wronskian W(F) = D(f1) f2 - f1 D(f2) of a form with exponents summing to
the integer e must be a nonzero constant multiple of Delta**e.  As D Delta =
E2 Delta (D_12 Delta = 0, checked by the classical-identities criterion),
wronskian_check verifies D W = e E2 W instead, building no power of Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import forms, hypergeometric
from .errors import (
    InvalidParameters,
    LeadingCancellation,
    NotProportionalToDeltaPower,
    PivotVanishes,
)
from .series import PuiseuxSeries

MINIMAL_WEIGHT = Fraction(5)
_PRIMITIVE_SIXTH = (Fraction(1, 6), Fraction(5, 6))


@dataclass(frozen=True)
class ReprData:
    """Parameters (m, n') of the two-dimensional representation.

    The component leading exponents are exp_first = (m + n')/2m and
    exp_second = (m - n')/2m.  They are distinct, sum to 1 (so their product
    of multipliers is a sixth root of unity trivially), and their difference
    n'/m is never congruent to 1/6 or 5/6 mod 1 when m >= 7 and gcd = 1.
    """

    m: int
    n_prime: int

    def __post_init__(self):
        if not isinstance(self.m, int) or not isinstance(self.n_prime, int):
            raise InvalidParameters("m and n' must be integers")
        if self.m < 7:
            raise InvalidParameters(f"m must be >= 7, got {self.m}")
        if not 0 < self.n_prime < self.m:
            raise InvalidParameters(
                f"n' must satisfy 0 < n' < m, got n'={self.n_prime}, m={self.m}"
            )
        if gcd(self.m, self.n_prime) != 1:
            raise InvalidParameters(
                f"m={self.m} and n'={self.n_prime} must be coprime"
            )
        ratio = Fraction(self.n_prime, self.m) % 1
        assert ratio not in _PRIMITIVE_SIXTH, "n'/m hit a primitive sixth root"
        assert self.exp_first != self.exp_second
        assert self.exp_first + self.exp_second == 1

    @property
    def exp_first(self) -> Fraction:
        return Fraction(self.m + self.n_prime, 2 * self.m)

    @property
    def exp_second(self) -> Fraction:
        return Fraction(self.m - self.n_prime, 2 * self.m)


def split_n(m: int, n: int) -> tuple[ReprData, int]:
    """(ReprData(m, n'), r) for n = r m + n' with 0 < n' < m.

    Raises InvalidParameters unless n >= 1 and ReprData accepts (m, n').
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidParameters(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(m, int) or m < 7:
        ReprData(m, n)  # refuses m before n % m is formed
    return ReprData(m, n % m), n // m


@dataclass(frozen=True)
class VectorForm:
    """A two-component form of weight 5 + 6*level."""

    first: PuiseuxSeries
    second: PuiseuxSeries
    weight: Fraction
    rep: ReprData
    level: int

    def __post_init__(self):
        assert self.weight == MINIMAL_WEIGHT + 6 * self.level
        assert self.first.offset == self.rep.exp_first + self.level
        assert self.second.offset == self.rep.exp_second


def minimal_form(rep: ReprData, order: int) -> VectorForm:
    """The weight-5 form with unit leading coefficients for both components.

    ``hypergeometric.base_forms`` builds E2, E4, E6, Delta and the products
    that the recurrences read once, and both components share it: each is
    eta^10 (1728/j)^P F(1728/j), with F solved from the hypergeometric
    equation pulled back along 1728/j and the prefactor from its
    logarithmic derivative, then checked against the Frobenius series of
    the weight-5 modular differential equation.  Nothing is composed.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    base = hypergeometric.base_forms(order)
    first = hypergeometric.component_series(
        hypergeometric.component_recipe(rep.m, rep.n_prime, "first"), base
    )
    second = hypergeometric.component_series(
        hypergeometric.component_recipe(rep.m, rep.n_prime, "second"), base
    )
    return VectorForm(first=first, second=second, weight=MINIMAL_WEIGHT, rep=rep, level=0)


def raise_weight(form: VectorForm) -> VectorForm:
    """One weight-raising step: E6 F - (1/pivot) E4 D_weight F, componentwise.

    The pivot equals the first component's exponent minus weight/12, which
    kills that component's leading coefficient exactly; the new leading
    exponent is first.offset + 1 and the second component's exponent is
    unchanged.  LeadingCancellation is raised if either fails, and the
    components are returned unnormalized so the raising constants stay
    visible as the new leading coefficients.
    """
    pivot = form.first.offset - form.weight / 12
    if pivot == 0:
        raise PivotVanishes(f"pivot vanishes at weight {form.weight}")

    def step(component: PuiseuxSeries) -> PuiseuxSeries:
        order = component.order
        e4 = forms.eisenstein(4, order)
        e6 = forms.eisenstein(6, order)
        serre = forms.serre_derivative(component, form.weight)
        return component * e6 - serre * e4 * (1 / pivot)

    new_first = step(form.first)
    new_second = step(form.second)
    if new_first.is_zero() or new_first.offset != form.first.offset + 1:
        raise LeadingCancellation(
            f"first component moved to exponent "
            f"{None if new_first.is_zero() else new_first.offset}, "
            f"expected {form.first.offset + 1}",
            index=0,
        )
    if new_second.is_zero() or new_second.offset != form.second.offset:
        raise LeadingCancellation(
            "second component leading coefficient vanished under raising", index=0
        )
    return VectorForm(
        first=new_first,
        second=new_second,
        weight=form.weight + 6,
        rep=form.rep,
        level=form.level + 1,
    )


def wronskian(form: VectorForm) -> PuiseuxSeries:
    """W(F) = D(f1) f2 - f1 D(f2)."""
    return form.first.derive() * form.second - form.first * form.second.derive()


def wronskian_check(form: VectorForm) -> tuple[Fraction, int]:
    """Verify W(F) = c Delta**e with c nonzero and e = sum of the exponents.

    Returns (c, e); raises NotProportionalToDeltaPower at the first failing
    index otherwise.  With W = q**e wb, the residual D wb + e (1 - E2) wb is
    D(W / Delta**e) times Delta**e's unit body, so its first nonzero
    coefficient, at q**i, is i times the quotient's, which the message names.
    """
    e_frac = form.first.offset + form.second.offset
    if e_frac.denominator != 1 or e_frac < 1:
        raise NotProportionalToDeltaPower(
            f"exponent sum {e_frac} is not a positive integer", index=0
        )
    e = int(e_frac)
    w = wronskian(form)
    if w.is_zero():
        raise NotProportionalToDeltaPower(
            "Wronskian vanishes to working order", index=0
        )
    if w.offset != e:
        raise NotProportionalToDeltaPower(
            f"Wronskian leading exponent is {w.offset}, expected {e}", index=0
        )
    residual = w.body.derive() + w.body * (1 - forms.eisenstein(2, w.order)) * e
    i = residual.valuation()
    if i is not None:
        what = f"D W - {e} E2 W has coefficient {residual[0]}"  # E2[0] != 1
        if i:
            what = f"W / Delta**{e} has nonconstant coefficient {residual[i] / i}"
        raise NotProportionalToDeltaPower(f"{what} at q^{i}", index=i)
    return w.leading, e


def c2_closed_form(m: int, n_prime: int) -> Fraction:
    """Exact second-component raising constant at level 0: 12n'/(m + 6n')."""
    return Fraction(12 * n_prime, m + 6 * n_prime)


def c1_closed_form(m: int, n_prime: int) -> Fraction:
    """Exact first-component raising constant at level 0: -144(5m + 6n')/(m + n').

    It is -1728 b/c for the first component's 2F1(a, b; c), with
    b = n'/2m + 5/12 and c = n'/m + 1.

    >>> c1_closed_form(7, 2)
    Fraction(-752, 1)
    """
    return Fraction(-144 * (5 * m + 6 * n_prime), m + n_prime)


def raising_constants(form: VectorForm) -> tuple[Fraction, Fraction]:
    """(c1, c2) for one raising step from ``form``: ``raising_ratios`` of it."""
    return raising_ratios(form, raise_weight(form))


def raising_ratios(form: VectorForm, raised: VectorForm) -> tuple[Fraction, Fraction]:
    """(c1, c2) from ``form`` and ``raised = raise_weight(form)``, built already.

    The constants are the new leading coefficients divided by the old ones,
    so at level 0 (unit leading coefficients) they are the new leading
    coefficients themselves.
    """
    return (
        raised.first.leading / form.first.leading,
        raised.second.leading / form.second.leading,
    )

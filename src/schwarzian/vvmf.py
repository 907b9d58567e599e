"""Two-component vector forms: construction, weight raising, Wronskian checks.

The minimal form for parameters (m, n') has weight 5, component leading
exponents (m + n')/2m and (m - n')/2m, and both leading coefficients 1.
Raising at weight k is F -> E6 F - (1/pivot) E4 D_k F, where the pivot
lambda = first.offset - k/12 is chosen so the first component's leading
coefficient cancels exactly; its exponent moves up by 1 while the second
component's exponent stays put.  Each raise adds 6 to the weight.  By
Ramanujan's E2 E4 = 3 D E4 + E6 the step applies X - (1/pivot) E4 D to a
component (``raise_component``, through ``series.apply_ode``),
X = (1 + k/12 pivot) E6 + (k/4 pivot) D E4 from the E4 and E6 of the
``BaseForms`` (E2, E2^2, E4 and E6) every form keeps from its minimal form.
``VectorForm`` is the one check of that shape, which refuses a zero
component before it reads the exponents.  Two chains of levels use the
step: ``raise_weight`` raises whole forms, which ``acceptance.walk``
chains for the CLI's ``verify`` and ``vvmf`` and the acceptance battery,
and ``raise_second`` the second component alone, for ``solver.solve``.

The Wronskian W(F) = D(f1) f2 - f1 D(f2) of a form with exponents summing to
the integer e must be a nonzero constant multiple of Delta**e.  As D Delta =
E2 Delta (D_12 Delta = 0, checked by the classical-identities criterion),
wronskian_check verifies D W = e E2 W instead, with the E2 of the form's
base, building no power of Delta.

mlde_check proves the same law, and more, from one equation per level:
each component of the level-k form solves the MLDE of
``hypergeometric.mlde_coefficients``, D^2 f + p Df + q f = 0 with
p = -e E2, e = k + 1.  By Abel's identity their Wronskian then solves
D W = -p W = e E2 W, so W = c Delta**e, and c = (n_k/m) l1 l2
(n_k = k m + n') reads off the leading terms q**o1 l1 and q**o2 l2, as
o1 - o2 = n_k/m.

``level_constants`` gives every level's c in closed form, from the
leading coefficients alone.  A raise multiplies l2 by X0 - o2/pivot, with
X = X0 + X1 q + ..., X0 = 1 + kappa, X1 = 720 kappa - 504 (1 + kappa) and
kappa = weight/12 pivot.  It multiplies l1 by
X0 rho + X1 - ((o1 + 1) rho + 240 o1)/pivot, with o1 the first exponent of
the level raised from and rho the q**1 coefficient of its first component
over the leading one: one step of that level's Frobenius recurrence,
-(24 e o1 - 48 a + 240 b) / W(o1 + 1), with a, b the MLDE's E2^2 and E4
coefficients and W its indicial polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import hypergeometric
from .errors import (
    InternalMismatch,
    InvalidParameters,
    NotProportionalToDeltaPower,
)
from .hypergeometric import BaseForms, ComponentRecipe
from .series import PuiseuxSeries, QSeries, apply_ode

MINIMAL_WEIGHT = Fraction(5)


class ReprData(NamedTuple("ReprData", [("m", int), ("n_prime", int)])):
    """Parameters (m, n') of the two-dimensional representation.

    ``recipes`` holds the two components' recipes, at +n' and -n'; their
    leading exponents (m +- n')/2m are distinct as n' > 0 and sum to 1 (so
    their product of multipliers is a sixth root of unity trivially), and
    their difference n'/m is never congruent to 1/6 or 5/6 mod 1 when
    m >= 7 and gcd = 1.  Construction refuses any other (m, n') with
    InvalidParameters.
    """

    __slots__ = ()

    def __new__(cls, m, n_prime):
        if type(m) is not int or type(n_prime) is not int:
            raise InvalidParameters("m and n' must be integers")
        if m < 7:
            raise InvalidParameters(f"m must be >= 7, got {m}")
        if not 0 < n_prime < m:
            raise InvalidParameters(
                f"n' must satisfy 0 < n' < m, got n'={n_prime}, m={m}"
            )
        if gcd(m, n_prime) != 1:
            raise InvalidParameters(f"m={m} and n'={n_prime} must be coprime")
        return super().__new__(cls, m, n_prime)

    @property
    def recipes(self) -> tuple[ComponentRecipe, ComponentRecipe]:
        """The first (+n') and second (-n') component's recipes."""
        m, n = self.m, self.n_prime
        return ComponentRecipe(m, n), ComponentRecipe(m, -n)


def split_n(m: int, n: int) -> tuple[ReprData, int]:
    """(ReprData(m, n'), r) for n = r m + n' with 0 < n' < m.

    Raises InvalidParameters unless n is an int (not a bool) >= 1,
    gcd(m, n) = 1 and ReprData accepts (m, n').
    """
    if type(n) is not int or n < 1:
        raise InvalidParameters(f"n must be an integer >= 1, got {n!r}")
    if type(m) is not int or m < 7:
        ReprData(m, n)  # refuses m before n % m is formed
    if gcd(m, n) != 1:
        raise InvalidParameters(f"m={m} and n={n} must be coprime")
    return ReprData(m, n % m), n // m


class VectorForm(
    NamedTuple(
        "VectorForm",
        [
            ("first", PuiseuxSeries),
            ("second", PuiseuxSeries),
            ("rep", ReprData),
            ("level", int),
            ("base", BaseForms),
        ],
    )
):
    """A two-component form of weight 5 + 6*level, with the level-one series
    ``base`` that its minimal form was built from and every raise keeps.

    Construction checks the form's shape, in this order, each failure an
    InternalMismatch at index 0: neither component is zero to working order
    (a zero series' offset is only a convention), the exponents are
    (m + n')/2m + level and (m - n')/2m, and at level 0 both leading
    coefficients are 1.  No other code checks them.
    """

    __slots__ = ()

    def __new__(cls, first, second, rep, level, base):
        if first.is_zero() or second.is_zero():
            raise InternalMismatch(
                f"level {level}: a component vanishes to working order", index=0
            )
        plus, minus = rep.recipes  # at +n' and -n'
        want = (plus.offset + level, minus.offset)
        if (first.offset, second.offset) != want:
            raise InternalMismatch(
                f"level {level}: exponents {first.offset}, "
                f"{second.offset}, expected {want[0]}, {want[1]}",
                index=0,
            )
        if level == 0 and (first.leading, second.leading) != (1, 1):
            raise InternalMismatch(
                f"leading coefficients {first.leading}, {second.leading}, "
                "expected 1, 1",
                index=0,
            )
        return super().__new__(cls, first, second, rep, level, base)

    @property
    def weight(self) -> Fraction:
        return MINIMAL_WEIGHT + 6 * self.level


def minimal_form(rep: ReprData, order: int, r: int = 0) -> VectorForm:
    """The weight-5 form with unit leading coefficients for both components,
    the first to order + r terms and the second to ``order``, both solved
    from one ``hypergeometric.base_forms(order + r)``; nothing is composed.
    ``acceptance.walk`` passes the r raises it will make, each of which
    uses up one term of the first component; ``solver.solve`` passes 0.

    ``VectorForm`` checks the exponents and the unit leading coefficients,
    ``mlde_check`` the level-0 MLDE, each with InternalMismatch at the
    first differing index.
    """
    base = hypergeometric.base_forms(order + r)
    first, second = (
        hypergeometric.component_series(recipe, base, n)
        for recipe, n in zip(rep.recipes, (order + r, order))
    )
    form = VectorForm(first=first, second=second, rep=rep, level=0, base=base)
    mlde_check(0, rep, base, first, second)
    return form


def _pivot(level: int, rep: ReprData) -> tuple[Fraction, Fraction]:
    """(pivot, weight/12 pivot) of the raise from ``rep``'s level-``level``
    form: the pivot is the first exponent minus weight/12."""
    weight = MINIMAL_WEIGHT + 6 * level
    pivot = rep.recipes[0].offset + level - weight / 12
    return pivot, weight / (12 * pivot)


def raise_component(
    level: int, rep: ReprData, base: BaseForms, component: PuiseuxSeries
) -> PuiseuxSeries:
    """One weight-raising step of one component of ``rep``'s level-``level``
    form: E6 f - (1/pivot) E4 D_weight f, computed as X f - (1/pivot) E4 D f
    from ``base`` (module docstring), at f's offset and to f's order.

    The pivot is the first component's exponent minus weight/12,
    1/12 + n'/2m + level/2 > 0, which kills that component's leading
    coefficient exactly.  The result is unnormalized, so the raising
    constant stays visible as its leading coefficient over f's.
    """
    pivot, kappa = _pivot(level, rep)
    x = base.e6 * (1 + kappa) + base.e4.derive() * (3 * kappa)
    return PuiseuxSeries(
        component.offset, apply_ode((x, base.e4 * (-1 / pivot)), component)
    )


def raise_weight(form: VectorForm) -> VectorForm:
    """One weight-raising step, ``raise_component`` on each component.

    The first component's leading exponent moves up by 1 and the second's
    stays put; ``VectorForm`` refuses the raised form if either fails or a
    component vanishes.
    """
    return VectorForm(
        first=raise_component(form.level, form.rep, form.base, form.first),
        second=raise_component(form.level, form.rep, form.base, form.second),
        rep=form.rep,
        level=form.level + 1,
        base=form.base,
    )


def raise_second(form: VectorForm, r: int) -> PuiseuxSeries:
    """``form``'s second component raised r times by ``raise_component``,
    each level checked against its MLDE by ``mlde_check`` through the order
    the component holds, which no raise shortens.

    A raised component that vanishes to working order, which would pass
    the MLDE check, raises InternalMismatch at index 0, as ``VectorForm``
    does; one whose exponent moved fails the MLDE check there.
    """
    second = form.second
    for level in range(form.level + 1, form.level + r + 1):
        second = raise_component(level - 1, form.rep, form.base, second)
        if second.is_zero():
            raise InternalMismatch(
                f"level {level}: a component vanishes to working order", index=0
            )
        mlde_check(level, form.rep, form.base, second)
    return second


def wronskian(form: VectorForm) -> PuiseuxSeries:
    """W(F) = D(f1) f2 - f1 D(f2)."""
    return form.first.derive() * form.second - form.first * form.second.derive()


def wronskian_check(form: VectorForm) -> tuple[Fraction, int]:
    """Verify W(F) = c Delta**e with c nonzero and e = sum of the exponents,
    the integer level + 1 for every form ``VectorForm`` accepts.

    Returns (c, e); raises NotProportionalToDeltaPower at the first failing
    index otherwise: at index 0 if W, computed here, is zero to working
    order or does not lead with q**e.  With W = q**e wb, the residual
    D wb + e (1 - E2) wb is D(W / Delta**e) times Delta**e's unit body, so
    its first nonzero coefficient, at q**i, is i times the quotient's, which
    the message names.
    """
    e = int(form.first.offset + form.second.offset)
    w = wronskian(form)
    if w.is_zero():
        raise NotProportionalToDeltaPower(
            "Wronskian vanishes to working order", index=0
        )
    if w.offset != e:
        raise NotProportionalToDeltaPower(
            f"Wronskian leading exponent is {w.offset}, expected {e}", index=0
        )
    residual = w.body.derive() + w.body * (1 - form.base.e2) * e
    i = residual.valuation()
    if i is not None:
        what = f"D W - {e} E2 W has coefficient {residual[0]}"  # E2[0] != 1
        if i:
            what = f"W / Delta**{e} has nonconstant coefficient {residual[i] / i}"
        raise NotProportionalToDeltaPower(f"{what} at q^{i}", index=i)
    return w.leading, e


def level_constants(m: int, n: int) -> tuple[tuple[Fraction, int], ...]:
    """(c, e) of W = c Delta**e at each of levels 0..r of the chain of
    (m, n), n = r m + n', in closed form (module docstring); no series is
    built.

    InternalMismatch names the level of a zero constant.
    """
    rep, r = split_n(m, n)
    o2 = rep.recipes[1].offset
    l1 = l2 = Fraction(1)
    levels = [(Fraction(rep.n_prime, m), 1)]
    for k in range(r):
        pivot, kappa = _pivot(k, rep)
        x0 = 1 + kappa
        x1 = 720 * kappa - 504 * x0
        o = rep.recipes[0].offset + k
        e, a, b = hypergeometric.mlde_scalars(k, m, rep.n_prime)
        # the first component's q**(o+1) coefficient over its leading one
        indicial = (o + 1) ** 2 - e * (o + 1) + a + b  # W(o + 1)
        rho = -(24 * e * o - 48 * a + 240 * b) / indicial
        l1 *= x0 * rho + x1 - ((o + 1) * rho + 240 * o) / pivot
        l2 *= x0 - o2 / pivot
        c = Fraction((k + 1) * m + rep.n_prime, m) * l1 * l2
        if not c:
            raise InternalMismatch(f"level {k + 1}: Wronskian constant is 0", index=0)
        levels.append((c, k + 2))
    return tuple(levels)


def mlde_check(
    level: int, rep: ReprData, base: BaseForms, *components: PuiseuxSeries
) -> None:
    """Verify that each of ``components`` solves the MLDE of ``rep``'s
    level-``level`` form through its own order.

    InternalMismatch names the first index i of a nonzero residual, the
    components in the order given.  With a component's exponent a root of
    the indicial polynomial W, W(i) != 0 for i >= 1, so there the body first
    leaves its leading coefficient times the MLDE series,
    f_i - residual_i / W(i).  A zero component passes; ``VectorForm`` and
    ``raise_second`` refuse one.
    """
    coefficients = hypergeometric.mlde_coefficients(level, rep.m, rep.n_prime, base)
    for component in components:
        residual = apply_ode(coefficients, component)
        i = residual.valuation()
        if i is not None:
            unit = PuiseuxSeries(component.offset + i, QSeries([1]))
            w = apply_ode(coefficients, unit)
            raise InternalMismatch(
                f"level {level}: the component at exponent {component.offset} "
                f"has {component.body[i]} at q^{i} of its body, its MLDE series "
                f"{component.body[i] - residual[i] / w[0]}",
                index=i,
            )


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

"""Gauss hypergeometric coefficients and the two solution components.

``hypergeom_coeffs`` produces the Taylor coefficients of F(a, b; c; z) from
the term ratio (a+n)(b+n) / ((c+n)(n+1)).  ``component_series`` assembles
one member of the solution pair

    eta^10 * (1728/j)^(s/(2m) + 1/12) * F(s/(2m) + 1/12, s/(2m) + 5/12; s/m + 1; 1728/j)

where s is the signed residue (+n' for the first component, -n' for the
second).  The two recipes are one parameterized formula evaluated at +-n',
and the assembled series is q**((m+s)/2m) (1 + O(q)).  Both components
are series in the same 1728/j, so ``component_series`` takes that series
as built by the caller (``vvmf.minimal_form`` builds it once per form).

The scalar 1728**outer_power that a literal reading of (1728/j)**outer_power
would contribute is dropped: components are normalized to leading
coefficient 1, and every consumer is scalar-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import forms, vvmf  # vvmf imports this module; used at call time only
from .errors import InvalidC, InvalidParameters, RecipeInconsistent
from .series import PuiseuxSeries, QSeries, SeriesBuilder

ETA_EXPONENT = 10


@dataclass(frozen=True)
class HypergeomParams:
    """Parameters (a, b; c) of a Gauss hypergeometric series."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.c.denominator == 1 and self.c <= 0:
            raise InvalidC(f"lower parameter c = {self.c} is a nonpositive integer")


def hypergeom_coeffs(params: HypergeomParams, n_terms: int) -> QSeries:
    """First ``n_terms`` Taylor coefficients of F(a, b; c; z)."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    (pa, qa), (pb, qb), (pc, qc) = (
        x.as_integer_ratio() for x in (params.a, params.b, params.c)
    )
    t = SeriesBuilder()
    t.append(1, 1)
    for n in range(n_terms - 1):
        # t_{n+1} = t_n (a + n)(b + n) / ((c + n)(n + 1)) on integers
        t.append(
            t.nums[n] * (pa + n * qa) * (pb + n * qb) * qc,
            t.den * qa * qb * (pc + n * qc) * (n + 1),
        )
    return t.series()


@dataclass(frozen=True)
class ComponentRecipe:
    """Everything needed to assemble one solution component.

    ``signed_residue`` is +n' for the first component and -n' for the
    second; all derived fields are rational functions of it, so swapping
    the sign swaps the components.
    """

    m: int
    signed_residue: int

    @property
    def outer_power(self) -> Fraction:
        """Exponent of 1728/j, s/2m + 1/12."""
        return Fraction(self.signed_residue, 2 * self.m) + Fraction(1, 12)

    @property
    def params(self) -> HypergeomParams:
        """(s/2m + 1/12, s/2m + 5/12; s/m + 1)."""
        w = Fraction(self.signed_residue, 2 * self.m)
        return HypergeomParams(w + Fraction(1, 12), w + Fraction(5, 12), 2 * w + 1)

    @property
    def offset(self) -> Fraction:
        """Leading exponent of the assembled component, (m + s) / 2m."""
        return Fraction(self.m + self.signed_residue, 2 * self.m)


def component_recipe(m: int, n_prime: int, component: str) -> ComponentRecipe:
    """Recipe for the 'first' (+n') or 'second' (-n') component."""
    if component not in ("first", "second"):
        raise InvalidParameters(f"component must be 'first' or 'second', got {component!r}")
    vvmf.ReprData(m, n_prime)
    return ComponentRecipe(m, n_prime if component == "first" else -n_prime)


def component_series(recipe: ComponentRecipe, jinv: QSeries) -> PuiseuxSeries:
    """Assemble a component from 1728/j as ``forms.j_inverse(order + 1)``,
    as a Puiseux series with ``order = jinv.order - 1`` body terms.

    The 2F1 series is composed into ``jinv`` itself, whose min-order rule
    gives ``order`` terms; ``QSeries.compose`` keeps the powers of 1728/j on
    ``jinv``, so the second component composed into the same series
    convolves none of them again.  RecipeInconsistent is raised if the
    assembled offset or leading coefficient disagree with the recipe's own
    bookkeeping.
    """
    order = jinv.order - 1
    eta_body = forms.eta_power(ETA_EXPONENT, order).body
    # unit part of 1728/j = 1728 q * u(q): the body once q**1 is absorbed
    u = PuiseuxSeries(0, jinv).body / 1728
    outer_body = u.pow_rational(recipe.outer_power)
    composed = hypergeom_coeffs(recipe.params, order).compose(jinv)
    body = eta_body * outer_body * composed
    result = PuiseuxSeries(Fraction(ETA_EXPONENT, 24) + recipe.outer_power, body)
    if result.offset != recipe.offset:
        raise RecipeInconsistent(
            f"assembled offset {result.offset} differs from (m+s)/2m = {recipe.offset}"
        )
    if result.leading != 1:
        raise RecipeInconsistent(
            f"assembled leading coefficient is {result.leading}, not 1", index=0
        )
    return result

"""Gauss hypergeometric series and the two solution components.

``hypergeom_coeffs`` produces the Taylor coefficients of F(a, b; c; z) from
the term ratio (a+n)(b+n) / ((c+n)(n+1)).  ``component_series`` assembles
one member of the solution pair

    eta^10 * (1728/j)^P * F(a, b; c; 1728/j),   P = s/(2m) + 1/12,
    (a, b; c) = (s/(2m) + 1/12, s/(2m) + 5/12; s/m + 1),

where s is the signed residue (+n' for the first component, -n' for the
second).  As 1728/j = 1728 Delta / E4^3, the component is 1728^P times
Delta^alpha Phi, alpha = 5/12 + P = (m + s)/2m, Phi = E4^-3P F(1728/j),
so q**alpha (1 + O(q)); the scalar 1728^P is dropped, as every consumer
is scalar-invariant.  F(1728/j) and E4^-3P are each singular where E4
vanishes (at rho), and the singularities cancel in Phi, whose
coefficients are far smaller than either factor's.  Both factors of the
body are the solutions 1 + ... that ``series.solve_ode`` returns for
linear equations in D with coefficients from ``base_forms``; no series
is substituted into another.

* (Delta/q)^alpha solves D g + alpha (1 - E2) g = 0, as D Delta = E2 Delta
  (``delta_power``, which ``solver`` also reads for (Delta/q)^(r+1)).
* Phi: with w = s/2m, so that (a, b; c) = (w + 1/12, w + 5/12; 2w + 1),
  D z = z E6/E4 for z = 1728/j and theta_z = (E4/E6) D, Ramanujan's
  identities turn the hypergeometric equation, with F = E4^3P Phi, into
  E4^(3P - 1) times

      D^2 Phi + 2w E2 D Phi + w (12w + 1) D E2 Phi = 0,   D E2 = (E2^2 - E4)/12.

  D E2 has no constant term, so the indicial polynomial is k (k + 2w) =
  k (k + c - 1): the root 0 and, as c is not a nonpositive integer, no
  positive integer root.  A sympy test in ``tests/test_hypergeometric.py``
  proves this reduction over Q(w), so for every (m, n').

A second route checks the same components: the level-k form
(``vvmf.raise_component`` applied k times to each) has weight 5 + 6k and
exponent sum e = k + 1, and with n_k = k m + n' both of its components solve

    D^2 f - e E2 D f + ((e^2/4 - e/24) E2^2 + (e/24 - (n_k/2m)^2) E4) f = 0

(at level 0 Kaneko and Zagier's weight-5 equation; Franc and Mason,
Ramanujan J. 2016), whose indicial roots e/2 +- n_k/2m are the two
components' exponents and differ by n_k/m, never an integer.
``mlde_scalars`` gives its constants and ``mlde_coefficients`` its
coefficients; ``vvmf.mlde_check`` applies it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import forms
from .errors import InvalidC
from .series import PuiseuxSeries, QSeries, SeriesBuilder, solve_ode


class HypergeomParams(
    NamedTuple("HypergeomParams", [("a", Fraction), ("b", Fraction), ("c", Fraction)])
):
    """Parameters (a, b; c) of a Gauss hypergeometric series, each made a
    Fraction; InvalidC if c is a nonpositive integer."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if c.denominator == 1 and c <= 0:
            raise InvalidC(f"lower parameter c = {c} is a nonpositive integer")
        return super().__new__(cls, a, b, c)


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


class ComponentRecipe(NamedTuple):
    """Everything needed to assemble one solution component.

    ``signed_residue`` is +n' for the first component and -n' for the
    second; all derived fields are rational functions of it, so swapping
    the sign swaps the components.  ``vvmf.ReprData.recipes`` hands out
    both for a validated (m, n').
    """

    m: int
    signed_residue: int

    @property
    def params(self) -> HypergeomParams:
        """(s/2m + 1/12, s/2m + 5/12; s/m + 1)."""
        w = Fraction(self.signed_residue, 2 * self.m)
        return HypergeomParams(w + Fraction(1, 12), w + Fraction(5, 12), 2 * w + 1)

    @property
    def offset(self) -> Fraction:
        """Leading exponent of the assembled component, (m + s)/2m = 5/12 + P."""
        return Fraction(self.m + self.signed_residue, 2 * self.m)


class BaseForms(NamedTuple):
    """The level-one series that both components of a minimal form read,
    and that ``vvmf`` raises and checks every level of that form against.

    Each holds ``order`` terms, and ``base_forms`` proves two Ramanujan
    identities between them.  E2 feeds (Delta/q)^alpha, and with its
    derivative Phi's equation (module docstring); E2, E2^2 and E4 the MLDE
    check of every level, E2 also the literal Wronskian checks, and E4 and
    E6 the weight raising.
    """

    e2: QSeries
    e2_squared: QSeries
    e4: QSeries
    e6: QSeries

    @property
    def order(self) -> int:
        return self.e4.order


@lru_cache(maxsize=16)
def base_forms(order: int) -> BaseForms:
    """Build E2, E4, E6 and E2^2 to ``order``, once per order per process.

    ``forms.checked_eisenstein`` builds them and proves 12 D E2 = E2^2 - E4
    and 3 D E4 = E2 E4 - E6, so a corrupted E2, E4 or E6 stops here at the
    index it is off.  Every later minimal form, and so every
    ``solver.solve``, at a built order reuses the same ``BaseForms``, which
    is safe as it is an immutable tuple and each ``QSeries`` holds integer
    tuples; an exception is not cached, so ``base_forms(0)`` raises on
    every call.  A check that patches ``forms`` needs
    ``base_forms.cache_clear()`` first, as ``acceptance`` does before its
    battery and around each seeded bug.
    """
    e2, e4, e6, e2_squared = forms.checked_eisenstein(order)
    return BaseForms(e2=e2, e2_squared=e2_squared, e4=e4, e6=e6)


def gauged_2f1(recipe: ComponentRecipe, base: BaseForms, order: int) -> QSeries:
    """Phi = E4^-3P F(a, b; c; 1728/j) to ``order`` <= ``base.order`` terms:
    the solution 1 + ... of its reduced equation (module docstring)."""
    w = Fraction(recipe.signed_residue, 2 * recipe.m)
    de2 = base.e2.derive()
    return solve_ode((de2 * (w * (12 * w + 1)), base.e2 * (2 * w), 1), 0, order)


def mlde_scalars(level: int, m: int, n_prime: int) -> tuple[int, Fraction, Fraction]:
    """(e, a, b) of the MLDE D^2 f - e E2 D f + (a E2^2 + b E4) f = 0 that
    both components of the pair (m, n') solve after ``level`` raises (module
    docstring): e = level + 1, a = e^2/4 - e/24 and b = e/24 - (n_k/2m)^2,
    n_k = level m + n'."""
    e = level + 1
    w = Fraction(n_prime + level * m, 2 * m)
    return e, Fraction(e * (6 * e - 1), 24), Fraction(e, 24) - w * w


def mlde_coefficients(level: int, m: int, n_prime: int, base: BaseForms):
    """(P0, P1, 1), to ``base.order`` terms, of the MLDE of ``mlde_scalars``,
    for ``series.apply_ode``."""
    e, a, b = mlde_scalars(level, m, n_prime)
    return base.e2_squared * a + base.e4 * b, base.e2 * -e, 1


def delta_power(alpha: Fraction, base: BaseForms, order: int) -> QSeries:
    """(Delta/q)^alpha to ``order`` <= ``base.order`` terms: the solution
    1 + ... of D g + alpha (1 - E2) g = 0, as D Delta = E2 Delta."""
    return solve_ode(((1 - base.e2) * alpha, 1), 0, order)


def component_series(
    recipe: ComponentRecipe, base: BaseForms, order: int
) -> PuiseuxSeries:
    """Assemble a component, eta^10 (1728/j)^P F(1728/j) / 1728^P =
    Delta^alpha Phi, alpha = ``recipe.offset``, to ``order`` <= ``base.order``
    body terms, unchecked: ``vvmf.minimal_form`` checks it."""
    alpha = recipe.offset
    body = delta_power(alpha, base, order) * gauged_2f1(recipe, base, order)
    return PuiseuxSeries(alpha, body)

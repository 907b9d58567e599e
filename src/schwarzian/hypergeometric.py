"""Gauss hypergeometric series and the two solution components.

``hypergeom_coeffs`` produces the Taylor coefficients of F(a, b; c; z) from
the term ratio (a+n)(b+n) / ((c+n)(n+1)).  ``component_series`` assembles
one member of the solution pair

    eta^10 * (1728/j)^P * F(a, b; c; 1728/j),   P = s/(2m) + 1/12,
    (a, b; c) = (s/(2m) + 1/12, s/(2m) + 5/12; s/m + 1),

where s is the signed residue (+n' for the first component, -n' for the
second).  The two recipes are one parameterized formula evaluated at +-n',
and the assembled series is q**((m+s)/2m) (1 + O(q)).  The scalar
1728**P that a literal reading of (1728/j)**P would contribute is
dropped: components are normalized to leading coefficient 1, and every
consumer is scalar-invariant.

No series is substituted into another.  Both factors are solved term by
term from linear equations in D, in O(order**2), from the level-one
series of ``base_forms``, which both components of a minimal form read:

* F(1728/j) from the hypergeometric equation pulled back along
  z = 1728/j.  As D z = z E6/E4 and 1 - z = E6^2/E4^3, theta_z = (E4/E6) D;
  the equation, multiplied through by E4^3 E6, reads
  A D^2 F + B DF + C F = 0 with

      A = E4^2 E6,
      B = -E4 (E2 E4 E6/6 - E4^3/2 + E6^2/3) + (c-1) E4^4 - (a+b) 1728 Delta E4,
      C = -a b 1728 Delta E6.

  A(0) = 1, B(0) = c - 1 and C(0) = 0, so the indicial polynomial
  k (k + c - 1) has the root 0 and, as c is not a nonpositive integer,
  no positive integer root.  With E2 E4 = 3 D E4 + E6 the first term
  of B is (1728 Delta - E6 D E4) E4 / 2, so F reads E4, E6 and Delta
  only.
* eta^10 (1728/j)^P / 1728^P = (Delta/q)^alpha E4^beta, alpha = 5/12 + P,
  beta = -3P, from its logarithmic derivative: D Delta = E2 Delta and
  D E4 = (E2 E4 - E6)/3 give 3 E4 D g = T g with
  T = 3 alpha E4 (E2 - 1) + beta (E2 E4 - E6)
    = (15/4) D E4 + 3 alpha (E6 - E4),
  so g = 1 + ... solves E4 D g - (T/3) g = 0.

A second route checks the same components: both solve the weight-5
modular linear differential equation
D^2 f - E2 D f + (5/24) E2^2 f + (1/24 - n'^2/4m^2) E4 f = 0 (Kaneko and
Zagier 1998; Franc and Mason, Ramanujan J. 2016), which reads E2 and E4
only and whose indicial roots (m +- n')/2m are their exponents;
``vvmf.mlde_check`` applies the equation to them.

The same equation, one per weight level, holds for every raised form.
The level-k form (``vvmf.raise_weight`` applied k times) has weight
5 + 6k and exponent sum e = k + 1, and with n_k = k m + n' both of its
components solve

    D^2 f - e E2 D f + ((e^2/4 - e/24) E2^2 + (e/24 - (n_k/2m)^2) E4) f = 0,

whose indicial roots e/2 +- n_k/2m are the two components' exponents
and differ by n_k/m, never an integer.  ``mlde_coefficients`` gives its
coefficients; at level 0 it is the weight-5 equation above.

F(1728/j) and the prefactor are the solutions 1 + ... that
``series.solve_ode`` returns for their equations' coefficients.

``base_forms`` is cached per order: every minimal form, and so every
``solver.solve``, at an order already built in this process reuses one
``BaseForms``.  Sharing it is safe, as the dataclass is frozen and each
``QSeries`` holds integer tuples.  ``acceptance`` clears the cache wherever
a check must see a cold build: before its battery, and around each run of
the seeded-bug check, which corrupts ``forms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import forms
from .errors import InvalidC
from .series import PuiseuxSeries, QSeries, SeriesBuilder, solve_ode

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
    the sign swaps the components.  ``vvmf.ReprData.recipes`` hands out
    both for a validated (m, n').
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


@dataclass(frozen=True)
class BaseForms:
    """The level-one series that both components of a minimal form read,
    and that ``vvmf`` raises and checks every level of that form against.

    Each holds ``order`` terms.  ``a``, ``b0``, ``e4_fourth``, ``delta_e4``
    and ``delta_e6`` are E4^2 E6, the parameter-free first term of B,
    E4^4, 1728 Delta E4 and 1728 Delta E6: the pieces of the pulled-back
    hypergeometric equation.  E2, E2^2 and E4 feed the MLDE check of every
    level, E2 also the literal Wronskian checks, and E4 and E6 the weight
    raising.
    """

    e2: QSeries
    e2_squared: QSeries
    e4: QSeries
    e6: QSeries
    a: QSeries
    b0: QSeries
    e4_fourth: QSeries
    delta_e4: QSeries
    delta_e6: QSeries

    @property
    def order(self) -> int:
        return self.e4.order


@lru_cache(maxsize=16)
def base_forms(order: int) -> BaseForms:
    """Build E2, E4, E6, Delta and the products in A, B and C, to ``order``,
    once per order per process.

    ``forms.delta`` runs first on every build: it checks eta**24 against
    (E4^3 - E6^2)/1728, so a corrupted E4, E6 or eta**24 stops here at the
    index it differs.  Later calls at a built order return the same frozen
    ``BaseForms`` (module docstring); an exception is not cached, so
    ``base_forms(0)`` raises on every call.  A check that patches ``forms``
    needs ``base_forms.cache_clear()`` first, as ``acceptance`` does.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    delta = forms.delta(order) * 1728
    e2, e4, e6 = (forms.eisenstein(k, order) for k in (2, 4, 6))
    e4_e6 = e4 * e6
    e4_squared = e4 * e4
    delta_e4 = delta * e4
    return BaseForms(
        e2=e2,
        e2_squared=e2 * e2,
        e4=e4,
        e6=e6,
        a=e4 * e4_e6,
        b0=(delta_e4 - e4_e6 * e4.derive()) / 2,
        e4_fourth=e4_squared * e4_squared,
        delta_e4=delta_e4,
        delta_e6=delta * e6,
    )


def pulled_back_2f1(params: HypergeomParams, base: BaseForms) -> QSeries:
    """F(a, b; c; 1728/j) to ``base.order`` terms, the solution 1 + ... of the
    pulled-back hypergeometric equation A D^2 F + B DF + C F = 0 (module
    docstring)."""
    a, b, c = params.a, params.b, params.c
    p1 = base.b0 + base.e4_fourth * (c - 1) - base.delta_e4 * (a + b)
    return solve_ode((base.delta_e6 * (-a * b), p1, base.a), 0, base.order)


def _prefactor(recipe: ComponentRecipe, base: BaseForms) -> QSeries:
    """(Delta/q)^alpha E4^-3P, alpha = 5/12 + P: eta^10 (1728/j)^P / 1728^P,
    the solution 1 + ... of E4 D g - (T/3) g = 0 (module docstring)."""
    e4 = base.e4
    alpha = Fraction(ETA_EXPONENT, 24) + recipe.outer_power
    p0 = (e4 - base.e6) * alpha - e4.derive() * Fraction(5, 4)  # -T/3
    return solve_ode((p0, e4), 0, base.order)


def mlde_coefficients(level: int, recipe: ComponentRecipe, base: BaseForms):
    """(P0, P1, 1), to ``base.order`` terms, of the MLDE that ``recipe``'s
    component raised ``level`` times solves (module docstring), with
    e = level + 1 and n_k = level m + |s|, for ``series.apply_ode``."""
    e = level + 1
    w = Fraction(abs(recipe.signed_residue) + level * recipe.m, 2 * recipe.m)
    e2_squared = Fraction(e * (6 * e - 1), 24)  # e^2/4 - e/24
    p0 = base.e2_squared * e2_squared + base.e4 * (Fraction(e, 24) - w * w)
    return p0, base.e2 * -e, 1


def component_series(recipe: ComponentRecipe, base: BaseForms) -> PuiseuxSeries:
    """Assemble a component, eta^10 (1728/j)^P F(1728/j), to ``base.order``
    body terms at exponent 10/24 + P, unchecked: ``vvmf.minimal_form``
    checks it."""
    body = _prefactor(recipe, base) * pulled_back_2f1(recipe.params, base)
    return PuiseuxSeries(Fraction(ETA_EXPONENT, 24) + recipe.outer_power, body)

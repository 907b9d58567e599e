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
term, in O(order**2), from the level-one series of ``base_forms``, which
``vvmf.minimal_form`` builds once for both components:

* F(1728/j) from the hypergeometric equation pulled back along
  z = 1728/j.  As D z = z E6/E4 and 1 - z = E6^2/E4^3, theta_z = (E4/E6) D;
  the equation, multiplied through by E4^3 E6, reads
  A D^2 F + B DF + C F = 0 with

      A = E4^2 E6,
      B = -E4 (E2 E4 E6/6 - E4^3/2 + E6^2/3) + (c-1) E4^4 - (a+b) 1728 Delta E4,
      C = -a b 1728 Delta E6.

  A(0) = 1, B(0) = c - 1 and C(0) = 0 give the recurrence
  F_k k (k + c - 1) = -sum_{j<k} (A_{k-j} j^2 + B_{k-j} j + C_{k-j}) F_j.
  With E2 E4 = 3 D E4 + E6 the first term of B is
  (1728 Delta - E6 D E4) E4 / 2, so F reads E4, E6 and Delta only.
* eta^10 (1728/j)^P / 1728^P = (Delta/q)^alpha E4^beta, alpha = 5/12 + P,
  beta = -3P, from its logarithmic derivative: D Delta = E2 Delta and
  D E4 = (E2 E4 - E6)/3 give 3 E4 D g = T g with
  T = 3 alpha E4 (E2 - 1) + beta (E2 E4 - E6)
    = (15/4) D E4 + 3 alpha (E6 - E4),
  so 3k g_k = sum_{j<k} (T_{k-j} - 3 j E4_{k-j}) g_j.

Every assembled component is then checked against a second route: both
solve the weight-5 modular linear differential equation
D^2 f - E2 D f + (5/24) E2^2 f + (1/24 - n'^2/4m^2) E4 f = 0 (Kaneko and
Zagier 1998; Franc and Mason, Ramanujan J. 2016), whose Frobenius series
q**alpha (1 + ...), alpha = (m + s)/2m, follows from
c_k k (k + 2 alpha - 1)
  = sum_{j<k} [E2_{k-j} (alpha + j) - (5/24) (E2^2)_{k-j}
               - (1/24 - n'^2/4m^2) E4_{k-j}] c_j.
It reads E2 and E4 only; RecipeInconsistent names the first index at
which the two routes differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import forms
from .errors import InvalidC, RecipeInconsistent
from .series import PuiseuxSeries, QSeries, SeriesBuilder, solve_recurrence

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
    """The level-one series that both components of a minimal form read.

    Each holds ``order`` terms.  ``a``, ``b0``, ``e4_fourth``, ``delta_e4``
    and ``delta_e6`` are E4^2 E6, the parameter-free first term of B,
    E4^4, 1728 Delta E4 and 1728 Delta E6: the pieces of the pulled-back
    hypergeometric equation.  E2 and E2^2 feed the MLDE check alone.
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


def base_forms(order: int) -> BaseForms:
    """Build E2, E4, E6, Delta and the products in A, B and C, to ``order``.

    ``forms.delta`` runs first: it checks eta**24 against (E4^3 - E6^2)/1728,
    so a corrupted E4, E6 or eta**24 stops here at the index it differs.
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


def _integer_rows(*series: QSeries) -> tuple[int, list[list[int]]]:
    """(d, rows): the numerators of each series over their common denominator d."""
    d = lcm(*(s.denominator for s in series))
    return d, [[x * (d // s.denominator) for x in s.numerators] for s in series]


def pulled_back_2f1(params: HypergeomParams, base: BaseForms) -> QSeries:
    """F(a, b; c; 1728/j) to ``base.order`` terms, from the pulled-back
    hypergeometric equation A D^2 F + B DF + C F = 0 (module docstring)."""
    order = base.order
    a, b, c = params.a, params.b, params.c
    d, (ra, rb, rc) = _integer_rows(
        base.a,
        base.b0 + base.e4_fourth * (c - 1) - base.delta_e4 * (a + b),
        base.delta_e6 * (-a * b),
    )
    # with j = k - i, A_i j^2 + B_i j + C_i is
    # k^2 A_i + k (B_i - 2 i A_i) + (i^2 A_i - i B_i + C_i); c = pc/qc and
    # F_k = -qc sum_j (...) F_j / (d k (k qc + pc - qc))
    pc, qc = c.numerator, c.denominator
    rows = [
        (-qc * x, -qc * (y - 2 * i * x), -qc * (i * i * x - i * y + z))
        for i, (x, y, z) in enumerate(zip(ra, rb, rc))
    ][::-1]

    def term(k):
        w = [k * k * x + k * y + z for x, y, z in rows[order - 1 - k : order - 1]]
        return w, d * k * (k * qc + pc - qc)

    return solve_recurrence(order, term)


def _prefactor(recipe: ComponentRecipe, base: BaseForms) -> QSeries:
    """(Delta/q)^alpha E4^-3P, alpha = 5/12 + P: eta^10 (1728/j)^P / 1728^P,
    from 3k g_k = sum_{i>=1} (U_i - 3k E4_i) g_{k-i}, U_i = T_i + 3i E4_i."""
    order, e4 = base.order, base.e4
    alpha = Fraction(ETA_EXPONENT, 24) + recipe.outer_power
    u = e4.derive() * Fraction(27, 4) + (base.e6 - e4) * (3 * alpha)
    d, (ru, re) = _integer_rows(u, e4)
    ru, re = ru[::-1], re[::-1]

    def term(k):
        lo = order - 1 - k
        return [x - 3 * k * y for x, y in zip(ru[lo:-1], re[lo:-1])], 3 * k * d

    return solve_recurrence(order, term)


def _mlde_series(recipe: ComponentRecipe, base: BaseForms) -> QSeries:
    """Body of the weight-5 MLDE's Frobenius series at alpha = recipe.offset:
    c_k k (k + 2 alpha - 1) = sum_{i>=1} ((alpha + k) E2_i + X_i) c_{k-i}
    with X = -D E2 - (5/24) E2^2 - (1/24 - s^2/4m^2) E4 (module docstring)."""
    order, e2 = base.order, base.e2
    lam = Fraction(1, 24) - Fraction(recipe.signed_residue, 2 * recipe.m) ** 2
    x = -e2.derive() - base.e2_squared * Fraction(5, 24) - base.e4 * lam
    d, (r2, rx) = _integer_rows(e2, x)
    r2, rx = r2[::-1], rx[::-1]
    pa, qa = recipe.offset.numerator, recipe.offset.denominator

    def term(k):
        lo, f = order - 1 - k, pa + k * qa
        w = [f * y + qa * z for y, z in zip(r2[lo:-1], rx[lo:-1])]
        return w, d * k * (k * qa + 2 * pa - qa)

    return solve_recurrence(order, term)


def component_series(recipe: ComponentRecipe, base: BaseForms) -> PuiseuxSeries:
    """Assemble a component, eta^10 (1728/j)^P F(1728/j), to ``base.order``
    body terms, and check it against its MLDE Frobenius series.

    RecipeInconsistent is raised if the assembled offset disagrees with
    the recipe's, or at the first index where the two routes differ.
    """
    body = _prefactor(recipe, base) * pulled_back_2f1(recipe.params, base)
    result = PuiseuxSeries(Fraction(ETA_EXPONENT, 24) + recipe.outer_power, body)
    if result.offset != recipe.offset:
        raise RecipeInconsistent(
            f"assembled offset {result.offset} differs from (m+s)/2m = {recipe.offset}",
            index=0,
        )
    mlde = _mlde_series(recipe, base)
    i = (result.body - mlde).valuation()
    if i is not None:
        raise RecipeInconsistent(
            f"assembled component has {result.body[i]} at q^{i} of its body, "
            f"its MLDE series {mlde[i]}",
            index=i,
        )
    return result

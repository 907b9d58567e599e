"""Solutions h of the modular Schwarzian equation, mechanically verified.

For coprime m >= 7 and n >= 1, write n = r m + n' with 0 < n' < m.  The
ratio h of the two components of the minimal vector form, raised r times,
is q**(n/m) (1 + O(q)), and its Schwarzian derivative in the D = q d/dq
convention,

    {h} = D(D2h / Dh) - (1/2) (D2h / Dh)**2,

is exactly -(1/2) (n/m)**2 * E4.  Equivalently h = y1 / y2 for the Frobenius
solutions y1, y2 = q**(+-n/2m) (1 + ...) of D(D(y)) + s E4 y = 0, s = -(n/2m)**2.

``solve`` proves one equation per level, the modular linear differential
equation of the level-k form, D^2 f + p Df + q f = 0 with p = -(k+1) E2
(``hypergeometric.mlde_coefficients``, ``vvmf.mlde_check``).  Both
components of the minimal form solve the level-0 equation.  With r = 0, h
is their ratio, and exact algebra takes the rest from that equation, for
e = 1:

* Abel's identity, D W = -p W = e E2 W, makes the Wronskian c Delta**e;
* {f1/f2} = 2q - p**2/2 - Dp, which the level's coefficients make
  -(1/2)(n/m)**2 E4;
* y_i = f_i Delta**(-e/2) solve D(D(y)) + s E4 y = 0, so h = y1 / y2.

With r >= 1, ``vvmf.raise_second`` raises the second component f2 alone
and proves that it solves the MLDE of each level 1..r.  At level r, with
e = r + 1, Abel's identity gives D(f1/f2) = W / f2**2 = c Delta**e / f2**2
for the raised first component f1, so h is read from f2 alone by reduction
of order: with f2 = q**o2 b and g = (Delta/q)**e (b/b_0)**-2,

    h = q**(n/m) sum_i g_i (n/m) / (n/m + i) q**i,

as e - 2 o2 = n/m.  Then f2 h is a second solution of the level-r MLDE,
and the three facts above hold for the pair (f2 h, f2) as for r = 0.  That
h is also the ratio of the paper's raised components follows from the
raising step mapping each level's MLDE onto the next, which
``tests/test_hypergeometric.py`` proves over Q(w, k), and from the
uniqueness of the Frobenius solutions at the exponents, which differ by
n_k/m, never an integer.  The constants c of every level are
``vvmf.level_constants``, in closed form.

A coefficient that breaks an equation raises a VerificationError subclass
naming its index.  The literal routes (``vvmf.wronskian_check``,
``schwarz_derivative`` with ``verify_proportionality``, and ``verify_ode``
on h y2) serve ``acceptance`` and the CLI's ``verify``, which raise both
components through r levels, read h as their ratio and recompute W, {h}
and the ODE residual from those series.

Convention note: with derivatives taken directly in tau instead of D, the
Schwarzian picks up a fixed factor (2 pi i)^2, and other normalizations in
circulation rescale the constant by 4; the values verified here are the
D-convention ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import forms, hypergeometric, vvmf
from .errors import (
    DegenerateDerivative,
    InternalMismatch,
    InvalidParameters,
    NotProportional,
    OdeResidualNonzero,
)
from .hypergeometric import BaseForms
from .series import PuiseuxSeries, QSeries, SeriesBuilder, apply_ode, solve_ode

CONVENTION_NOTE = (
    "derivative convention: D = q d/dq; verified constants are "
    "{h} = -(1/2)(n/m)^2 E4 and s = -(n/2m)^2; conventions that take the "
    "Schwarzian directly in tau rescale both by fixed constant factors"
)


def schwarz_derivative(h: PuiseuxSeries) -> QSeries:
    """{h} = D(g) - g**2 / 2 with g = D(D(h)) / D(h), as a plain q-series.

    For h = q**sigma (1 + ...) the constant term is -sigma**2 / 2.
    """
    if not isinstance(h, PuiseuxSeries):
        raise TypeError("schwarz_derivative expects a PuiseuxSeries")
    dh = h.derive()
    if dh.is_zero():
        raise DegenerateDerivative("h has identically zero derivative")
    # D fixes a nonzero leading exponent and raises a zero one to the
    # valuation, so dh's exponent is nonzero, D keeps it, and g's is 0
    gq = (dh.derive() / dh).body
    return gq.derive() - gq * gq / 2


def verify_proportionality(sd: QSeries) -> Fraction:
    """Check sd = c * E4 exactly through its order; return c = sd[0].

    As E4 = 1 + O(q), the first nonzero coefficient of sd - c E4 is that of
    sd / E4; NotProportional reports its index and value.
    """
    c = sd[0]
    residual = sd - forms.eisenstein(4, sd.order) * c
    i = residual.valuation()
    if i is not None:
        raise NotProportional(
            f"sd / E4 is not constant: coefficient {residual[i]} at q^{i}",
            index=i,
        )
    return c


def _frobenius(b: Fraction, order: int) -> PuiseuxSeries:
    """The solution q**b (1 + ...) of D(D(y)) - b**2 E4 y = 0 to ``order`` terms
    (``series.solve_ode``).  InvalidParameters when 2b is an integer, where
    the indicial roots +-b differ by an integer (resonance).
    """
    b = Fraction(b)
    if b.denominator <= 2:
        raise InvalidParameters(f"2b = {2 * b} is an integer: resonant recurrence")
    e4 = forms.eisenstein(4, order)
    return PuiseuxSeries(b, solve_ode((e4 * -(b * b), 0, 1), b, order))


def ode_solutions(h: PuiseuxSeries) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """The Frobenius solutions q**(+-a) (1 + ...), a = h.offset/2, to h's order.

    They solve D(D(y)) - a**2 E4 y = 0; only h's offset and order are read.
    """
    a = h.offset / 2
    return _frobenius(a, h.order), _frobenius(-a, h.order)


def verify_ode(y: PuiseuxSeries, s: Fraction) -> bool:
    """Check D(D(y)) + s * E4 * y = 0 exactly; True on success.

    Raises OdeResidualNonzero with the integer exponent offset of the first
    nonzero residual coefficient.
    """
    if y.is_zero():
        raise InvalidParameters("cannot verify the ODE for the zero series")
    residual = apply_ode((forms.eisenstein(4, y.order) * Fraction(s), 0, 1), y)
    where = residual.valuation()
    if where is None:
        return True
    raise OdeResidualNonzero(
        f"residual {residual[where]} at exponent offset {where}", index=where
    )


class SolutionBundle(NamedTuple):
    """A verified solution h = q**(n/m) (1 + O(q)) of the pair (m, n).

    It stores what ``solve`` computed, h.  The rest is fixed by (m, n) and
    derived on reading: n = r m + n' (``vvmf.split_n``), the weight 5 + 6r
    of the form h was read from, the (c, e) of every level's Wronskian
    W = c Delta**e (``vvmf.level_constants``), the proportionality constant
    -(1/2)(n/m)**2 of {h} / E4 (``schwarz_constant``) and s = -(n/2m)**2
    (``ode_parameter``).
    """

    m: int
    n: int
    h: PuiseuxSeries

    @property
    def n_prime(self) -> int:
        return vvmf.split_n(self.m, self.n)[0].n_prime

    @property
    def r(self) -> int:
        return vvmf.split_n(self.m, self.n)[1]

    @property
    def weight(self) -> int:
        return 5 + 6 * self.r

    @property
    def wronskians(self) -> tuple[tuple[Fraction, int], ...]:
        """``vvmf.level_constants(m, n)``, recomputed on every read: about
        0.4 s at r = 1600, so a caller that reads it more than once keeps
        the tuple."""
        return vvmf.level_constants(self.m, self.n)

    @property
    def schwarz_constant(self) -> Fraction:
        return -Fraction(self.n, self.m) ** 2 / 2

    @property
    def ode_parameter(self) -> Fraction:
        return -Fraction(self.n, 2 * self.m) ** 2


def solve(m: int, n: int, order: int = 40) -> SolutionBundle:
    """Construct and verify the solution for coprime m >= 7, n >= 1.

    ``order`` is the number of tracked body coefficients of h.  Both
    components of the minimal form are built to ``order`` terms and checked
    against the Frobenius series of the level-0 MLDE by
    ``vvmf.minimal_form``.  With r = 0, h is their ratio.  Otherwise
    ``vvmf.raise_second`` raises the second component alone to level r,
    checking it against each level's MLDE through ``order`` terms, and h
    comes from it by reduction of order (module docstring).  The first
    differing coefficient raises InternalMismatch with its index; a bump of
    a checked component at q^k is named at k, the first coefficient of h it
    changes.
    """
    rep, r = _parameters(m, n, order)
    form = vvmf.minimal_form(rep, order)
    if not r:
        # both factors are built and checked already; reduction of order
        # measured 19-25% slower here at orders 30 and 60
        return _bundle(form)
    second = vvmf.raise_second(form, r)
    return SolutionBundle(m=m, n=n, h=_reduction_of_order(m, n, second, form.base))


def _parameters(
    m: int, n: int, order: int, name: str = "order"
) -> tuple[vvmf.ReprData, int]:
    """``vvmf.split_n(m, n)``, after which InvalidParameters unless ``order``
    (``name`` in the message) is an integer >= 2."""
    rep, r = vvmf.split_n(m, n)
    if not isinstance(order, int):
        raise InvalidParameters(f"{name} must be an integer, got {order!r}")
    if order < 2:
        raise InvalidParameters(f"{name} must be >= 2")
    return rep, r


def _bundle(form: vvmf.VectorForm) -> SolutionBundle:
    """The SolutionBundle read from ``form``, raised r = form.level times:
    h = first / second, normalized to leading coefficient 1.

    Nothing beyond h's leading exponent is checked here: ``solve`` has
    proved the minimal form's equations, and the CLI's ``verify`` checks W,
    {h} and h y2 literally at every level it reads h from.
    """
    rep, r = form.rep, form.level
    m, n = rep.m, r * rep.m + rep.n_prime
    ratio = form.first / form.second
    h = ratio / ratio.leading
    sigma = Fraction(n, m)
    if h.offset != sigma:
        raise InternalMismatch(
            f"h has leading exponent {h.offset}, expected n/m = {sigma}"
        )
    return SolutionBundle(m=m, n=n, h=h)


def _reduction_of_order(
    m: int, n: int, second: PuiseuxSeries, base: BaseForms
) -> PuiseuxSeries:
    """h = q**(n/m) sum_i g_i (n/m) / (n/m + i) q**i from the level-r second
    component f2 = q**o2 b alone, with g = (Delta/q)**e (b / b_0)**-2 and
    e = r + 1 (module docstring), to f2's order."""
    body = second.body
    e = n // m + 1
    g = hypergeometric.delta_power(e, base, body.order) * (
        body / second.leading
    ).pow_rational(-2)
    h = SeriesBuilder()
    for i, x in enumerate(g.numerators):  # D^-1, term by term
        h.append(x * n, g.denominator * (n + i * m))
    return PuiseuxSeries(Fraction(n, m), h.series())

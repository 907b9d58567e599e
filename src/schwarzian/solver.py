"""Solutions h of the modular Schwarzian equation, mechanically verified.

For coprime m >= 7 and n >= 1, write n = r m + n' with 0 < n' < m.  The
ratio h of the two components of the minimal vector form, raised r times,
is q**(n/m) (1 + O(q)), and its Schwarzian derivative in the D = q d/dq
convention,

    {h} = D(D2h / Dh) - (1/2) (D2h / Dh)**2,

is exactly -(1/2) (n/m)**2 * E4.  Equivalently h = y1 / y2 for the Frobenius
solutions y1, y2 = q**(+-n/2m) (1 + ...) of D(D(y)) + s E4 y = 0, s = -(n/2m)**2.

``solve`` takes levels 0 .. r from ``vvmf.weight_levels`` and proves one
equation per level: both components of the level-k form solve the modular
linear differential equation of that level, D^2 f + p Df + q f = 0 with
p = -(k+1) E2 (``hypergeometric.mlde_coefficients``, ``vvmf.mlde_check``).
Exact algebra takes the rest from it, for the form at level r with e = r + 1:

* Abel's identity, D W = -p W = e E2 W, makes the Wronskian c Delta**e;
* {f1/f2} = 2q - p**2/2 - Dp, which the level's coefficients make
  -(1/2)(n/m)**2 E4;
* y_i = f_i Delta**(-e/2) solve D(D(y)) + s E4 y = 0, so h = y1 / y2.

A coefficient that breaks an equation raises a VerificationError subclass
naming its index.  The literal routes (``vvmf.wronskian_check``,
``schwarz_derivative`` with ``verify_proportionality``, and ``verify_ode``
on h y2) serve ``acceptance`` and the CLI's ``verify``, which recompute W,
{h} and the ODE residual from the series of the same chain of levels.

Convention note: with derivatives taken directly in tau instead of D, the
Schwarzian picks up a fixed factor (2 pi i)^2, and other normalizations in
circulation rescale the constant by 4; the values verified here are the
D-convention ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import forms, vvmf
from .errors import (
    DegenerateDerivative,
    InternalMismatch,
    InvalidParameters,
    NotProportional,
    OdeResidualNonzero,
)
from .series import PuiseuxSeries, QSeries, apply_ode, solve_ode

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


@dataclass(frozen=True, slots=True)
class SolutionBundle:
    """A verified solution h = q**(n/m) (1 + O(q)) and its provenance.

    It stores what ``solve`` computed: h, and the (c, e) of every level's
    Wronskian W = c Delta**e in ``wronskians``.  The rest is fixed by
    (m, n) and derived on reading: n = r m + n' (``vvmf.split_n``), the
    weight 5 + 6r of the form h was read from, the proportionality
    constant -(1/2)(n/m)**2 of {h} / E4 (``schwarz_constant``) and
    s = -(n/2m)**2 (``ode_parameter``).
    """

    m: int
    n: int
    h: PuiseuxSeries
    wronskians: tuple[tuple[Fraction, int], ...]

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
    def schwarz_constant(self) -> Fraction:
        return -Fraction(self.n, self.m) ** 2 / 2

    @property
    def ode_parameter(self) -> Fraction:
        return -Fraction(self.n, 2 * self.m) ** 2


def solve(m: int, n: int, order: int = 40) -> SolutionBundle:
    """Construct and verify the solution for coprime m >= 7, n >= 1.

    ``order`` is the number of tracked body coefficients of h.  Levels 0
    to r come from ``vvmf.weight_levels``, one held at a time, and both
    components of each are checked in exact arithmetic against the
    Frobenius series of that level's MLDE by ``vvmf.mlde_check``, which
    ``vvmf.minimal_form`` runs on level 0.  The first differing coefficient
    raises InternalMismatch with its index; a bump of a component at q^k is
    named at k, the first coefficient of h it changes.  Those equations fix
    W = c Delta**e at every level, {h} = -(1/2)(n/m)**2 E4 and h = y1 / y2
    (module docstring), which the bundle reports without recomputing them.
    """
    rep, r = _parameters(m, n, order)
    levels = []
    for form in islice(vvmf.weight_levels(rep, order, r), r + 1):
        levels.append(vvmf.mlde_check(form) if form.level else vvmf.mlde_wronskian(form))
    return _bundle(form, levels)


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


def _bundle(
    form: vvmf.VectorForm, levels: list[tuple[Fraction, int]]
) -> SolutionBundle:
    """The SolutionBundle read from ``form``, raised r = form.level times,
    with ``levels`` the Wronskian (c, e) of each level.

    h = first / second, normalized to leading coefficient 1.  Nothing
    beyond h's leading exponent is checked here: ``solve`` has proved the
    equations, and the CLI's ``verify`` checks W, {h} and h y2 literally.
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
    return SolutionBundle(m=m, n=n, h=h, wronskians=tuple(levels))

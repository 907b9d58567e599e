"""Solutions h of the modular Schwarzian equation, mechanically verified.

For coprime m >= 7 and n >= 1, write n = r m + n' with 0 < n' < m.  The
ratio h of the two components of the minimal vector form, raised r times,
is q**(n/m) (1 + O(q)), and its Schwarzian derivative in the D = q d/dq
convention,

    {h} = D(D2h / Dh) - (1/2) (D2h / Dh)**2,

is exactly -(1/2) (n/m)**2 * E4.  Equivalently h = y1 / y2 for the Frobenius
solutions y1, y2 = q**(+-n/2m) (1 + ...) of D(D(y)) + s E4 y = 0, s = -(n/2m)**2.

``solve`` builds h, re-derives those statements from the series, and raises
a VerificationError subclass (with the index of the first bad coefficient)
if any of them fails to hold exactly.

Convention note: with derivatives taken directly in tau instead of D, the
Schwarzian picks up a fixed factor (2 pi i)^2, and other normalizations in
circulation rescale the constant by 4; the values verified here are the
D-convention ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import forms, vvmf
from .errors import (
    DegenerateDerivative,
    InternalMismatch,
    InvalidParameters,
    NotProportional,
    OdeResidualNonzero,
)
from .series import PuiseuxSeries, QSeries, solve_recurrence

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
    g = dh.derive() / dh
    if g.offset != 0:
        # cannot happen for normalized input: D fixes the leading exponent
        # whenever it is nonzero and raises it otherwise
        raise InternalMismatch(f"log-derivative ratio has offset {g.offset}")
    gq = g.body
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
    """The solution q**b (1 + ...) of D(D(y)) - b**2 E4 y = 0 to ``order`` terms,
    from c_k k(k + 2b) = b**2 sum_{j>=1} E4_j c_{k-j} (``solve_recurrence``).
    InvalidParameters when 2b is an integer (resonant).
    """
    b = Fraction(b)
    if b.denominator <= 2:
        raise InvalidParameters(f"2b = {2 * b} is an integer: resonant recurrence")
    # b = p/q and E4_j = e_j/d, so
    # c_k = p^2 sum_j e_j c_{k-j} / (q d k (k q + 2 p))
    e4 = forms.eisenstein(4, order)
    p, q, d = b.numerator, b.denominator, e4.denominator
    re = [p * p * x for x in e4.numerators[::-1]]

    def term(k):
        return re[order - 1 - k : order - 1], q * d * k * (k * q + 2 * p)

    return PuiseuxSeries(b, solve_recurrence(order, term))


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
    residual = y.derive().derive() + y * forms.eisenstein(4, y.order) * Fraction(s)
    if residual.is_zero():
        return True
    where = residual.offset - y.offset
    raise OdeResidualNonzero(
        f"residual {residual.leading} at exponent offset {where}",
        index=int(where),
    )


@dataclass(frozen=True)
class SolutionBundle:
    """A verified solution h = q**(n/m) (1 + O(q)) and its provenance.

    ``schwarz_constant`` is the verified proportionality constant
    -(1/2)(n/m)**2 and ``ode_parameter`` the verified s = -(n/2m)**2;
    ``wronskians`` holds the (c, e) pair from every level's Wronskian check,
    and ``weight`` is the weight of the form h was read from.
    """

    m: int
    n: int
    n_prime: int
    r: int
    h: PuiseuxSeries
    weight: int
    schwarz_constant: Fraction
    ode_parameter: Fraction
    wronskians: tuple[tuple[Fraction, int], ...]


def solve(m: int, n: int, order: int = 40) -> SolutionBundle:
    """Construct and fully verify the solution for coprime m >= 7, n >= 1.

    ``order`` is the number of tracked body coefficients of h.  Every
    verification below runs to that order in exact arithmetic and raises on
    the first failure:

    * W = c Delta**(level+1), c != 0, as D W = (level+1) E2 W, at every level;
    * {h} - c E4 = 0 with c = {h}[0] = -(1/2)(n/m)**2;
    * D(D(y)) + s E4 y = 0 for y = h y2, s = -(n/2m)**2, with y2 the
      Frobenius solution q**(-n/2m) (1 + ...): it holds only if h = y1 / y2,
      so OdeResidualNonzero names the first coefficient of h that differs.
    """
    rep, r = _parameters(m, n, order)
    # each raising step consumes one body coefficient of the first component
    return _verified(vvmf.minimal_form(rep, order + r), r, [])


def _parameters(m: int, n: int, order: int) -> tuple[vvmf.ReprData, int]:
    """``vvmf.split_n(m, n)``, after which InvalidParameters unless order >= 2."""
    rep, r = vvmf.split_n(m, n)
    if order < 2:
        raise InvalidParameters("order must be >= 2")
    return rep, r


def _verified(
    form: vvmf.VectorForm, r: int, levels: list[tuple[Fraction, int]]
) -> SolutionBundle:
    """Everything ``solve`` checks, from the minimal form built for it.

    Lifts ``form`` r weight levels and appends the Wronskian check of each
    level, 0 to r, to ``levels`` as it passes, so a caller can tell how far
    the raising got when a check fails.
    """
    levels.append(vvmf.wronskian_check(form))
    for _ in range(r):
        form = vvmf.raise_weight(form)
        levels.append(vvmf.wronskian_check(form))

    rep = form.rep
    m, n = rep.m, r * rep.m + rep.n_prime
    ratio = form.first / form.second
    h = ratio / ratio.leading
    sigma = Fraction(n, m)
    if h.offset != sigma:
        raise InternalMismatch(
            f"h has leading exponent {h.offset}, expected n/m = {sigma}"
        )

    constant = verify_proportionality(schwarz_derivative(h))
    expected = -(sigma**2) / 2
    if constant != expected:
        raise InternalMismatch(
            f"Schwarzian constant {constant} differs from -(1/2)(n/m)^2 = {expected}",
            index=0,
        )

    s = constant / 2
    verify_ode(h * _frobenius(-sigma / 2, h.order), s)

    return SolutionBundle(
        m=m,
        n=n,
        n_prime=rep.n_prime,
        r=r,
        h=h,
        weight=int(form.weight),
        schwarz_constant=constant,
        ode_parameter=s,
        wronskians=tuple(levels),
    )

"""Floating-point evaluation and the series-vs-closed-form cross-check.

Two independent evaluation routes for the verified solution h:

* summing its q-expansion at q = exp(2 pi i tau);
* the closed hypergeometric form: with z = 1728/j(tau) and each component
  F_k = 2F1(a_k, b_k; c_k; z), the ratio h = z**(n/m) F_1(z) / F_2(z) up to
  the fixed scalar 1728**(n/m) that unit-normalization removes.

The closed form holds on the interior of the standard fundamental domain F
(|Re tau| < 1/2, |tau| > 1), where z avoids both branch cuts, (-inf, 0] of
z**(n/m) and [1, inf) of 2F1, so their principal branches continue the
identity that holds near i*inf.  ``eval_h_hypergeometric`` first moves tau
by an integer into |Re tau| <= 1/2 and restores the phase through
h(tau + 1) = exp(2 pi i n/m) h(tau); it refuses |tau| <= 1 (OutsideDisk).
Inside |z| < 0.95 it sums the 2F1 Taylor series from their exact
coefficients; beyond, up to the arc |tau| = 1, it continues them
analytically: in complex doubles by re-expanding the hypergeometric
equation along the ray from 0 to z, at an integer precision by mpmath's
``hyp2f1``.  z = 1728 q (Delta/q) / E4**3 comes from the package's own
integer q-series of E4 and Delta/q, each summed at tau, so the route stays
independent of mpmath's modular functions.  Both series converge on the
whole unit disk in q, so they stay accurate up to the corner
rho = exp(2 pi i/3), where E4 vanishes and z has its pole.

``precision=None`` computes in ordinary complex doubles; an integer selects
mpmath with that many bits of working precision.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import ceil, copysign, floor, inf, log2
from sys import float_info
from typing import Any, Callable, NamedTuple

from . import forms, solver
from .errors import (
    DivergentSeries,
    InvalidParameters,
    NotUpperHalfPlane,
    NumericOverflow,
    OutsideDisk,
)
from .hypergeometric import HypergeomParams, hypergeom_coeffs
from .series import PuiseuxSeries, QSeries
from .vvmf import ReprData

_OVERFLOW = 1e300
_EPS = 2.0**-60  # relative size of the last Taylor terms summed in doubles
_MAX_TERMS = 200
_MAX_STEPS = 2000  # a walk to |z| = 1e18, or to 1e-15 from 1, takes about 100
_MARGIN = 0.05  # the 2F1 Taylor series are summed for |z| < 1 - _MARGIN
_GUARD = 32  # bits of _horner's integer sums beyond the working precision


@lru_cache(maxsize=32)
def _context(precision: int) -> Any:
    """The one mpmath context for ``precision`` bits, shared by every call.

    Each ``mpmath.mp.clone()`` makes new number classes, and every value
    keeps its context alive, so cloning per evaluation costs about 44 KB of
    memory per 200-bit result that is kept.  Callers must not change the
    shared context's precision.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.prec = precision
    return mp


class _Backend:
    """Uniform complex arithmetic over cmath doubles or mpmath bits."""

    def __init__(self, precision: int | None):
        _check_precision(precision)
        if precision is None:
            self.exp: Callable[[Any], Any] = cmath.exp
            self.log: Callable[[Any], Any] = cmath.log
            self._mp = None
        else:
            mp = _context(precision)
            self._mp = mp
            self.exp = mp.exp
            self.log = mp.log

    def number(self, value: Any) -> Any:
        if self._mp is None:
            return complex(value)
        if isinstance(value, Fraction):
            return self._mp.mpf(value.numerator) / self._mp.mpf(value.denominator)
        if isinstance(value, complex):
            return self._mp.mpc(value.real, value.imag)
        return self._mp.mpmathify(value)

    def hyp2f1(self, params: HypergeomParams, z: Any) -> Any:
        """Principal-branch 2F1(a, b; c; z), continued past |z| = 1."""
        if self._mp is None:
            return _hyp2f1_doubles(params, z)
        a, b, c = (self.number(p) for p in (params.a, params.b, params.c))
        return self._mp.hyp2f1(a, b, c, z)

    def pi(self) -> Any:
        if self._mp is None:
            return cmath.pi
        return self._mp.pi


def _hyp2f1_doubles(params: HypergeomParams, z: complex) -> complex:
    """Principal-branch 2F1(a, b; c; z) in complex doubles, for z off [1, inf).

    Sums the Taylor series at 0 out to |z| <= 1/2, then walks to z,
    re-expanding the hypergeometric equation
    z (1 - z) F'' + (c - (a + b + 1) z) F' - a b F = 0 about each point
    reached, in steps of half the distance to the nearest singular point,
    0 or 1.  The walk follows the ray from 0 to z, except that for
    Re z > 1 it heads first for z + i |z - 1| on the side of z, so it keeps
    clear of 1 however close z lies to the cut.  Doubles stay clear of
    mpmath, whose import alone adds about 2.6 MB to a process's resident
    memory.  Raises OutsideDisk when z lies on the cut to double precision.
    """
    if z.imag == 0 and z.real >= 1:
        raise OutsideDisk(f"1728/j(tau) = {z} lies on the cut [1, inf) of 2F1")
    a, b, c = float(params.a), float(params.b), float(params.c)
    path = [z + copysign(abs(z - 1), z.imag) * 1j, z] if z.real > 1 else [z]
    z0 = path[0] if abs(path[0]) <= 0.5 else path[0] * (0.5 / abs(path[0]))
    term, f, df = 1 + 0j, 0j, 0j
    for k in range(_MAX_TERMS):
        f += term
        df += k * term
        if abs(term) <= _EPS * abs(f):
            break
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z0
    df /= z0
    for target in path:
        for _ in range(_MAX_STEPS):
            if z0 == target:
                break
            reach = min(abs(z0), abs(1 - z0)) / 2
            last = abs(target - z0) <= reach
            t = target - z0 if last else (target - z0) * (reach / abs(target - z0))
            # u_k = f_k t^k for the Taylor coefficients f_k of F about z0:
            # z0 (1 - z0) (k+1)(k+2) u_{k+2} = (k+a)(k+b) t^2 u_k
            #     - (k+1) ((1 - 2 z0) k + c - (a+b+1) z0) t u_{k+1}
            d, e, g = z0 * (1 - z0), 1 - 2 * z0, c - (a + b + 1) * z0
            prev, cur = f, df * t
            f, df = prev + cur, cur
            for k in range(_MAX_TERMS):
                nxt = ((k + a) * (k + b) * t * prev - (k + 1) * (e * k + g) * cur) * t
                nxt /= d * (k + 1) * (k + 2)
                f += nxt
                df += (k + 2) * nxt
                if abs(nxt) + abs(cur) <= _EPS * abs(f):
                    break
                prev, cur = cur, nxt
            df /= t
            z0 = target if last else z0 + t
        else:
            raise OutsideDisk(
                f"1728/j(tau) = {z} lies within rounding of the branch point 1 of 2F1"
            )
    return f


def _check_precision(precision: int | None) -> None:
    """InvalidParameters unless doubles (None) or at least 8 bits."""
    if precision is not None and precision < 8:
        raise InvalidParameters("precision must be at least 8 bits")


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise NotUpperHalfPlane(f"tau = {tau} has nonpositive imaginary part")
    if not cmath.isfinite(tau):
        raise NotUpperHalfPlane(f"tau = {tau} is not a finite point")
    return tau


def _horner(f: QSeries, q: Any, backend: _Backend) -> Any:
    """sum_k f[k] q**k for |q| <= 1, read from f's integer numerators.

    At an integer precision the terms from the first nonzero coefficient on
    are summed on integers scaled by 2**shift, far cheaper than mpmath
    numbers.  The shift gives that coefficient _GUARD bits beyond the
    working precision, plus the bits that the rounding of q and of every
    step can cost next to it, so short of cancellation the result is as
    accurate as floating-point Horner.
    """
    mp = backend._mp
    nums, den = f.numerators, f.denominator
    if mp is None:
        acc = 0j
        for x in reversed(nums):
            acc = acc * q + x / den
        return acc
    first = next((k for k, x in enumerate(nums) if x), len(nums))
    q = mp.mpc(q)
    log_q = log2(max(abs(complex(q)), 1e-300))
    # about log2 |c_k q**(k-1)| (the common denominator cancels in the
    # differences): what rounding q and each step can cost
    bits = [
        x.bit_length() + max(k - 1, 0) * log_q for k, x in enumerate(nums[first:])
    ] or [0]
    shift = mp.prec + _GUARD + ceil(max(bits) - bits[0]) + 2 * len(nums).bit_length()
    qr, qi = int(mp.ldexp(q.real, shift)), int(mp.ldexp(q.imag, shift))
    ar = ai = 0
    for x in reversed(nums[first:]):
        ar, ai = (
            ((ar * qr - ai * qi) >> shift) + (x << shift) // den,
            (ar * qi + ai * qr) >> shift,
        )
    value = mp.mpc(mp.ldexp(ar, -shift), mp.ldexp(ai, -shift))
    return value * q**first if first else value


def eval_qseries(
    f: QSeries | PuiseuxSeries, tau: complex, precision: int | None = None
) -> complex | Any:
    """Evaluate a (fractional-power) q-series at q = exp(2 pi i tau).

    The fractional factor q**offset is computed as exp(offset * 2 pi i tau)
    — the branch every q-expansion here is defined with — rather than by
    powering a wrapped q.  Raises NotUpperHalfPlane off the domain and, in
    doubles, NumericOverflow if a coefficient, a term or the result leaves
    the double range or the result is not finite.
    """
    tau = _check_tau(tau)
    backend = _Backend(precision)
    if isinstance(f, QSeries):
        f = PuiseuxSeries(0, f)
    two_pi_i = backend.number(2j) * backend.pi()
    q = backend.exp(two_pi_i * backend.number(tau))
    try:
        value = _horner(f.body, q, backend)
        if not f.is_zero() and f.offset:
            value = value * backend.exp(
                backend.number(f.offset) * two_pi_i * backend.number(tau)
            )
    except OverflowError as exc:  # int / int or exp beyond the double range
        raise NumericOverflow(f"{exc} at tau = {tau}") from exc
    # written so that a NaN part fails it too
    if precision is None and not (
        abs(value.real) <= _OVERFLOW and abs(value.imag) <= _OVERFLOW
    ):
        raise NumericOverflow(
            f"|value| exceeds {_OVERFLOW:g} or is not finite at tau = {tau}"
        )
    return value


@lru_cache(maxsize=16)
def _z_factors(n_terms: int) -> tuple[QSeries, QSeries]:
    """E4 and Delta/q to ``n_terms`` terms, the integer series whose sums
    give z = 1728 q (Delta/q) / E4**3, built once per length.

    Like ``hypergeometric.base_forms``, the cache sits with its reader
    rather than in ``forms``, whose functions the seeded-bug check replaces.
    No ``solve`` reads this one, so ``acceptance`` never needs to clear it.
    """
    return forms.eisenstein(4, n_terms), forms.eta_power(24, n_terms).body


def _closed_form_rep(m: int, n: int, n_terms: int) -> ReprData:
    """``solver._parameters`` for n_terms, then InvalidParameters unless
    n < m: the closed form covers one sheet."""
    rep, r = solver._parameters(m, n, n_terms, "n_terms")
    if r:
        raise InvalidParameters(
            f"the closed form covers 0 < n < m only, got m={m}, n={n}"
        )
    return rep


def eval_h_hypergeometric(
    m: int,
    n: int,
    tau: complex,
    n_terms: int = 60,
    precision: int | None = None,
) -> complex | Any:
    """Closed-form h(tau), normalized to match the unit-leading q-series.

    Moves tau by an integer k into |Re tau| <= 1/2 (k = 0 when it already
    lies there) and refuses the shifted point if |tau| <= 1 (OutsideDisk):
    on and below the arc the principal branches no longer represent h.
    With z = 1728/j(tau) it then returns

        exp((n/m) (Log z - log 1728)) * F_first(z) / F_second(z)

    times exp(2 pi i k n/m).  Log and 2F1 take their principal branches;
    dividing out 1728**(n/m) matches the series normalization
    h = q**(n/m) (1 + O(q)).  z = 1728 q (Delta/q) / E4**3 is summed from
    the integer q-series of E4 and Delta/q, which converge up to the corner
    rho = exp(2 pi i/3): with 60 terms, doubles at tau = -0.49 + 0.88i
    agree with mpmath's ``kleinj`` and ``hyp2f1`` to about 1e-15.  Inside
    F, Im z has the sign of Re tau.  Where the summed z lands across a cut
    instead (the negative axis of Log on the lines Re tau = +-1/2, or
    (1, inf) of 2F1 within rounding of the arc), the side that continues
    from the interior is taken.

    For |z| < 1 - _MARGIN = 0.95 the 2F1 factors are summed to ``n_terms``
    terms from their exact rational coefficients, with an error that falls
    like |z|**n_terms (about 2e-5 at tau = 1.08i, |z| = 0.92, with 60
    terms); otherwise they are continued analytically (``_hyp2f1_doubles``
    in doubles, mpmath's ``hyp2f1`` at an integer precision), and
    ``n_terms`` only sets the length of the series of E4 and Delta/q.
    Near tau = i, where 2F1 has a square-root branch point at z = 1,
    rounding errors in z are amplified: doubles give about 2e-11 at
    tau = 1.00000001i; closer to i, z rounds onto the cut and the point is
    refused, while 200 bits still give about 2e-52 at tau = 1.0000000001i.
    Where q = exp(2 pi i tau) leaves the normal double range (Im tau >
    about 112.7), z = 1728 q (1 + O(q)) has lost its bits, and in doubles
    the value is taken as exp((n/m) 2 pi i tau), to which the closed form
    reduces there.  (m, n) and ``n_terms`` are checked as ``solve`` checks
    them, and only 0 < n < m is meaningful here (InvalidParameters
    otherwise).
    """
    first, second = (r.params for r in _closed_form_rep(m, n, n_terms).recipes)
    tau = _check_tau(tau)
    shift = 0 if abs(tau.real) <= 0.5 else floor(tau.real + 0.5)
    shifted = tau - shift
    if abs(shifted) <= 1:
        raise OutsideDisk(
            f"tau = {tau} lies on or below the arc |tau - k| = 1 (k = {shift}), "
            "outside the fundamental domain; the closed form's principal "
            "branches do not represent h there"
        )
    backend = _Backend(precision)
    two_pi_i = backend.number(2j) * backend.pi()
    q = backend.exp(two_pi_i * backend.number(shifted))
    exponent = backend.number(Fraction(n, m))
    if precision is None and abs(q) < float_info.min:
        # the O(q) terms of F_first / F_second and of Log z - log 1728 - 2 pi i
        # tau lie far below double rounding
        value = backend.exp(exponent * two_pi_i * shifted)
    else:
        # z = 1728/j(tau) from E4 and Delta summed at tau; inside F, Im z
        # has the sign of Re tau: take that side of each cut
        e4, delta_over_q = _z_factors(n_terms)
        e = _horner(e4, q, backend)
        z = 1728 * q * _horner(delta_over_q, q, backend) / (e * e * e)
        if z.real > 1 and z.imag * shifted.real < 0:
            z = z.conjugate()
        if abs(complex(z)) < 1 - _MARGIN:
            f1 = _horner(hypergeom_coeffs(first, n_terms), z, backend)
            f2 = _horner(hypergeom_coeffs(second, n_terms), z, backend)
        else:
            f1 = backend.hyp2f1(first, z)
            f2 = backend.hyp2f1(second, z)
        log_z = backend.log(z)
        if z.real < 0 and (log_z.imag > 0) != (shifted.real > 0):
            log_z += two_pi_i if shifted.real > 0 else -two_pi_i
        prefactor = backend.exp(exponent * (log_z - backend.log(backend.number(1728))))
        value = prefactor * f1 / f2
    if shift:
        value *= backend.exp(two_pi_i * backend.number(Fraction(shift * n % m, m)))
    return value


class EvalReport(NamedTuple):
    """Side-by-side evaluation of h by its two independent routes.

    It holds only what the evaluation computed; tau and the number of
    terms stay with the caller.  ``tail_bound`` estimates the truncation of
    h's q-series alone (``_tail_estimate``).  It says nothing of the closed
    form's summed 2F1 Taylor series, whose error near |z| = 0.95 can
    dominate ``rel_error`` (the series of E4 and Delta/q that give z add
    no error of that size, even near rho): (8, 3) at
    tau = -0.0945 + 1.1044i reports a rel_error of 6.8e-5 with a
    tail_bound of 2.4e-125.
    """

    via_series: complex
    via_hypergeom: complex
    rel_error: float
    tail_bound: float


def _tail_estimate(h: PuiseuxSeries, q_abs: float) -> float:
    """Geometric tail heuristic from the last two tracked coefficients.

    If the trailing coefficient ratio times |q| is rho < 1, bound the tail
    by last_term * rho / (1 - rho); otherwise the terms do not shrink and
    the tail is infinite.  A heuristic, not a certificate.
    """
    coeffs = h.body
    if coeffs.order < 2 or not coeffs[-1] or not coeffs[-2]:
        return 0.0
    last = abs(float(coeffs[-1])) * q_abs ** (coeffs.order - 1 + float(h.offset))
    rho = abs(float(coeffs[-1]) / float(coeffs[-2])) * q_abs
    return last * rho / (1 - rho) if rho < 1 else inf


def cross_check(
    m: int,
    n: int,
    tau: complex,
    n_terms: int = 60,
    precision: int | None = None,
) -> EvalReport:
    """Evaluate h both ways at tau and report the relative discrepancy.

    The q-expansion comes from the fully verified ``solver.solve`` bundle;
    the closed form from ``eval_h_hypergeometric``.  Agreement of the two
    is the end-to-end numerical check of the whole construction.  A pair
    the closed form does not cover, a tau off the upper half plane and a
    precision below 8 bits are refused before anything is solved; a tau
    where the q-series does not converge, by DivergentSeries.
    """
    _closed_form_rep(m, n, n_terms)
    _check_tau(tau)
    _check_precision(precision)
    return _cross_check_bundle(solver.solve(m, n, n_terms), tau, n_terms, precision)


def _cross_check_bundle(
    bundle: solver.SolutionBundle,
    tau: complex,
    n_terms: int,
    precision: int | None = None,
) -> EvalReport:
    """``cross_check`` on an already solved bundle of order ``n_terms``.

    Raises DivergentSeries, before the closed form is evaluated, when the
    q-series' tail estimate, infinite if its terms grow, is at least its value.
    """
    tau = _check_tau(tau)
    via_series = eval_qseries(bundle.h, tau, precision=precision)
    q_abs = abs(cmath.exp(2j * cmath.pi * tau))
    tail = _tail_estimate(bundle.h, q_abs)
    if tail and tail >= abs(via_series):
        raise DivergentSeries(
            f"the q-series route does not converge at tau = {tau}: its tail "
            f"estimate {tail:.3g} after {n_terms} terms is at least the "
            f"summed value's modulus {float(abs(via_series)):.3g}"
        )
    via_hyper = eval_h_hypergeometric(
        bundle.m, bundle.n, tau, n_terms, precision=precision
    )
    # difference in the working precision, so high-precision runs can
    # report discrepancies far below double rounding
    scale = max(abs(via_series), abs(via_hyper))
    rel = float(abs(via_series - via_hyper) / scale) if scale else 0.0
    return EvalReport(
        via_series=complex(via_series),
        via_hypergeom=complex(via_hyper),
        rel_error=rel,
        tail_bound=tail,
    )

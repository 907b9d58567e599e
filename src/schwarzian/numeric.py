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
``hyp2f1``.  z itself always comes from the package's own q-expansion of
1728/j, so the route stays independent of mpmath's modular functions.
Near the corner rho = exp(2 pi i/3) the q-series of z nears its radius of
convergence exp(-pi sqrt 3): at tau = -0.49 + 0.9i the two routes agree
only to about 5e-6 with 60 terms.

``precision=None`` computes in ordinary complex doubles; an integer selects
mpmath with that many bits of working precision.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, copysign, floor, log2
from sys import float_info
from typing import Any, Callable

from . import solver
from .errors import (
    DivergentSeries,
    InvalidParameters,
    NotUpperHalfPlane,
    NumericOverflow,
    OutsideDisk,
)
from .forms import j_inverse
from .hypergeometric import HypergeomParams, component_recipe, hypergeom_coeffs
from .series import PuiseuxSeries, QSeries

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
    powering a wrapped q.  Raises NotUpperHalfPlane off the domain and
    NumericOverflow if the result leaves the double range.
    """
    tau = _check_tau(tau)
    backend = _Backend(precision)
    if isinstance(f, QSeries):
        f = PuiseuxSeries(0, f)
    two_pi_i = backend.number(2j) * backend.pi()
    q = backend.exp(two_pi_i * backend.number(tau))
    value = _horner(f.body, q, backend)
    if not f.is_zero() and f.offset:
        value = value * backend.exp(backend.number(f.offset) * two_pi_i * backend.number(tau))
    if precision is None and (
        abs(value.real) > _OVERFLOW or abs(value.imag) > _OVERFLOW
    ):
        raise NumericOverflow(f"|value| exceeds {_OVERFLOW:g} at tau = {tau}")
    return value


@lru_cache(maxsize=16)
def _z_series(m_terms: int) -> QSeries:
    """The integer q-expansion of 1728/j, built once per length.

    The cache lives here rather than in ``forms``: the seeded-bug check
    corrupts ``forms.eisenstein`` and ``forms.eta_power`` and needs every
    ``solve`` to rebuild the base forms from them.
    """
    return j_inverse(m_terms)


def _one_sheet(m: int, n: int) -> None:
    """Refuse n >= m (InvalidParameters): the closed form covers one sheet."""
    if isinstance(m, int) and isinstance(n, int) and n >= m:
        raise InvalidParameters(
            f"the closed form covers 0 < n < m only, got m={m}, n={n}"
        )


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
    h = q**(n/m) (1 + O(q)).  Inside F, Im z has the sign of Re tau.  Where
    z, summed from its q-series, lands across a cut instead (the negative
    axis of Log on the lines Re tau = +-1/2, or (1, inf) of 2F1 within the
    series' error of the arc), the side that continues from the interior
    is taken.

    For |z| < 1 - _MARGIN = 0.95 the 2F1 factors are summed to ``n_terms``
    terms from their exact rational coefficients, with an error that falls
    like |z|**n_terms (about 2e-5 at tau = 1.08i, |z| = 0.92, with 60
    terms); otherwise they are continued analytically (``_hyp2f1_doubles``
    in doubles, mpmath's ``hyp2f1`` at an integer precision), and
    ``n_terms`` only sets the length of the q-series of z.  Accuracy falls
    towards the corner rho = exp(2 pi i/3), where that q-series nears its
    radius of convergence (about 5e-6 at tau = -0.49 + 0.9i with 60
    terms).  Near tau = i, where 2F1 has a square-root branch point at
    z = 1, errors in z are amplified: with 60 terms about 3e-10 at
    tau = 1.0000000001i even at 200 bits.  Doubles give about 7e-10 at
    tau = 1.00000001i; closer to i, z rounds onto the cut and the point is
    refused.  Where q = exp(2 pi i tau) leaves the normal double range
    (Im tau > about 112.7), z = 1728 q (1 + O(q)) has lost its bits, and in
    doubles the value is taken as exp((n/m) 2 pi i tau), to which the
    closed form reduces there.  Only 0 < n < m is meaningful here
    (``_one_sheet``); ``component_recipe`` validates (m, n) through
    ``ReprData``, and ``n_terms`` must be at least 2 (InvalidParameters).
    """
    _one_sheet(m, n)
    if n_terms < 2:
        raise InvalidParameters("n_terms must be >= 2")
    first = component_recipe(m, n, "first").params
    second = component_recipe(m, n, "second").params
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
        # z = 1728/j(tau) by summing its integer q-expansion; inside F, Im z
        # has the sign of Re tau: take that side of each cut
        z = _horner(_z_series(n_terms), q, backend)
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


@dataclass(frozen=True)
class EvalReport:
    """Side-by-side evaluation of h by its two independent routes."""

    tau: complex
    via_series: complex
    via_hypergeom: complex
    rel_error: float
    terms_used: int
    tail_bound: float


def _tail_estimate(h: PuiseuxSeries, q_abs: float) -> float:
    """Geometric tail heuristic from the last two tracked coefficients.

    If the trailing coefficient ratio times |q| is rho < 1, bound the tail
    by last_term * rho / (1 - rho); otherwise report the last term's
    magnitude.  A heuristic, not a certificate.
    """
    coeffs = h.body
    if coeffs.order < 2 or not coeffs[-1] or not coeffs[-2]:
        return 0.0
    last = abs(float(coeffs[-1])) * q_abs ** (coeffs.order - 1 + float(h.offset))
    rho = abs(float(coeffs[-1]) / float(coeffs[-2])) * q_abs
    if rho < 1:
        return last * rho / (1 - rho)
    return last


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
    _one_sheet(m, n)
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
    tail estimate of the summed q-series is at least its value.
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
        tau=tau,
        via_series=complex(via_series),
        via_hypergeom=complex(via_hyper),
        rel_error=rel,
        terms_used=n_terms,
        tail_bound=tail,
    )

"""Level-one modular form q-expansions with exact coefficients.

Normalizations:

    E2 = 1 - 24 sum sigma_1(n) q^n        (quasi-modular, weight 2)
    E4 = 1 + 240 sum sigma_3(n) q^n
    E6 = 1 - 504 sum sigma_5(n) q^n
    eta^e = q^(e/24) prod (1 - q^n)^e
    Delta = eta^24 = (E4^3 - E6^2) / 1728
    j = E4^3 / (1728 Delta),  so 1728/j = 1728 Delta / E4^3 = 1728 q - ...

``checked_eisenstein`` proves the first two identities below between E2,
E4 and E6, and ``delta`` that its two defining formulas agree; each
doubles as a standing self-test of the series engine.

The Serre derivative D_k f = D f - (k/12) E2 f maps weight k to weight
k + 2 and satisfies the Ramanujan identities

    D_1 E2 = -(1/12) E4,   D_4 E4 = -(1/3) E6,
    D_6 E6 = -(1/2) E4^2,   D_12 Delta = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalMismatch, OddExponent, UnsupportedWeight
from .series import PuiseuxSeries, QSeries, Scalar

_EISENSTEIN = {2: (1, -24), 4: (3, 240), 6: (5, -504)}


def _divisor_power_sums(power: int, order: int) -> list[int]:
    """sigma_power(n) for 0 < n < order, by sieving over divisors."""
    sums = [0] * order
    for d in range(1, order):
        dk = d**power
        for n in range(d, order, d):
            sums[n] += dk
    return sums


def eisenstein(k: int, order: int) -> QSeries:
    """The Eisenstein series E_k (k in {2, 4, 6}) to the given order."""
    if k not in _EISENSTEIN:
        raise UnsupportedWeight(f"no Eisenstein series of weight {k} here")
    if order < 1:
        raise ValueError("order must be >= 1")
    power, factor = _EISENSTEIN[k]
    sums = _divisor_power_sums(power, order)
    return QSeries([1] + [factor * s for s in sums[1:]])


def checked_eisenstein(order: int) -> tuple[QSeries, QSeries, QSeries, QSeries]:
    """E2, E4, E6 and E2^2 to ``order``.  InternalMismatch names the lowest
    index where 12 D E2 = E2^2 - E4 or 3 D E4 = E2 E4 - E6 fails, and that
    identity: one coefficient of E2, E4 or E6 off at q^i fails at q^i."""
    e2, e4, e6 = (eisenstein(k, order) for k in (2, 4, 6))
    e2_squared = e2 * e2
    residuals = (
        ("12 D E2 = E2^2 - E4", e2.derive() * 12 - e2_squared + e4),
        ("3 D E4 = E2 E4 - E6", e4.derive() * 3 - e2 * e4 + e6),
    )
    failures = [(r.valuation(), name, r) for name, r in residuals if not r.is_zero()]
    if failures:
        i, name, r = min(failures, key=lambda failure: failure[0])
        raise InternalMismatch(
            f"Ramanujan identity {name} fails at q^{i} by {r[i]}", index=i
        )
    return e2, e4, e6, e2_squared


def eta_power(exponent: int, order: int) -> PuiseuxSeries:
    """eta**exponent = q**(exponent/24) prod (1-q^n)**exponent, body to ``order``."""
    if exponent <= 0 or exponent % 2:
        raise OddExponent(f"eta power needs a positive even exponent, got {exponent}")
    if order < 1:
        raise ValueError("order must be >= 1")
    base = [0] * order  # Euler: prod (1 - q^n) = sum over k of (-1)^k q^(k(3k-1)/2)
    for k in range(-order, order):
        if (g := k * (3 * k - 1) // 2) < order:
            base[g] = -1 if k % 2 else 1
    body = QSeries(base) ** exponent
    return PuiseuxSeries(Fraction(exponent, 24), body)


def delta(order: int) -> QSeries:
    """The discriminant cusp form, coefficients for q^0 .. q^(order-1).

    Both defining formulas are computed; InternalMismatch (with the first
    failing index) is raised if they ever disagree.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    via_eta = eta_power(24, max(order - 1, 1)).body.shift(1).truncate(order)
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    via_eis = (e4 * e4 * e4 - e6 * e6) / 1728
    i = (via_eta - via_eis).valuation()
    if i is not None:
        raise InternalMismatch(
            f"Delta formulas disagree at q^{i}: eta route {via_eta[i]}, "
            f"Eisenstein route {via_eis[i]}",
            index=i,
        )
    return via_eta


def j_inverse(order: int) -> QSeries:
    """1728/j = 1728 Delta / E4^3, a series with zero constant term."""
    if order < 2:
        raise ValueError("order must be >= 2 to see the leading 1728 q")
    e4 = eisenstein(4, order)
    return (delta(order) * 1728) / (e4 * e4 * e4)


def serre_derivative(f: QSeries | PuiseuxSeries, weight: Scalar):
    """D_k f = D f - (k/12) E2 f, for rational weight k.

    Accepts either series type and returns the same type.
    """
    if not isinstance(f, (QSeries, PuiseuxSeries)):
        raise TypeError("serre_derivative expects a QSeries or PuiseuxSeries")
    return f.derive() - f * eisenstein(2, f.order) * (Fraction(weight) / 12)


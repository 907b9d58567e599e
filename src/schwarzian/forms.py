"""Level-one modular form q-expansions with exact coefficients.

Normalizations:

    E2 = 1 - 24 sum sigma_1(n) q^n        (quasi-modular, weight 2)
    E4 = 1 + 240 sum sigma_3(n) q^n
    E6 = 1 - 504 sum sigma_5(n) q^n
    eta^e = q^(e/24) prod (1 - q^n)^e
    Delta = eta^24 = (E4^3 - E6^2) / 1728
    j = E4^3 / (1728 Delta),  so 1728/j = 1728 Delta / E4^3 = 1728 q - ...

``delta`` computes both of its defining formulas and insists they agree,
which doubles as a standing self-test of the series engine.

The Serre derivative D_k f = D f - (k/12) E2 f maps weight k to weight
k + 2 and satisfies the Ramanujan identities

    D_4 E4 = -(1/3) E6,   D_6 E6 = -(1/2) E4^2,   D_12 Delta = 0.
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


def eta_power(exponent: int, order: int) -> PuiseuxSeries:
    """eta**exponent = q**(exponent/24) prod (1-q^n)**exponent, body to ``order``."""
    if exponent <= 0 or exponent % 2:
        raise OddExponent(f"eta power needs a positive even exponent, got {exponent}")
    if order < 1:
        raise ValueError("order must be >= 1")
    base = [1] + [0] * (order - 1)
    for n in range(1, order):
        # multiply by (1 - q^n), working downward in place
        for i in range(order - 1, n - 1, -1):
            base[i] -= base[i - n]
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
    via_eis = (e4**3 - e6**2) / 1728
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
    return (delta(order) * 1728) / eisenstein(4, order) ** 3


def serre_derivative(f: QSeries | PuiseuxSeries, weight: Scalar):
    """D_k f = D f - (k/12) E2 f, for rational weight k.

    Accepts either series type and returns the same type.
    """
    if not isinstance(f, (QSeries, PuiseuxSeries)):
        raise TypeError("serre_derivative expects a QSeries or PuiseuxSeries")
    return f.derive() - f * eisenstein(2, f.order) * (Fraction(weight) / 12)


"""Independent references for the benchmark's output checks.

Nothing here imports the schwarzian package.  E4 comes from the
benchmark's own divisor sums, h from the Frobenius recurrence of
D^2 y + s E4 y = 0, and the closed form from mpmath's own ``kleinj`` and
``hyp2f1``.  mpmath is imported lazily, so a worker that has not reached
its checks has not paid for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any


def e4_coeffs(order: int) -> list[int]:
    """1 + 240 sum sigma_3(k) q^k, by sieving divisors."""
    sums = [0] * order
    for d in range(1, order):
        cube = d**3
        for k in range(d, order, d):
            sums[k] += cube
    return [1] + [240 * x for x in sums[1:]]


def _frobenius(a: Fraction, s: Fraction, e4: list[int], order: int) -> list[Fraction]:
    """c_k ((a+k)^2 + s) = -s sum_{j>=1} E4_j c_{k-j}, c_0 = 1."""
    c = [Fraction(1)]
    for k in range(1, order):
        acc = sum(e4[j] * c[k - j] for j in range(1, k + 1))
        c.append(-s * acc / ((a + k) ** 2 + s))
    return c


def frobenius_h(m: int, n: int, order: int) -> list[Fraction]:
    """Body coefficients of h = y1/y2 = q^(n/m) (1 + ...), exponents a = +-n/2m.

    (a+k)^2 + s vanishes only at k = n/m, never an integer for coprime m >= 7,
    so the recurrence has no resonance.
    """
    a = Fraction(n, 2 * m)
    s = -a * a
    e4 = e4_coeffs(order)
    y1 = _frobenius(a, s, e4, order)
    y2 = _frobenius(-a, s, e4, order)
    out: list[Fraction] = []
    rem = list(y1)
    for i in range(order):
        c = rem[i]  # y2[0] == 1
        out.append(c)
        if c:
            for j in range(1, order - i):
                rem[i + j] -= c * y2[j]
    return out


def check_solution(bundle: Any, m: int, n: int, order: int) -> list[str]:
    """Every property a solve of (m, n, order) must have; empty when all hold."""
    where = f"solve({m},{n},{order})"
    n_prime, r = n % m, n // m
    problems = []
    h = bundle.h
    if h.offset != Fraction(n, m):
        problems.append(f"{where}: h offset {h.offset} != {Fraction(n, m)}")
    coeffs = list(h.body.coeffs)
    if len(coeffs) != order:
        problems.append(f"{where}: h has {len(coeffs)} coefficients, not {order}")
    expected = frobenius_h(m, n, order)
    bad = next((i for i, (x, y) in enumerate(zip(coeffs, expected)) if x != y), None)
    if bad is not None:
        problems.append(f"{where}: h differs from the Frobenius recurrence at q^{bad}")
    if bundle.schwarz_constant != -Fraction(n, m) ** 2 / 2:
        problems.append(f"{where}: schwarz_constant {bundle.schwarz_constant}")
    if bundle.ode_parameter != -Fraction(n, 2 * m) ** 2:
        problems.append(f"{where}: ode_parameter {bundle.ode_parameter}")
    levels = list(bundle.wronskians)
    if not levels or levels[0] != (Fraction(n_prime, m), 1):
        problems.append(f"{where}: level-0 Wronskian {levels[:1]} != ({n_prime}/{m}, 1)")
    if [e for _, e in levels] != list(range(1, r + 2)) or any(c == 0 for c, _ in levels):
        problems.append(f"{where}: Delta powers {[e for _, e in levels]}, want 1..{r + 1}")
    return problems


def _context(bits: int):
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


def klein_z(tau: complex) -> float:
    """|1728/j(tau)| = |1/J(tau)| from mpmath.kleinj, in double precision."""
    import mpmath

    return float(abs(1 / mpmath.kleinj(tau)))


def tau_stream(rng):
    """Seeded tau with |Re| <= 0.4 and |1728/j| < 0.9 (principal branches agree).

    Re(tau) is a multiple of 2^-40, so tau + 1 is exact in doubles and the
    phase check compares h at exactly shifted points.
    """
    grid = 2.0**40
    while True:
        tau = complex(round(rng.uniform(-0.4, 0.4) * grid) / grid, rng.uniform(1.0, 2.0))
        if klein_z(tau) < 0.9:
            yield tau


def closed_form(m: int, n: int, tau: complex, bits: int, terms: int):
    """Reference h(tau) and the relative truncation error of ``terms``-term 2F1 sums.

    h = (z/1728)^(n/m) F(w+1/12, w+5/12; 2w+1; z) / F(-w+1/12, -w+5/12; 1-2w; z)
    with z = 1/J(tau) and w = n/2m, every factor from mpmath.
    """
    ctx = _context(bits)
    z = 1 / ctx.kleinj(ctx.mpc(tau.real, tau.imag))
    w = ctx.mpf(n) / (2 * m)
    ratio_tail = 0
    factors = []
    for sign in (1, -1):
        a, b, c = sign * w + ctx.mpf(1) / 12, sign * w + ctx.mpf(5) / 12, 1 + 2 * sign * w
        full = ctx.hyp2f1(a, b, c, z)
        term, partial = ctx.mpf(1), ctx.mpf(0)
        for k in range(terms):
            partial += term
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        factors.append(full)
        ratio_tail += abs(full - partial) / abs(full)
    value = ctx.exp(ctx.mpf(n) / m * (ctx.log(z) - ctx.log(1728))) * factors[0] / factors[1]
    return value, float(ratio_tail)


def unit_root(n: int, m: int, bits: int):
    """e^(2 pi i n/m), the phase h picks up under tau -> tau + 1."""
    ctx = _context(bits)
    return ctx.expjpi(ctx.mpf(2 * n) / m)


def series_tail(coeffs, tau: complex) -> float:
    """Relative size of the last tracked term of h at tau, times 10."""
    q_abs = math.exp(-2 * math.pi * tau.imag)
    last = coeffs[-1]
    if not last:
        return 0.0
    log_last = (
        math.log(abs(last.numerator)) - math.log(last.denominator)
        + (len(coeffs) - 1) * math.log(q_abs)
    )
    return 10 * math.exp(log_last)


def relative_error(value: Any, reference: Any, bits: int) -> float:
    ctx = _context(bits)
    x = ctx.mpmathify(value)
    return float(abs(x - reference) / abs(reference))

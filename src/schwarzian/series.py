"""Exact truncated power series over the rationals.

Two layers:

* :class:`QSeries` is a truncated q-expansion ``sum(c[i] * q**i, 0 <= i < order)``
  with ``fractions.Fraction`` coefficients.  The truncation order is always
  explicit (``order == len(coeffs)``) and binary operations return a series
  truncated at the minimum of the operand orders.  Nothing is ever padded:
  a coefficient is either tracked exactly or not represented at all.

* :class:`PuiseuxSeries` is ``q**offset * body`` with a rational offset and a
  QSeries body.  Instances are normalized so a nonzero body has a nonzero
  constant term; any valuation of the body is absorbed into the offset.

The only derivative in this package is the logarithmic one,

    D = q d/dq,        so D(q**a) = a * q**a,

which with q = exp(2 pi i tau) is the classical (2 pi i)^-1 d/dtau.

Equality on both types compares coefficients up to the common truncation
order only; two series that agree on their shared prefix compare equal even
if their orders differ.

The API is on ``Fraction`` throughout, but the product kernels (series
multiplication, and with it integer powers, and composition) compute on
integer numerators over one common denominator and build a single
``Fraction`` per output coefficient.  The classical forms all have integer
coefficients, so their products pay for no gcd at all.  Composition
writes the inner series as q**v (g/d) w with w an integer series of
content 1, builds the powers of w by integer convolution, and applies the
rational scalar f_k (g/d)**k once per power (Brent and Kung, J. ACM 1978,
cover fast composition; this is the plain power-sum form).  Rational
powers follow the classical power recurrence (J. C. P. Miller; Knuth,
TAOCP vol. 2, section 4.7).  Division and rational powers solve one
coefficient at a time, so their outputs are kept as integer numerators
over a running common denominator that grows to the lcm whenever a new
term needs it (``_append``): each term costs integer dot products and one
gcd, where ``Fraction`` arithmetic paid a gcd per product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Union

from .errors import (
    DivisionByNonUnit,
    IncompatibleOffsets,
    NonUnitBase,
    NonvanishingInnerConstant,
)

Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction | None:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


def _common(cs) -> tuple[list[int], int]:
    """Integer numerators of the rationals ``cs`` over their least common
    denominator; an integer series gets denominator 1."""
    den = lcm(*(c.denominator for c in cs))
    if den == 1:
        return [c.numerator for c in cs], 1
    return [c.numerator * (den // c.denominator) for c in cs], den


def _iconv(a: list[int], b: list[int], target: int) -> list[int]:
    """First ``target`` coefficients of the Cauchy product of integer lists."""
    rb = b[::-1]
    nb = len(b)
    out = []
    for k in range(min(target, len(a) + nb - 1)):
        lo = max(0, k - nb + 1)
        hi = min(k + 1, len(a))
        out.append(sum(map(mul, a[lo:hi], rb[nb - 1 - k + lo : nb - 1 - k + hi])))
    return out + [0] * (target - len(out))


def _fractions(nums: list[int], den: int) -> list[Fraction]:
    if den == 1:
        return [Fraction(x) for x in nums]
    return [Fraction(x, den) for x in nums]


def _conv(a, b, target: int) -> list[Fraction]:
    """First ``target`` coefficients of the Cauchy product of a and b."""
    na, da = _common(a[:target])
    nb, db = _common(b[:target])
    return _fractions(_iconv(na, nb, target), da * db)


def _append(nums: list[int], den: int, p: int, q: int) -> int:
    """Append the rational p/q (q != 0) to ``nums``, integer numerators over
    the running common denominator ``den`` > 0; return the new denominator.

    p/q is first reduced to a positive denominator; when that does not divide
    ``den``, the denominator becomes their lcm and the earlier numerators are
    rescaled in place.
    """
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    if den % q:
        scale = q // gcd(den, q)
        nums[:] = [x * scale for x in nums]
        den *= scale
    nums.append(p * (den // q))
    return den


def _divide_unit(num, den, order: int) -> list[Fraction]:
    """Long division num/den to ``order`` terms; den[0] must be nonzero and
    both operands must hold at least ``order`` terms.

    With num = a / da and den = b / db on integer numerators, and the
    quotient so far held as numerators o over the running denominator L
    (``_append``), term i is
    (a_i db L - da sum_{j>=1} b_j o_{i-j}) / (da b_0 L): one integer dot
    product and one gcd per term.
    """
    a, da = _common(num[:order])
    b, db = _common(den[:order])
    rb = b[::-1]
    lead = da * b[0]
    out: list[int] = []
    dl = 1
    for i in range(order):
        s = sum(map(mul, out, rb[order - 1 - i : order - 1]))
        dl = _append(out, dl, a[i] * db * dl - da * s, lead * dl)
    return _fractions(out, dl)


class QSeries:
    """A power series in q truncated at an explicit order.

    ``QSeries(cs)`` represents ``sum(cs[i] q**i for i in range(len(cs)))``
    plus unknown terms of exponent >= len(cs).  All coefficients are exact
    rationals; ints are accepted and converted.

    >>> u = QSeries([1, -24])
    >>> (u * u).coeffs
    (Fraction(1, 1), Fraction(-48, 1))
    >>> QSeries([1, 2, 3]).derive().coeffs
    (Fraction(0, 1), Fraction(2, 1), Fraction(6, 1))
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = []
        for c in coeffs:
            f = _as_fraction(c)
            if f is None:
                raise TypeError(f"coefficients must be rational, got {c!r}")
            cs.append(f)
        if not cs:
            raise ValueError("a series needs at least one tracked coefficient")
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> QSeries:
        return cls((Fraction(0),) * order)

    @classmethod
    def one(cls, order: int) -> QSeries:
        return cls((Fraction(1),) + (Fraction(0),) * (order - 1))

    @property
    def order(self) -> int:
        """Exclusive truncation bound: coefficients are known for q**i, i < order."""
        return len(self._coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, i: int) -> Fraction:
        return self._coeffs[i]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if zero to this order."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return None

    def truncate(self, order: int) -> QSeries:
        """Drop coefficients at index >= order.  Never extends."""
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if order >= len(self._coeffs):
            return self
        return QSeries(self._coeffs[:order])

    def shift(self, k: int) -> QSeries:
        """Multiply by q**k (k >= 0).  The k new low coefficients are exact zeros,
        so the order grows by k."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        if k == 0:
            return self
        return QSeries((Fraction(0),) * k + self._coeffs)

    # -- ring operations (min-order truncation) --

    def __add__(self, other):
        s = _as_fraction(other)
        if s is not None:
            return QSeries((self._coeffs[0] + s,) + self._coeffs[1:])
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return QSeries(tuple(self._coeffs[i] + other._coeffs[i] for i in range(n)))

    __radd__ = __add__

    def __neg__(self) -> QSeries:
        return QSeries(tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        s = _as_fraction(other)
        if s is not None:
            return QSeries((self._coeffs[0] - s,) + self._coeffs[1:])
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return QSeries(tuple(self._coeffs[i] - other._coeffs[i] for i in range(n)))

    def __rsub__(self, other):
        s = _as_fraction(other)
        if s is None:
            return NotImplemented
        return QSeries((s - self._coeffs[0],) + tuple(-c for c in self._coeffs[1:]))

    def __mul__(self, other):
        s = _as_fraction(other)
        if s is not None:
            return QSeries(tuple(c * s for c in self._coeffs))
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return QSeries(_conv(self._coeffs, other._coeffs, n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        s = _as_fraction(other)
        if s is not None:
            if s == 0:
                raise ZeroDivisionError("scalar division by zero")
            return QSeries(tuple(c / s for c in self._coeffs))
        if not isinstance(other, QSeries):
            return NotImplemented
        v = other.valuation()
        if v is None:
            raise DivisionByNonUnit("division by a series that is zero to its order")
        num, den = self._coeffs, other._coeffs
        if v > 0:
            # cancel the common power q**v before dividing by a unit
            uval = self.valuation()
            have = len(self._coeffs) if uval is None else uval
            if have < v:
                raise DivisionByNonUnit(
                    f"divisor valuation {v} exceeds dividend valuation {have}"
                )
            num = num[v:]
            den = den[v:]
            if not num:
                raise DivisionByNonUnit(
                    "dividend has too few tracked coefficients after cancelling q**%d" % v
                )
        order = min(len(num), len(den))
        return QSeries(_divide_unit(num, den, order))

    def __pow__(self, n: int) -> QSeries:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("integer powers must be >= 0; use pow_rational or divide")
        result = QSeries.one(self.order)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def pow_rational(self, alpha: Scalar) -> QSeries:
        """u**alpha for rational alpha; the base must have constant term 1.

        With w = u**alpha, u D(w) = alpha D(u) w gives the power recurrence
        k w_k = sum_{j=1..k} ((alpha + 1) j - k) u_j w_{k-j}.  For integer
        alpha the result agrees with repeated multiplication.  It runs on
        integers: u is held as numerators over one denominator, w as
        numerators over a running one (``_append``), so each term costs two
        integer dot products and one gcd.
        """
        if self._coeffs[0] != 1:
            raise NonUnitBase(
                f"rational power needs constant term 1, got {self._coeffs[0]}"
            )
        # u_j = nums[j] / den, alpha + 1 = p / q and w_j = o[j] / L, so
        # k w_k = (p sum_j j nums_j o_{k-j} - q k sum_j nums_j o_{k-j}) / (q den L)
        nums, den = _common(self._coeffs)
        a1 = Fraction(alpha) + 1
        p, q = a1.numerator, a1.denominator
        n = len(nums)
        rn = nums[::-1]
        rjn = [j * x for j, x in enumerate(nums)][::-1]
        o = [1]
        dl = 1
        for k in range(1, n):
            s1 = sum(map(mul, o, rjn[n - 1 - k : n - 1]))
            s0 = sum(map(mul, o, rn[n - 1 - k : n - 1]))
            dl = _append(o, dl, p * s1 - q * k * s0, q * k * den * dl)
        return QSeries(_fractions(o, dl))

    def compose(self, inner: QSeries) -> QSeries:
        """Substitute ``inner`` into this series; inner(0) must vanish.

        Result order is min(inner.order, self.order * val(inner)), the largest
        order at which no untracked coefficient of either operand can
        contribute.
        """
        if not isinstance(inner, QSeries):
            raise TypeError("compose expects a QSeries inner argument")
        if inner._coeffs[0] != 0:
            raise NonvanishingInnerConstant(
                f"inner constant term must vanish, got {inner._coeffs[0]}"
            )
        v = inner.valuation()
        if v is None:
            # inner is zero to its order: the composition is the constant term
            return QSeries((self._coeffs[0],) + (Fraction(0),) * (inner.order - 1))
        target = min(inner.order, len(self._coeffs) * v)
        # inner = q**v * (g/d) * w with w an integer series of content 1, so
        # inner**k = q**(k v) (g/d)**k w**k and only w**k needs convolving
        nums, d = _common(inner._coeffs[v:target])
        g = gcd(*nums)
        w = [x // g for x in nums]
        ratio = Fraction(g, d)
        scalars = [self._coeffs[k] * ratio**k for k in range((target - 1) // v + 1)]
        den = lcm(*(s.denominator for s in scalars))
        acc = [0] * target
        power = [1]
        for k, s in enumerate(scalars):
            if k:
                power = _iconv(power, w, target - k * v)
            if s:
                scale = s.numerator * (den // s.denominator)
                for i, p in enumerate(power, k * v):
                    acc[i] += scale * p
        return QSeries(_fractions(acc, den))

    def derive(self) -> QSeries:
        """Apply D = q d/dq: multiply each coefficient by its exponent."""
        return QSeries(tuple(i * c for i, c in enumerate(self._coeffs)))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return self._coeffs[:n] == other._coeffs[:n]

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if len(self._coeffs) > 6 else ""
        return f"QSeries([{shown}{tail}], order={len(self._coeffs)})"


class PuiseuxSeries:
    """q**offset times a QSeries body, kept in normal form.

    The constructor absorbs any valuation of the body into the rational
    offset, so a nonzero instance always has ``body[0] != 0``.  A body that
    is zero to its order is allowed; the offset is then conventional and the
    instance behaves as an exact 0 in ring operations.

    Addition and subtraction are defined only when the two offsets differ by
    an integer, since the body is a series in integer powers of q.
    """

    __slots__ = ("_offset", "_body")

    def __init__(self, offset: Scalar, body: QSeries):
        off = Fraction(offset)
        v = body.valuation()
        if v:
            off += v
            body = QSeries(body.coeffs[v:])
        self._offset = off
        self._body = body

    @property
    def offset(self) -> Fraction:
        return self._offset

    @property
    def body(self) -> QSeries:
        return self._body

    @property
    def order(self) -> int:
        """Number of tracked body coefficients (relative to the offset)."""
        return self._body.order

    def is_zero(self) -> bool:
        return self._body.is_zero()

    @property
    def leading(self) -> Fraction:
        """Coefficient of q**offset (nonzero unless the series is zero)."""
        return self._body[0]

    # -- arithmetic --

    def _coerce(self, other) -> PuiseuxSeries | None:
        if isinstance(other, PuiseuxSeries):
            return other
        if isinstance(other, QSeries):
            return PuiseuxSeries(0, other)
        s = _as_fraction(other)
        if s is not None:
            # a constant is known exactly at every order, so pad it enough
            # that the min-order rule cannot eat tracked information
            pad = self._body.order + abs(int(self._offset)) + 1
            return PuiseuxSeries(0, QSeries((s,) + (Fraction(0),) * pad))
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero():
            return rhs
        if rhs.is_zero():
            return self
        d = rhs._offset - self._offset
        if d.denominator != 1:
            raise IncompatibleOffsets(
                f"offsets {self._offset} and {rhs._offset} differ by a non-integer"
            )
        if d < 0:
            return rhs.__add__(self)
        k = int(d)
        order = min(self._body.order, k + rhs._body.order)
        cs = list(self._body.coeffs[:order])
        for i in range(max(0, order - k)):
            cs[i + k] += rhs._body[i]
        return PuiseuxSeries(self._offset, QSeries(cs))

    __radd__ = __add__

    def __neg__(self) -> PuiseuxSeries:
        return PuiseuxSeries(self._offset, -self._body)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__add__(-self)

    def __mul__(self, other):
        if isinstance(other, PuiseuxSeries):
            return PuiseuxSeries(self._offset + other._offset, self._body * other._body)
        if isinstance(other, QSeries):
            return PuiseuxSeries(self._offset, self._body * other)
        s = _as_fraction(other)
        if s is not None:
            return PuiseuxSeries(self._offset, self._body * s)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            other = PuiseuxSeries(0, other)
        if isinstance(other, PuiseuxSeries):
            if other.is_zero():
                raise DivisionByNonUnit("division by a zero Puiseux series")
            if self.is_zero():
                order = min(self._body.order, other._body.order)
                return PuiseuxSeries(self._offset - other._offset, QSeries.zero(order))
            return PuiseuxSeries(
                self._offset - other._offset, self._body / other._body
            )
        s = _as_fraction(other)
        if s is not None:
            if s == 0:
                raise ZeroDivisionError("scalar division by zero")
            return PuiseuxSeries(self._offset, self._body / s)
        return NotImplemented

    def __rtruediv__(self, other):
        s = _as_fraction(other)
        if s is None:
            return NotImplemented
        if self.is_zero():
            raise DivisionByNonUnit("division by a zero Puiseux series")
        num = QSeries((s,) + (Fraction(0),) * (self._body.order - 1))
        return PuiseuxSeries(-self._offset, num / self._body)

    def derive(self) -> PuiseuxSeries:
        """D = q d/dq on q**(offset+i): multiply by offset + i."""
        a = self._offset
        return PuiseuxSeries(
            a, QSeries(tuple((a + i) * c for i, c in enumerate(self._body.coeffs)))
        )

    def sqrt(self) -> PuiseuxSeries:
        """Square root normalized to leading coefficient 1.

        The exact root of q**a (c + ...) is sqrt(c) q**(a/2) (1 + ...); the
        scalar sqrt(c) is dropped, rational or not, so the result is the
        unit-normalized representative.  Nothing in the package calls it
        (the ODE solutions come from the Frobenius recurrence); the
        benchmark's tracer, ``perfbench/tracer.py``, still wraps it by name.
        """
        if self.is_zero():
            return PuiseuxSeries(self._offset / 2, self._body)
        unit = self._body / self._body[0]
        return PuiseuxSeries(self._offset / 2, unit.pow_rational(Fraction(1, 2)))

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self._offset == other._offset and self._body == other._body

    def __repr__(self) -> str:
        return f"PuiseuxSeries(q**({self._offset}) * {self._body!r})"

"""Exact truncated power series over the rationals.

Two layers:

* :class:`QSeries` is a truncated q-expansion ``sum(c[i] * q**i, 0 <= i < order)``
  with exact rational coefficients.  The truncation order is always
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

A QSeries stores one tuple of integer numerators over one positive common
denominator, in lowest terms; ``coeffs`` and indexing build the
``Fraction`` view at the API edge, and ``numerators`` and ``denominator``
are the read-only integer view.  Every operation computes on the integers.
The classical forms all have integer coefficients, so their products pay
for no gcd at all.  A series solved one coefficient at a time is built by
:class:`SeriesBuilder`, whose running common denominator grows to the lcm
whenever a new term needs it: each term costs integer dot products and
one gcd, where ``Fraction`` arithmetic paid a gcd per product.

Apart from division and the Taylor coefficients of 2F1(z), every series
the package solves term by term is the Frobenius solution
q**e (1 + ...) of a linear equation

    sum_p P_p D**p f = 0

whose coefficients P_p are q-series or constants; one recurrence serves
:func:`solve_ode`, which solves such an equation, and :func:`apply_ode`,
which applies one to a given series (the checks and weight raising).
Powers w = u**alpha, alpha rational (``pow_rational``), solve
u D(w) = alpha D(u) w, the power recurrence (J. C. P. Miller; Knuth,
TAOCP vol. 2, section 4.7); ``hypergeometric`` states the equations of
the components and ``solver`` that of the Frobenius solutions.

``compose`` substitutes by Horner's rule; no code in the package
composes, and it stays as the reference the tests check the components'
recurrences against and because ``perfbench/tracer.py`` wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
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


class SeriesBuilder:
    """A series built one rational coefficient at a time.

    ``nums`` holds integer numerators over the running common denominator
    ``den`` > 0, so a term that depends on the earlier ones reads them as
    integers.  ``append(p, q)`` adds p/q (q != 0, of either sign): p/q is
    reduced once, and when its denominator does not divide ``den``, ``den``
    becomes their lcm and the earlier numerators are rescaled in place.
    """

    __slots__ = ("nums", "den")

    def __init__(self) -> None:
        self.nums: list[int] = []
        self.den = 1

    def append(self, p: int, q: int) -> None:
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        if g != 1:
            p, q = p // g, q // g
        if self.den % q:
            scale = q // gcd(self.den, q)
            self.nums[:] = [x * scale for x in self.nums]
            self.den *= scale
        self.nums.append(p * (self.den // q))

    def series(self) -> QSeries:
        """The coefficients appended so far (at least one)."""
        return QSeries._make(self.nums, self.den)


def _recurrence(coefficients, exponent: Scalar, order: int):
    """(d, terms) for sum_p P_p D**p f, f = q**(a/b) sum_{j<order} g_j q**j,
    a/b = ``exponent``, P_p = ``coefficients[p]`` a QSeries of at least
    ``order`` terms or a rational constant.  Times d, the q**(a/b + k) term
    W(k) g_k + sum_{j<k} sum_p P_p[k-j] (b j + a)**p b**-p g_j, W indicial,
    is item k of ``terms``: d W(k) and the k integers that multiply g_j.
    """
    e = Fraction(exponent)
    a, b = e.numerator, e.denominator
    scaled = []  # P_p b**-p as (numerators, denominator)
    for p, c in enumerate(coefficients):
        s = _as_fraction(c)
        if s is not None:
            scaled.append(((s.numerator,), s.denominator * b**p))
        elif c.order < order:
            raise ValueError(f"coefficient P_{p} has {c.order} terms, need {order}")
        else:
            scaled.append((c._nums[:order], c._den * b**p))
    d = lcm(*(den for _, den in scaled))
    lead, rows = [], []
    for p, (nums, den) in enumerate(scaled):
        scale = d // den
        lead.append(nums[0] * scale)
        if any(nums[1:]):  # d b**-p P_p[k-j], j < k, is row[order-1-k : order-1]
            rows.append((p, [x * scale for x in reversed(nums)]))
    # powers[p][j] = (b j + a)**p, and W(k) d = sum_p lead[p] powers[p][k]
    powers = [[x**p for x in range(a, a + b * order, b)] for p in range(len(lead))]

    def terms():
        for k, column in enumerate(zip(*powers)):
            lo, w = order - 1 - k, ()  # () when every P_p is constant
            for p, row in rows:
                part = map(mul, row[lo:-1], powers[p]) if p else row[lo:-1]
                w = map(add, w, part) if w else part
            yield sum(map(mul, lead, column)), w

    return d, terms()


def solve_ode(coefficients, exponent: Scalar, order: int) -> QSeries:
    """The body g = 1 + g_1 q + ..., to ``order`` terms, of the solution
    f = q**exponent g of sum_p P_p D**p f = 0 (``_recurrence``), with
    ``exponent`` a root of the indicial polynomial W; a zero of W at
    k = 1 .. order - 1 raises ZeroDivisionError.  Each g_k costs one
    integer dot product and one gcd (``SeriesBuilder``).
    """
    _, terms = _recurrence(coefficients, exponent, order)
    next(terms)  # W(0) = 0 leaves g_0 free
    g = SeriesBuilder()
    g.append(1, 1)
    for pivot, w in terms:
        g.append(-sum(map(mul, w, g.nums)), pivot * g.den)
    return g.series()


def apply_ode(coefficients, f: PuiseuxSeries) -> QSeries:
    """The body of sum_p P_p D**p f (``_recurrence``) at f's offset, to f's
    order: zero exactly when f solves the equation through its order."""
    nums = f.body.numerators
    d, terms = _recurrence(coefficients, f.offset, len(nums))
    out = [pivot * x + sum(map(mul, w, nums)) for (pivot, w), x in zip(terms, nums)]
    return QSeries._make(out, d * f.body.denominator)


def _divide_unit(a, da: int, b, db: int, order: int) -> QSeries:
    """Long division (a/da) / (b/db) to ``order`` terms on integer numerators
    a and b; b[0] must be nonzero and both hold at least ``order`` terms.

    With the quotient so far held as numerators o over the running
    denominator L (``SeriesBuilder``), term i is
    (a_i db L - da sum_{j>=1} b_j o_{i-j}) / (da b_0 L): one integer dot
    product and one gcd per term.
    """
    rb = b[:order][::-1]
    lead = da * b[0]
    out = SeriesBuilder()
    for i in range(order):
        s = sum(map(mul, out.nums, rb[order - 1 - i : order - 1]))
        out.append(a[i] * db * out.den - da * s, lead * out.den)
    return out.series()


class QSeries:
    """A power series in q truncated at an explicit order.

    ``QSeries(cs)`` represents ``sum(cs[i] q**i for i in range(len(cs)))``
    plus unknown terms of exponent >= len(cs).  The coefficients are ints
    or ``Fraction``s, held as integer numerators over one denominator.

    >>> u = QSeries([1, -24])
    >>> (u * u).coeffs
    (Fraction(1, 1), Fraction(-48, 1))
    >>> QSeries([1, 2, 3]).derive().coeffs
    (Fraction(0, 1), Fraction(2, 1), Fraction(6, 1))
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficients must be rational, got {c!r}")
        if not cs:
            raise ValueError("a series needs at least one tracked coefficient")
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in cs))
        self._nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @classmethod
    def _make(cls, nums, den: int) -> QSeries:
        """The series nums / den (den > 0), reduced to lowest terms."""
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        s = cls.__new__(cls)
        s._nums = tuple(nums)
        s._den = den
        return s

    @classmethod
    def _constant(cls, s: Fraction, order: int) -> QSeries:
        """The scalar s, padded with exact zeros to ``order`` terms."""
        return cls._make([s.numerator] + [0] * (order - 1), s.denominator)

    @property
    def order(self) -> int:
        """Exclusive truncation bound: coefficients are known for q**i, i < order."""
        return len(self._nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(x, d) for x in self._nums)

    @property
    def numerators(self) -> tuple[int, ...]:
        """Integer numerators over ``denominator``, in lowest terms."""
        return self._nums

    @property
    def denominator(self) -> int:
        return self._den

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.coeffs[i]
        return Fraction(self._nums[i], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if zero to this order."""
        return next((i for i, x in enumerate(self._nums) if x), None)

    def truncate(self, order: int) -> QSeries:
        """Drop coefficients at index >= order.  Never extends."""
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        return QSeries._make(self._nums[:order], self._den)

    def shift(self, k: int) -> QSeries:
        """Multiply by q**k (k >= 0).  The k new low coefficients are exact zeros,
        so the order grows by k."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        return QSeries._make((0,) * k + self._nums, self._den)

    # -- ring operations (min-order truncation) --

    def _plus(self, other, sign: int):
        """self + sign * other, to the smaller of the two orders; a scalar is
        known exactly at every order, so it is padded to this series' order."""
        s = _as_fraction(other)
        if s is not None:
            other = QSeries._constant(s, len(self._nums))
        elif not isinstance(other, QSeries):
            return NotImplemented
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        nums = [x * sa + y * sb for x, y in zip(self._nums, other._nums)]
        return QSeries._make(nums, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> QSeries:
        return self * -1

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        s = _as_fraction(other)
        if s is not None:
            p, q = s.as_integer_ratio()
            return QSeries._make([x * p for x in self._nums], self._den * q)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self._nums), len(other._nums))
        nums = _iconv(self._nums[:n], other._nums[:n], n)
        return QSeries._make(nums, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        s = _as_fraction(other)
        if s is not None:
            if s == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * (1 / s)
        if not isinstance(other, QSeries):
            return NotImplemented
        v = other.valuation()
        if v is None:
            raise DivisionByNonUnit("division by a series that is zero to its order")
        # cancel the common power q**v before dividing by a unit
        have = self.valuation()
        have = len(self._nums) if have is None else have
        if have < v:
            raise DivisionByNonUnit(
                f"divisor valuation {v} exceeds dividend valuation {have}"
            )
        if v == len(self._nums):
            raise DivisionByNonUnit(
                "dividend has too few tracked coefficients after cancelling q**%d" % v
            )
        num, den = self._nums[v:], other._nums[v:]
        return _divide_unit(num, self._den, den, other._den, min(len(num), len(den)))

    def pow_rational(self, alpha: Scalar) -> QSeries:
        """u**alpha for rational alpha; the base must have constant term 1.

        w = u**alpha is the solution 1 + ... of u D(w) - alpha D(u) w = 0
        (``solve_ode``), the power recurrence (J. C. P. Miller; Knuth,
        TAOCP vol. 2, section 4.7).  For integer alpha the result agrees
        with repeated multiplication.
        """
        if self._nums[0] != self._den:
            raise NonUnitBase(f"rational power needs constant term 1, got {self[0]}")
        return solve_ode((self.derive() * -Fraction(alpha), self), 0, len(self._nums))

    def compose(self, inner: QSeries) -> QSeries:
        """Substitute ``inner`` into this series; inner(0) must vanish.

        Result order is min(inner.order, self.order * val(inner)), the largest
        order at which no untracked coefficient of either operand can
        contribute.
        """
        if not isinstance(inner, QSeries):
            raise TypeError("compose expects a QSeries inner argument")
        if inner._nums[0]:
            raise NonvanishingInnerConstant(
                f"inner constant term must vanish, got {inner[0]}"
            )
        v = inner.valuation()
        if v is None:
            # inner is zero to its order: the composition is the constant term
            return QSeries._constant(self[0], inner.order)
        target = min(inner.order, len(self._nums) * v)
        # Horner's rule from the last power of inner below q**target
        inner = inner.truncate(target)
        top = (target - 1) // v
        acc = QSeries._constant(self[top], target)
        for k in range(top - 1, -1, -1):
            acc = acc * inner + self[k]
        return acc

    def derive(self) -> QSeries:
        """Apply D = q d/dq: multiply each coefficient by its exponent."""
        return QSeries._make([i * x for i, x in enumerate(self._nums)], self._den)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        da, db = self._den, other._den
        return all(x * db == y * da for x, y in zip(self._nums, other._nums))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self[:6])
        tail = ", ..." if len(self._nums) > 6 else ""
        return f"QSeries([{shown}{tail}], order={len(self._nums)})"


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
            body = QSeries._make(body._nums[v:], body._den)
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
            return PuiseuxSeries(0, QSeries._constant(s, pad + 1))
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
        # the body sum's min-order rule gives order min(self.order, d + rhs.order)
        return PuiseuxSeries(self._offset, self._body + rhs._body.shift(int(d)))

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
        body = self._body.__mul__(other)  # a QSeries or a scalar
        return body if body is NotImplemented else PuiseuxSeries(self._offset, body)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            other = PuiseuxSeries(0, other)
        if not isinstance(other, PuiseuxSeries):
            body = self._body.__truediv__(other)  # a scalar
            return body if body is NotImplemented else PuiseuxSeries(self._offset, body)
        if other.is_zero():
            raise DivisionByNonUnit("division by a zero Puiseux series")
        # a nonzero body is a unit, so a zero body divides to zeros of the
        # smaller order
        return PuiseuxSeries(self._offset - other._offset, self._body / other._body)

    def __rtruediv__(self, other):
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else lhs / self

    def derive(self) -> PuiseuxSeries:
        """D = q d/dq on q**(offset+i): multiply by offset + i."""
        p, r, body = self._offset.numerator, self._offset.denominator, self._body
        nums = [(p + i * r) * x for i, x in enumerate(body._nums)]
        return PuiseuxSeries(self._offset, QSeries._make(nums, body._den * r))

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

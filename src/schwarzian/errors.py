"""Exception types shared across the package."""

from __future__ import annotations


class SchwarzianError(Exception):
    """Base class for every error raised by this package."""


class SeriesError(SchwarzianError):
    """Truncated-series arithmetic was used outside its contract."""


class DivisionByNonUnit(SeriesError):
    """Division needs a divisor whose valuation does not exceed the dividend's."""


class NonUnitBase(SeriesError):
    """Rational powers are defined only for series with constant term exactly 1."""


class NonvanishingInnerConstant(SeriesError):
    """Composition outer(inner) needs inner(0) = 0."""


class IncompatibleOffsets(SeriesError):
    """Puiseux addition needs offsets that differ by an integer."""


class UnsupportedWeight(SchwarzianError):
    """Eisenstein series are provided for weights 2, 4 and 6 only."""


class OddExponent(SchwarzianError):
    """Eta powers are restricted to positive even exponents."""


class InvalidC(SchwarzianError):
    """The lower hypergeometric parameter is zero or a negative integer."""


class InvalidParameters(SchwarzianError):
    """Arguments outside the domain of the requested operation."""


class NotUpperHalfPlane(SchwarzianError):
    """tau must have positive imaginary part."""


class OutsideDisk(SchwarzianError):
    """tau lies on or below the arc |tau| = 1 after its shift to |Re tau| <= 1/2.

    There the principal branches of the closed hypergeometric form do not
    represent h, so the closed form is not evaluated.  In complex doubles
    the same holds where 1728/j(tau) rounds onto the cut [1, inf) of 2F1,
    which happens only within rounding of the arc.
    """


class DivergentSeries(SchwarzianError):
    """The q-series route's tail estimate at tau, infinite if its terms grow,
    is at least its summed value.

    The truncated q-expansion of h does not represent h there (it sums to a
    partial sum far from the closed form), so the two routes are not
    compared.
    """


class NumericOverflow(SchwarzianError):
    """A floating point evaluation produced a NaN or an infinity."""


class DegenerateDerivative(SchwarzianError):
    """The Schwarzian derivative needs a series whose derivative is not zero."""


class VerificationError(SchwarzianError):
    """An identity that the engine promises to check failed.

    ``index`` locates the first failing coefficient, counted as an integer
    exponent offset from the leading term of the series under test.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class InternalMismatch(VerificationError):
    """Two independent formulas for the same quantity disagreed."""


class NotProportionalToDeltaPower(VerificationError):
    """A Wronskian is not a constant multiple of the expected power of Delta."""


class NotProportional(VerificationError):
    """A series that must be a constant multiple of E4 is not."""


class OdeResidualNonzero(VerificationError):
    """A claimed solution leaves a nonzero residual in y'' + s E4 y = 0."""

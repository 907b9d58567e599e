"""Exact hypergeometric solutions of the modular Schwarzian equation.

For coprime integers m >= 7 and n >= 1 this package constructs the
q-expansion h = q**(n/m) (1 + ...) whose Schwarzian derivative (in the
D = q d/dq convention) is exactly -(1/2)(n/m)**2 E4, together with the
two-component vector-valued modular form it comes from, the pair of
solutions of the associated second-order differential equation, and a
floating-point cross-check of the series against its closed hypergeometric
formula.  All identities are re-verified coefficient by coefficient in
exact rational arithmetic; any failure raises a VerificationError carrying
the index of the first bad coefficient.

Quick start::

    from schwarzian import solve
    bundle = solve(7, 1, order=40)
    bundle.h.offset            # Fraction(1, 7)
    bundle.schwarz_constant    # Fraction(-1, 98)

The ``schwarzian`` console script exposes the same pipeline (``solve``,
``verify``, ``vvmf``, ``eval``, ``selftest``).
"""

from .errors import (
    DegenerateDerivative,
    DivergentSeries,
    DivisionByNonUnit,
    IncompatibleOffsets,
    InternalMismatch,
    InvalidC,
    InvalidParameters,
    NonUnitBase,
    NonvanishingInnerConstant,
    NotProportional,
    NotProportionalToDeltaPower,
    NotUpperHalfPlane,
    NumericOverflow,
    OddExponent,
    OdeResidualNonzero,
    OutsideDisk,
    SchwarzianError,
    SeriesError,
    UnsupportedWeight,
    VerificationError,
)
from .forms import delta, eisenstein, eta_power, j_inverse, serre_derivative
from .hypergeometric import (
    ComponentRecipe,
    HypergeomParams,
    base_forms,
    component_series,
    hypergeom_coeffs,
)
from .numeric import EvalReport, cross_check, eval_h_hypergeometric, eval_qseries
from .series import PuiseuxSeries, QSeries
from .solver import (
    SolutionBundle,
    ode_solutions,
    schwarz_derivative,
    solve,
    verify_ode,
    verify_proportionality,
)
from .vvmf import (
    MINIMAL_WEIGHT,
    ReprData,
    VectorForm,
    c1_closed_form,
    c2_closed_form,
    minimal_form,
    raise_weight,
    raising_constants,
    wronskian,
    wronskian_check,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentRecipe",
    "DegenerateDerivative",
    "DivergentSeries",
    "DivisionByNonUnit",
    "EvalReport",
    "HypergeomParams",
    "IncompatibleOffsets",
    "InternalMismatch",
    "InvalidC",
    "InvalidParameters",
    "MINIMAL_WEIGHT",
    "NonUnitBase",
    "NonvanishingInnerConstant",
    "NotProportional",
    "NotProportionalToDeltaPower",
    "NotUpperHalfPlane",
    "NumericOverflow",
    "OddExponent",
    "OdeResidualNonzero",
    "OutsideDisk",
    "PuiseuxSeries",
    "QSeries",
    "ReprData",
    "SchwarzianError",
    "SeriesError",
    "SolutionBundle",
    "UnsupportedWeight",
    "VectorForm",
    "VerificationError",
    "base_forms",
    "c1_closed_form",
    "c2_closed_form",
    "component_series",
    "cross_check",
    "delta",
    "eisenstein",
    "eta_power",
    "eval_h_hypergeometric",
    "eval_qseries",
    "hypergeom_coeffs",
    "j_inverse",
    "minimal_form",
    "ode_solutions",
    "raise_weight",
    "raising_constants",
    "schwarz_derivative",
    "serre_derivative",
    "solve",
    "verify_ode",
    "verify_proportionality",
    "wronskian",
    "wronskian_check",
]

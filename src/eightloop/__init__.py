"""Numerical laboratory for limit-cycle bifurcations from a figure-eight loop.

The object of study is the planar system

    x' = y
    y' = x - x^3 + lam1*y + lam2*x^2 + lam3*x*y + lam4*x^2*y

whose unperturbed part is Hamiltonian with a double-well potential: a saddle
at the origin whose separatrix is a figure-eight loop, and a family of
"exterior" ovals surrounding both lobes at energies h > 0.  The package
computes the elliptic (Abelian) integrals attached to those ovals, verifies
their Picard-Fuchs system and small-h expansions, builds the Melnikov
functions whose zeros govern bifurcating limit cycles, and independently
probes the same structure by direct simulation of the Poincare return map.
"""

__version__ = "0.1.0"

from .geometry import (
    SQRT2,
    NonPositiveEnergy,
    NumericalFailure,
    energy,
    vector_field,
)
from .integrals import (
    IntegralTriple,
    QuadratureConfig,
    ToleranceNotMet,
    integral_I0pp,
    integral_triple,
    integral_xi_over_y,
    integral_xiy,
)
from .series import (
    FittedConstants,
    IllConditionedFit,
    OutOfTrustRegion,
    PFResiduals,
    default_constants,
    fit_constants,
    limit_constants,
    measure_kappa,
    pf_residuals,
    series_eval,
)
from .melnikov import (
    LeadingCoeffs,
    MelnikovSpec,
    ZeroCount,
    count_zeros,
    leading_coeffs,
    m1,
    mk,
)
from .dynamics import (
    ArcSpec,
    EscapedRegion,
    IntegratorConfig,
    LimitCycleRecord,
    ReturnMapSample,
    StepFailure,
    TimeCap,
    arc_sampler_general,
    arc_sampler_no_first_order,
    cyclicity_sweep,
    displacement,
    find_limit_cycles,
    integrate,
    melnikov_convergence,
    return_map,
)

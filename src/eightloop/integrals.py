"""Quadrature of the elliptic integrals attached to the exterior ovals.

For h > 0 the moments over the full oval gamma(h) = {H = h} are

    I_i(h)  = integral of x^i y dx       (i = 0, 1, 2)
    I'_i(h) = integral of x^i / y dx     (i = 0, 2, 4)

with the orientation that makes I_0 (the enclosed area) positive.  On the
upper branch the radicand factors,

    y_plus(x)^2 = (1/2) (x_plus^2 - x^2) (x^2 + s),   s = sqrt(1+4h) - 1,

so the only non-smoothness is the square root vanishing at the turning
points +-x_plus.  The substitution x = x_plus sin(theta) removes it; the
full-contour values become integrals of smooth functions over
[-pi/2, pi/2] (the factor 2 folds the bottom branch onto the top one):

    I_i  = 2 * int x_plus^2 cos^2(theta) x^i sqrt((x^2+s)/2) dtheta
    I'_i = 2 * int x^i sqrt(2/(x^2+s)) dtheta

The second derivative I''_0 is needed by the second-order differential
relation 4h(4h+1) I''_0 = -3 I_0.  The naive contour form -oint dx/y^3 has
a non-integrable endpoint singularity, so it is computed instead by
differentiating the already-regular theta-form of I'_0 in h under the
integral sign (the theta-domain does not depend on h, so there are no
boundary terms).  Using d(x^2+s)/dh = (1 + sin^2 theta) * 2/sqrt(1+4h):

    I''_0 = -(2 sqrt(2)/sqrt(1+4h)) * int (1+sin^2 theta)/(x^2+s)^{3/2} dtheta

again smooth for h > 0.  All integrands develop a sharp (but integrable)
feature at theta = 0 as h -> 0+, so 0 is a break point of the subdivision;
values are only guaranteed for h >= 1e-4 — below that the series module is
the intended tool.  These quadratures are the tests' oracle; M_k takes I_0,
I_2 and I'_4 from their closed forms in K and E instead, which melnikov.mk
alone reaches: its one call of the library's mk_value evaluates them.

QUADPACK's dqagpe, the three integrands, K and E and the closed forms
(native's exterior_moments) are C in the package's one compiled library
(native), so a quadrature is one ctypes call that never comes back into
Python.  The integrands and the closed forms do the arithmetic of the same
expressions on Python floats (math's sin, cos and sqrt, and ** as pow) bit
for bit, and dqagpe, K and E give what scipy.integrate.quad (with
points=[0]) and scipy.special's ellipkm1 and ellipe give, bit for bit, down
to quad's messages.  The library is built and loaded at its first use in a
process, so quadrature and the closed forms, like the flow, need a cc on
PATH.

Values here are full-contour.  Consumers that want the per-lobe convention
(in which I_0(0+) = 4/3) divide by the contour constant KAPPA = 2 of the
series module.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

from .geometry import NumericalFailure, x_plus
from .native import _INTEGRANDS, _kernel

# scipy.integrate.quad's messages for QUADPACK's ier 1 to 5, word for word
_IER_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
    "If increasing the limit yields no improvement it is advised to "
    "analyze \n  the integrand in order to determine the difficulties.  "
    "If the position of a \n  local difficulty can be determined "
    "(singularity, discontinuity) one will \n  probably gain from "
    "splitting up the interval and calling the integrator \n  on the "
    "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
    "the requested tolerance from being achieved.  "
    "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
    "in the extrapolation table.  It is assumed that the requested "
    "tolerance\n  cannot be achieved, and that the returned result "
    "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


class ToleranceNotMet(NumericalFailure):
    """Quadrature could not meet the requested tolerance.

    Carries the best available estimate in .value and its error bound in
    .err so callers can still inspect the honest result.
    """

    def __init__(self, message: str, value: float, err: float):
        super().__init__(message)
        self.value = value
        self.err = err


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 64

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


_DEFAULT_CONFIG = QuadratureConfig()  # what a None cfg stands for, built once rather than per quadrature


@dataclass(frozen=True)
class IntegralTriple:
    """All moments at a single energy, with per-entry absolute error bounds.

    I1 is always ~0 (odd integrand over a symmetric oval) and is kept as a
    consistency diagnostic.
    """

    h: float
    I0: float
    I1: float
    I2: float
    I0p: float
    I2p: float
    I4p: float
    I0pp: float
    err: dict = field(default_factory=dict)


def _oval_quad(integrand: str, h: float, i: int, cfg: QuadratureConfig | None, label: str):
    """(value, err) of the adaptive quadrature of the integrand named integrand over theta in [-pi/2, pi/2].

    a = x_plus(h) (which rejects a non-finite or non-positive h) and
    s = sqrt(1+4h) - 1 place the oval; cfg None means the default
    QuadratureConfig.  One call of the library's QUADPACK dqagpe, with the
    break point 0; raises ToleranceNotMet, with quad's message, when it
    stops short of the requested tolerance (the exception still carries
    the best value and its honest error bound), ValueError, with quad's
    message, for max_subdivisions 1, and MemoryError where the workspace of
    max_subdivisions subintervals cannot be allocated.
    """
    a = x_plus(h)
    s = math.sqrt(1.0 + 4.0 * h) - 1.0
    cfg = cfg or _DEFAULT_CONFIG
    limit = cfg.max_subdivisions
    out = (ctypes.c_double * 2)()
    ier = _kernel().dqagpe(
        _INTEGRANDS.index(integrand), (ctypes.c_double * 3)(a, s, float(i)), cfg.abs_tol, cfg.rel_tol, limit, out
    )
    value, err = out
    if ier == 0:
        return value, err
    if ier in _IER_MESSAGES:
        raise ToleranceNotMet(f"{label} at h={h}: {_IER_MESSAGES[ier].format(limit=limit)}", value=value, err=err)
    if ier == 6:
        raise ValueError(f"Number of break points (1) must be less than subinterval limit ({limit})")
    raise MemoryError(f"no memory for the QUADPACK workspace of {limit} subintervals")


def integral_xiy(h: float, i: int, cfg: QuadratureConfig | None = None):
    """Full-contour I_i(h) = oint x^i y dx for i in {0, 1, 2}.

    Returns (value, err).  I_0 is the area enclosed by the oval, positive
    under the fixed orientation; I_1 vanishes by the x -> -x symmetry.
    """
    if i not in (0, 1, 2):
        raise ValueError(f"i must be one of 0, 1, 2 (got {i})")
    v, e = _oval_quad("xiy", h, i, cfg, f"I_{i}")
    return 2.0 * v, 2.0 * e


def integral_xi_over_y(h: float, i: int, cfg: QuadratureConfig | None = None):
    """Full-contour I'_i(h) = oint x^i / y dx for i in {0, 2, 4}.

    Returns (value, err).  I'_i = dI_i/dh since dy/dh = 1/y on the level set.
    """
    if i not in (0, 2, 4):
        raise ValueError(f"i must be one of 0, 2, 4 (got {i})")
    v, e = _oval_quad("xi_over_y", h, i, cfg, f"I'_{i}")
    return 2.0 * v, 2.0 * e


def integral_I0pp(h: float, cfg: QuadratureConfig | None = None):
    """Full-contour I''_0(h), the h-derivative of the regularized I'_0 form.

    Returns (value, err).  Diverges like -2*kappa/h as h -> 0+ (consistent
    with 4h(4h+1) I''_0 = -3 I_0), so expect large magnitudes at small h.
    """
    v, e = _oval_quad("i0pp", h, 0, cfg, "I''_0")
    scale = 2.0 * math.sqrt(2.0) / math.sqrt(1.0 + 4.0 * h)
    return -scale * v, scale * e


#: The seven IntegralTriple moments by name, each one call of its quadrature
#: with its index.  The quadratures are looked up by name at call time, so a
#: wrapper put in their place (perfbench/tracing.py) sees every call.
_MOMENTS = {
    "I0": lambda h, cfg: integral_xiy(h, 0, cfg),
    "I1": lambda h, cfg: integral_xiy(h, 1, cfg),
    "I2": lambda h, cfg: integral_xiy(h, 2, cfg),
    "I0p": lambda h, cfg: integral_xi_over_y(h, 0, cfg),
    "I2p": lambda h, cfg: integral_xi_over_y(h, 2, cfg),
    "I4p": lambda h, cfg: integral_xi_over_y(h, 4, cfg),
    "I0pp": lambda h, cfg: integral_I0pp(h, cfg),
}


def moment(name: str, h: float, cfg: QuadratureConfig | None):
    """Full-contour moment by its IntegralTriple field name, as (value, err).

    name is one of 'I0', 'I1', 'I2', 'I0p', 'I2p', 'I4p' and 'I0pp'.  The
    one place the moment names map to a quadrature; cfg None means the
    default QuadratureConfig.
    """
    return _MOMENTS[name](h, cfg)


def integral_triple(h: float, cfg: QuadratureConfig | None = None) -> IntegralTriple:
    """All moments at h with a shared config and consistent orientation."""
    results = {name: quadrature(h, cfg) for name, quadrature in _MOMENTS.items()}
    return IntegralTriple(
        h=h,
        **{name: value for name, (value, _) in results.items()},
        err={name: err for name, (_, err) in results.items()},
    )

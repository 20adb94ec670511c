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
feature at theta = 0 as h -> 0+, so 'points=[0]' hints the subdivision;
values are only guaranteed for h >= 1e-4 — below that the series module is
the intended tool.  These quadratures are the tests' oracle; M_k takes I_0,
I_2 and I'_4 from their closed forms in K and E (_exterior_moments) instead.

Values here are full-contour.  Consumers that want the per-lobe convention
(in which I_0(0+) = 4/3) divide by the contour constant KAPPA = 2 of the
series module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.integrate import quad
from scipy.special import ellipe, ellipkm1

from .geometry import SQRT2, NumericalFailure, x_plus

_HALF_PI = 0.5 * math.pi


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
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


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


def _oval_quad(integrand, h: float, i: int, cfg: QuadratureConfig | None, label: str):
    """(value, err) of the adaptive quadrature of integrand(theta, a, s, i) over [-pi/2, pi/2].

    a = x_plus(h) (which rejects a non-finite or non-positive h) and
    s = sqrt(1+4h) - 1 place the oval; cfg None means the default
    QuadratureConfig.  One QUADPACK call; raises ToleranceNotMet when the
    subdivision cap is hit before the requested tolerance (the exception
    still carries the best value and its honest error bound).
    """
    a = x_plus(h)
    s = math.sqrt(1.0 + 4.0 * h) - 1.0
    cfg = cfg or QuadratureConfig()
    out = quad(
        integrand,
        -_HALF_PI,
        _HALF_PI,
        args=(a, s, i),
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        points=[0.0],
        full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3:  # QUADPACK gave up: message appended
        raise ToleranceNotMet(
            f"{label} at h={h}: {out[3]}", value=value, err=err
        )
    return value, err


# The integrands take one Python float theta at a time, so they use math.


def _xiy(th, a, s, i):
    x = a * math.sin(th)
    return a * a * math.cos(th) ** 2 * x**i * math.sqrt((x * x + s) / 2.0)


def _xi_over_y(th, a, s, i):
    x = a * math.sin(th)
    return x**i * math.sqrt(2.0 / (x * x + s))


def _i0pp(th, a, s, _i):
    sin_th = math.sin(th)
    x = a * sin_th
    return (1.0 + sin_th * sin_th) / (x * x + s) ** 1.5


def integral_xiy(h: float, i: int, cfg: QuadratureConfig | None = None):
    """Full-contour I_i(h) = oint x^i y dx for i in {0, 1, 2}.

    Returns (value, err).  I_0 is the area enclosed by the oval, positive
    under the fixed orientation; I_1 vanishes by the x -> -x symmetry.
    """
    if i not in (0, 1, 2):
        raise ValueError(f"i must be one of 0, 1, 2 (got {i})")
    v, e = _oval_quad(_xiy, h, i, cfg, f"I_{i}")
    return 2.0 * v, 2.0 * e


def integral_xi_over_y(h: float, i: int, cfg: QuadratureConfig | None = None):
    """Full-contour I'_i(h) = oint x^i / y dx for i in {0, 2, 4}.

    Returns (value, err).  I'_i = dI_i/dh since dy/dh = 1/y on the level set.
    """
    if i not in (0, 2, 4):
        raise ValueError(f"i must be one of 0, 2, 4 (got {i})")
    v, e = _oval_quad(_xi_over_y, h, i, cfg, f"I'_{i}")
    return 2.0 * v, 2.0 * e


def integral_I0pp(h: float, cfg: QuadratureConfig | None = None):
    """Full-contour I''_0(h), the h-derivative of the regularized I'_0 form.

    Returns (value, err).  Diverges like -2*kappa/h as h -> 0+ (consistent
    with 4h(4h+1) I''_0 = -3 I_0), so expect large magnitudes at small h.
    """
    v, e = _oval_quad(_i0pp, h, 0, cfg, "I''_0")
    scale = 2.0 * math.sqrt(2.0) / math.sqrt(1.0 + 4.0 * h)
    return -scale * v, scale * e


def _exterior_moments(h: float):
    """Full-contour (I0, I2, I'_4) at h in closed form; h is checked by x_plus.

    With r = sqrt(1+4h), s = 4h/(r+1) = r - 1, a^2 = x_plus^2 = 2 + s, c^2 = 2r
    and m = a^2/c^2, x = a cos(phi) makes each moment a sum of the integrals
    S_n of sin^{2n} phi / sqrt(1 - m sin^2 phi) over [0, pi/2]: S_0 = K(m) (by
    ellipkm1 at 1 - m = s/c^2), S_1 = (K - E)/m, (2n+1) m S_{n+1} = 2n (1+m) S_n - (2n-1) S_{n-1}.
    """
    x_plus(h)
    r = math.sqrt(1.0 + 4.0 * h)
    s = 4.0 * h / (r + 1.0)
    a2, c2 = 2.0 + s, 2.0 * r
    m = a2 / c2
    s0 = float(ellipkm1(s / c2))
    s1 = (s0 - float(ellipe(m))) / m
    s2 = (2.0 * (1.0 + m) * s1 - s0) / (3.0 * m)
    s3 = (4.0 * (1.0 + m) * s2 - 3.0 * s1) / (5.0 * m)
    w = 2.0 * SQRT2 * a2 * math.sqrt(c2)
    return w * (s1 - m * s2), w * a2 * (s1 - (1.0 + m) * s2 + m * s3), 2.0 * w * a2 / c2 * (s0 - 2.0 * s1 + s2)


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

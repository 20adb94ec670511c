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
the intended tool.

Values here are full-contour.  Consumers that want the per-lobe convention
(in which I_0(0+) = 4/3) divide by the measured contour-normalization
constant kappa; see the series module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .geometry import NonPositiveEnergy, x_plus

_HALF_PI = 0.5 * math.pi


class ToleranceNotMet(RuntimeError):
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


def _theta_quad(f, h: float, cfg: QuadratureConfig, label: str):
    """Adaptive quadrature of a smooth integrand over [-pi/2, pi/2].

    Returns (value, err); raises ToleranceNotMet when the subdivision cap is
    hit before the requested tolerance (the exception still carries the best
    value and its honest error bound).
    """
    out = quad(
        f,
        -_HALF_PI,
        _HALF_PI,
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


def _oval(h: float):
    """(x_plus, s, sqrt(1+4h)) of the exterior oval at a finite energy h > 0."""
    if not math.isfinite(h):
        raise ValueError(f"quadrature needs a finite h, got h={h}")
    if h <= 0.0:
        raise NonPositiveEnergy(f"quadrature needs h > 0, got h={h}")
    r = math.sqrt(1.0 + 4.0 * h)
    return x_plus(h), r - 1.0, r


def integral_xiy(h: float, i: int, cfg: QuadratureConfig | None = None):
    """Full-contour I_i(h) = oint x^i y dx for i in {0, 1, 2}.

    Returns (value, err).  I_0 is the area enclosed by the oval, positive
    under the fixed orientation; I_1 vanishes by the x -> -x symmetry.
    """
    if i not in (0, 1, 2):
        raise ValueError(f"i must be one of 0, 1, 2 (got {i})")
    a, s, _ = _oval(h)
    cfg = cfg or QuadratureConfig()

    def f(th):
        x = a * np.sin(th)
        return a * a * np.cos(th) ** 2 * x**i * np.sqrt((x * x + s) / 2.0)

    v, e = _theta_quad(f, h, cfg, f"I_{i}")
    return 2.0 * v, 2.0 * e


def integral_xi_over_y(h: float, i: int, cfg: QuadratureConfig | None = None):
    """Full-contour I'_i(h) = oint x^i / y dx for i in {0, 2, 4}.

    Returns (value, err).  I'_i = dI_i/dh since dy/dh = 1/y on the level set.
    """
    if i not in (0, 2, 4):
        raise ValueError(f"i must be one of 0, 2, 4 (got {i})")
    a, s, _ = _oval(h)
    cfg = cfg or QuadratureConfig()

    def f(th):
        x = a * np.sin(th)
        return x**i * np.sqrt(2.0 / (x * x + s))

    v, e = _theta_quad(f, h, cfg, f"I'_{i}")
    return 2.0 * v, 2.0 * e


def moment(name: str, h: float, cfg: QuadratureConfig | None):
    """Full-contour moment of M_k by name, as (value, err): 'I0', 'I2' or 'I4p' (= I'_4).

    The one place the moment names of the series and Melnikov layers map to
    a quadrature; cfg None means the default QuadratureConfig.
    """
    if name == "I4p":
        return integral_xi_over_y(h, 4, cfg)
    return integral_xiy(h, {"I0": 0, "I2": 2}[name], cfg)


def integral_I0pp(h: float, cfg: QuadratureConfig | None = None):
    """Full-contour I''_0(h), the h-derivative of the regularized I'_0 form.

    Returns (value, err).  Diverges like -2*kappa/h as h -> 0+ (consistent
    with 4h(4h+1) I''_0 = -3 I_0), so expect large magnitudes at small h.
    """
    a, s, r = _oval(h)
    cfg = cfg or QuadratureConfig()

    def f(th):
        sin_th = np.sin(th)
        x = a * sin_th
        return (1.0 + sin_th * sin_th) / (x * x + s) ** 1.5

    v, e = _theta_quad(f, h, cfg, "I''_0")
    scale = 2.0 * math.sqrt(2.0) / r
    return -scale * v, scale * e


def integral_triple(h: float, cfg: QuadratureConfig | None = None) -> IntegralTriple:
    """All moments at h with a shared config and consistent orientation."""
    cfg = cfg or QuadratureConfig()
    I0, e0 = integral_xiy(h, 0, cfg)
    I1, e1 = integral_xiy(h, 1, cfg)
    I2, e2 = integral_xiy(h, 2, cfg)
    I0p, e0p = integral_xi_over_y(h, 0, cfg)
    I2p, e2p = integral_xi_over_y(h, 2, cfg)
    I4p, e4p = integral_xi_over_y(h, 4, cfg)
    I0pp, e0pp = integral_I0pp(h, cfg)
    return IntegralTriple(
        h=h,
        I0=I0,
        I1=I1,
        I2=I2,
        I0p=I0p,
        I2p=I2p,
        I4p=I4p,
        I0pp=I0pp,
        err={
            "I0": e0,
            "I1": e1,
            "I2": e2,
            "I0p": e0p,
            "I2p": e2p,
            "I4p": e4p,
            "I0pp": e0pp,
        },
    )

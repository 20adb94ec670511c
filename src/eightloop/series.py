"""Picard-Fuchs structure and small-h expansions of the oval integrals.

The moments of the exterior ovals satisfy a closed linear system in h:

    (1)  I0 = (4/3) h I0' + (1/3) I2'
    (2)  I2 = (4/15) h I0' + (4/5 h + 4/15) I2'
    (3)  (4h+1) I4' = 4h I0 + 5 I2
    (4)  4h (4h+1) I0'' = -3 I0

Near the figure-eight loop (h -> 0+) each moment expands as

    I(h) = P(h) ln h + A(h)

with P, A analytic at 0.  In the per-lobe normalization (values divided by
the contour constant kappa, so that I0(0+) = 4/3):

    I0  = (-h + 3/8 h^2 - 35/64 h^3 + ...) ln h + 4/3 + a1 h + a2 h^2 + ...
    I2  = (1/2 h^2 - 5/8 h^3 + ...) ln h + 16/15 + 4 h + b2 h^2 + ...
    I4' = (-3/2 h^2 + 35/8 h^3 + ...) ln h + 16/3 + 4 h + ...

The system pins the whole structure down:

* Relation (4) applied to the log part alone (the ln h terms must cancel
  among themselves) says P0 solves 4h(4h+1) P0'' + 3 P0 = 0, i.e. the
  two-term recurrence  4n(n-1) f_n = -(4n-5)(4n-7) f_{n-1}  with f_1 = -1.
* Solving (1)-(2) for (I0', I2') and matching log parts gives the I2 log
  polynomial  P2 = (4/5) P0 + (12/5) h P0 - (4/5) h (4h+1) P0'.
* Relation (3) transfers both to I4':  (4h+1) P4 = 4h P0 + 5 P2, and the
  same relation fixes the I4' analytic part from those of I0 and I2
  (h^2 coefficient: 4 a1 + 5 b2 - 16).

Evaluation uses the recurrences above, converted to floats once at import
(order 10).  The log parts P are also the reduced series of the vanishing
cycle that shrinks into the saddle: its integrals are 2 pi i P(h), analytic
through h = 0.  A fixed classical coefficient table is kept verbatim beside
them so that its disagreements can be reported by the test suite rather
than silently hidden: its I2 h^4 ln h and I4' h^4 ln h entries do not match
the recurrence.

The free analytic constants a1, a2, b2 carry real information not fixed by
the system; they are recovered by least squares against quadrature samples,
together with the measured contour normalization kappa (full-contour
quadrature divided by kappa reproduces the per-lobe convention; kappa is
measured, not assumed, by extrapolating I0 to h = 0+ with the known
h ln h structure).  a1 is nevertheless known in closed form, a1 = 1 + 4 ln 2:
the per-lobe period I0' = -ln h + 4 ln 2 + O(h ln h) follows from
K(k) ~ ln(4/k') with k'^2 ~ h.  Acceptance criterion 4 relies on this value
(through the h^2 coefficient 16 - 4 a1 = 12 - 16 ln 2 of 5 I2 - I4') and
checks the fitted a1 against it; evaluation still uses the fitted value.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .integrals import IntegralTriple, QuadratureConfig, moment

TRUST_REGION_MAX = 0.2
SERIES_ORDER = 10  # truncation order of the evaluated log parts

# Per-lobe limit constants at h = 0+ and the shared linear analytic term.
I0_CONST = Fraction(4, 3)
I2_CONST = Fraction(16, 15)
I4P_CONST = Fraction(16, 3)
LINEAR_COEFF = Fraction(4)  # h-coefficient of both I2 and I4' analytic parts
MOMENTS = ("I0", "I2", "I4p")  # the per-lobe moments M_k combines
LIMIT_H_PAIR = (1e-3, 1e-4)  # energies of the extrapolation to h = 0+


class OutOfTrustRegion(ValueError):
    """Raised when a series evaluation is requested beyond h = 0.2."""


class IllConditionedFit(RuntimeError):
    """Raised when the least-squares normal system is numerically unusable."""


# --------------------------------------------------------------------------
# Exact log-part coefficients
# --------------------------------------------------------------------------


def _poly_mul_x(c):
    return [Fraction(0)] + list(c)


def _poly_scale(a, c):
    return [a * x for x in c]


def _poly_add(*cs):
    n = max(len(c) for c in cs)
    out = [Fraction(0)] * n
    for c in cs:
        for k, x in enumerate(c):
            out[k] += x
    return out


def log_coefficients(which: str, order: int = 10) -> list[Fraction]:
    """Exact log-part coefficients [f_0 ... f_order] from the recurrences.

    which is one of 'I0', 'I2', 'I4p'.  Index n is the coefficient of
    h^n ln h in the per-lobe convention.
    """
    # I0 log part: 4h(4h+1) f'' + 3 f = 0, f_1 = -1
    f = [Fraction(0), Fraction(-1)]
    for n in range(2, order + 1):
        f.append(Fraction(-(4 * n - 5) * (4 * n - 7), 4 * n * (n - 1)) * f[-1])
    if which == "I0":
        return f[: order + 1]
    # I2 log part: P2 = (4/5) f + (12/5) h f - (4/5) h (4h+1) f'
    fp = [n * f[n] for n in range(1, len(f))]  # derivative coefficients
    p2 = _poly_add(
        _poly_scale(Fraction(4, 5), f),
        _poly_scale(Fraction(12, 5), _poly_mul_x(f)),
        _poly_scale(Fraction(-16, 5), _poly_mul_x(_poly_mul_x(fp))),
        _poly_scale(Fraction(-4, 5), _poly_mul_x(fp)),
    )
    if which == "I2":
        return p2[: order + 1]
    if which != "I4p":
        raise ValueError(f"unknown series {which!r}")
    # I4' log part: (4h+1) P4 = 4h f + 5 P2, solved coefficientwise
    num = _poly_add(_poly_scale(Fraction(4), _poly_mul_x(f)), _poly_scale(Fraction(5), p2))
    p4 = [Fraction(0)] * len(num)
    for n in range(len(num)):
        p4[n] = num[n] - (Fraction(4) * p4[n - 1] if n >= 1 else Fraction(0))
    return p4[: order + 1]


#: Classical tabulated expansion coefficients, kept verbatim for comparison
#: against the recurrence (the h^4 ln h entries of I2 and I4p disagree with
#: it; the test suite reports this rather than correcting the table).
TABULATED_LOG_COEFFS = {
    "I0": [Fraction(0), Fraction(-1), Fraction(3, 8), Fraction(-35, 64)],
    "I2": [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-5, 8), Fraction(-315, 256)],
    "I4p": [Fraction(0), Fraction(0), Fraction(-3, 2), Fraction(35, 8), Fraction(-471, 256)],
}

#: Tabulated form of the I4p analytic h^2 coefficient, as a function of
#: (a1, b2).  The third relation of the system instead forces
#: 4*a1 + 5*b2 - 16; again kept for the report, not for evaluation.
TABULATED_I4P_H2 = lambda a1, b2: 4.0 * a1 + 5.0 * b2 - 304.0 / 3.0  # noqa: E731


@dataclass(frozen=True)
class FittedConstants:
    """Free analytic constants plus the measured contour normalization.

    window is the (h_min, h_max) of the fit; residual is the RMS of the
    least-squares residuals over the fit samples (never dropped).
    """

    a1: float
    a2: float
    b2: float
    residual: float
    window: tuple
    kappa: float


@dataclass(frozen=True)
class PFResiduals:
    """Relative residuals of the four relations at one energy."""

    r1: float
    r2: float
    r3: float
    r4: float


def _poly_eval(coeffs, h: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * h + float(c)
    return acc


#: Float log-part coefficients of each moment at the evaluation order, built once.
_LOG_FLOATS = {which: tuple(float(c) for c in log_coefficients(which, SERIES_ORDER)) for which in MOMENTS}


def series_eval(h: float, consts: FittedConstants) -> tuple:
    """Truncated-series per-lobe (I0, I2, I4') at 0 <= h <= 0.2.

    I0 and I2 are evaluated directly at order 10; I4' goes through the exact
    relation (4h+1) I4' = 4h I0 + 5 I2, which is noticeably more accurate
    than an independently truncated series (the I0/I2 truncation errors
    enter damped by the division and the large constant term).
    At h = 0 all h-dependent terms vanish and the limit constants return.
    """
    if not 0.0 <= h <= TRUST_REGION_MAX:
        raise OutOfTrustRegion(f"series trusted only for 0 <= h <= {TRUST_REGION_MAX}, got {h}")
    if h == 0.0:
        i0, i2 = float(I0_CONST), float(I2_CONST)
    else:
        ln = math.log(h)
        analytic0 = (float(I0_CONST), consts.a1, consts.a2)
        analytic2 = (float(I2_CONST), float(LINEAR_COEFF), consts.b2)
        i0 = _poly_eval(_LOG_FLOATS["I0"], h) * ln + _poly_eval(analytic0, h)
        i2 = _poly_eval(_LOG_FLOATS["I2"], h) * ln + _poly_eval(analytic2, h)
    return i0, i2, (4.0 * h * i0 + 5.0 * i2) / (4.0 * h + 1.0)


# --------------------------------------------------------------------------
# Picard-Fuchs residuals
# --------------------------------------------------------------------------

_TINY = 1e-300


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _TINY)


def pf_residuals(t: IntegralTriple) -> PFResiduals:
    """Relative residuals of the four relations for one moment bundle.

    Scale-invariant, so full-contour triples are fine as-is.
    """
    h = t.h
    return PFResiduals(
        r1=_rel(t.I0, (4.0 / 3.0) * h * t.I0p + (1.0 / 3.0) * t.I2p),
        r2=_rel(t.I2, (4.0 / 15.0) * h * t.I0p + (0.8 * h + 4.0 / 15.0) * t.I2p),
        r3=_rel((4.0 * h + 1.0) * t.I4p, 4.0 * h * t.I0 + 5.0 * t.I2),
        r4=_rel(4.0 * h * (4.0 * h + 1.0) * t.I0pp, -3.0 * t.I0),
    )


# --------------------------------------------------------------------------
# kappa measurement and limit extrapolation
# --------------------------------------------------------------------------


def _extrapolate_limit(which: str, hs, cfg: QuadratureConfig | None) -> float:
    """Full-contour limit C = I(0+) from quadrature at two energies.

    Uses I(h) ~ C (1 + P(h) ln h / C0) + B h: C0 is the per-lobe limit
    constant, so P(h)/C0 is the known relative log structure; the unknowns
    (C, B) solve a 2x2 system.  The neglected h^2 terms enter only at
    O(h1*h2).
    """
    c0 = float({"I0": I0_CONST, "I2": I2_CONST, "I4p": I4P_CONST}[which])
    values = [moment(which, h, cfg)[0] for h in hs]
    u = [1.0 + _poly_eval(_LOG_FLOATS[which], h) * math.log(h) / c0 for h in hs]
    det = u[0] * hs[1] - u[1] * hs[0]
    return (values[0] * hs[1] - values[1] * hs[0]) / det


def limit_constants(cfg: QuadratureConfig | None = None, h_pair=LIMIT_H_PAIR) -> dict:
    """Full-contour limits I(0+) for I0, I2, I4' by log-aware extrapolation."""
    return {which: _extrapolate_limit(which, tuple(h_pair), cfg) for which in MOMENTS}


def measure_kappa(cfg: QuadratureConfig | None = None) -> float:
    """Measured contour normalization: lim I0(h)/(4/3) as h -> 0+.

    Expected to be 2 (the oval encloses both lobes of the loop, each of
    area-integral 4/3 in the limit), but measured rather than assumed: the
    I0 entry of limit_constants at its default energies.
    """
    return _extrapolate_limit("I0", LIMIT_H_PAIR, cfg) / float(I0_CONST)


# --------------------------------------------------------------------------
# Least-squares recovery of a1, a2, b2
# --------------------------------------------------------------------------


def fit_series_tail(hs, residual_values, degree: int = 8):
    """Fit a smooth remainder R(h) = h * (c0 + c1 h + ...) on a window.

    The remainder is divided by h and fitted in a Chebyshev basis on
    [min(hs), max(hs)] (well-conditioned), then converted to power-series
    coefficients of h; returns (power_coeffs_of_h, rms_residual, cond) where
    power_coeffs_of_h[n] multiplies h^{n+1}.  cond is the design-matrix
    condition number; the normal-system condition is its square.
    """
    hs = np.asarray(hs, dtype=float)
    g = np.asarray(residual_values, dtype=float) / hs
    lo, hi = hs.min(), hs.max()
    design = npcheb.chebvander(2.0 * (hs - lo) / (hi - lo) - 1.0, degree)
    cond = np.linalg.cond(design)
    if cond * cond > 1e10:
        raise IllConditionedFit(
            f"normal-system condition {cond * cond:.2e} exceeds 1e10"
        )
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - g) ** 2)))
    # convert to power coefficients in h on the original axis
    series = npcheb.Chebyshev(coef, domain=[lo, hi])
    power = series.convert(kind=np.polynomial.Polynomial)
    return np.asarray(power.coef, dtype=float), rms, cond


def fit_constants(hs, i0, i2, kappa: float, degree: int = 8) -> FittedConstants:
    """Recover (a1, a2, b2) from full-contour I0 and I2 sampled at energies hs.

    At least 8 energies must lie inside [0.01, 0.15]; kappa is the contour
    normalization measured with the same quadrature as the samples.  The
    exactly-known terms (limit constants, linear terms, full log parts) are
    subtracted from the kappa-normalized values and the smooth remainders
    are fitted; a1, a2 come from the I0 remainder, b2 from the I2 remainder.
    The reported residual is the RMS over both fits.
    """
    order = np.argsort(hs, kind="stable")
    hs = np.asarray(hs, dtype=float)[order]
    inside = (hs >= 0.01) & (hs <= 0.15)
    if int(inside.sum()) < 8:
        raise ValueError("need at least 8 samples with h in [0.01, 0.15]")
    i0 = np.asarray(i0, dtype=float)[order] / kappa
    i2 = np.asarray(i2, dtype=float)[order] / kappa
    logs0 = np.array([_poly_eval(_LOG_FLOATS["I0"], h) for h in hs])
    logs2 = np.array([_poly_eval(_LOG_FLOATS["I2"], h) for h in hs])
    ln = np.log(hs)
    g0 = i0 - logs0 * ln - float(I0_CONST)
    g2 = i2 - logs2 * ln - float(I2_CONST) - float(LINEAR_COEFF) * hs
    c0, rms0, _ = fit_series_tail(hs, g0, degree)
    c2, rms2, _ = fit_series_tail(hs, g2, degree)
    # g2 has no linear term left, so its leading fitted coefficient (of h)
    # should be ~0; b2 is the h^2 entry
    return FittedConstants(
        a1=float(c0[0]),
        a2=float(c0[1]),
        b2=float(c2[1]),
        residual=float(math.sqrt(0.5 * (rms0**2 + rms2**2))),
        window=(float(hs.min()), float(hs.max())),
        kappa=float(kappa),
    )


def save_constants(consts: FittedConstants, path) -> None:
    doc = {
        "a1": consts.a1,
        "a2": consts.a2,
        "b2": consts.b2,
        "residual": consts.residual,
        "window": list(consts.window),
        "kappa": consts.kappa,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_constants(path) -> FittedConstants:
    doc = json.loads(Path(path).read_text())
    return FittedConstants(
        a1=doc["a1"],
        a2=doc["a2"],
        b2=doc["b2"],
        residual=doc["residual"],
        window=tuple(doc["window"]),
        kappa=doc["kappa"],
    )


def fit_quadrature(hs, degree: int) -> FittedConstants:
    """fit_constants on default-quadrature I0, I2 at hs and kappa: 2 QUADPACK calls per energy, plus 2."""
    i0 = [moment("I0", h, None)[0] for h in hs]
    i2 = [moment("I2", h, None)[0] for h in hs]
    return fit_constants(hs, i0, i2, measure_kappa(), degree)


@functools.cache
def default_constants() -> FittedConstants:
    """Fit once on a standard window with the default quadrature; cached for the process."""
    return fit_quadrature(np.geomspace(0.01, 0.15, 24), 8)

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
(order 10) and summed by Horner's rule in the package's compiled library
(native's series_moments), with I4' from I0 and I2 by relation (3), more
accurate than its own truncated series; melnikov.mk alone reaches the sums.
The log parts P are also the reduced series of the vanishing cycle that
shrinks into the saddle: its integrals are 2 pi i P(h), analytic through
h = 0.  A fixed classical coefficient table is kept verbatim beside them so
that its disagreements can be reported by the test suite rather than
silently hidden: its I2 h^4 ln h and I4' h^4 ln h entries do not match the
recurrence.

The analytic constants a1, a2, b2 are not fixed by the system, but they are
known in closed form: a1 = 1 + 4 ln 2 (the per-lobe period
I0' = -ln h + 4 ln 2 + O(h ln h) follows from K(k) ~ ln(4/k') with
k'^2 ~ h), a2 = 17/16 - (3/2) ln 2 and b2 = 5/4 - 2 ln 2, and the contour
normalization (full-contour quadrature divided by kappa gives the per-lobe
convention) is kappa = 2.  Evaluation uses these exact values.  The
least-squares fit against quadrature samples, with kappa measured by
extrapolating I0 to h = 0+ with the known h ln h structure, stays as a
measurement of them: the test suite checks the fit against the closed
forms, and acceptance criterion 4 checks the fitted a1 (through the h^2
coefficient 16 - 4 a1 = 12 - 16 ln 2 of 5 I2 - I4').
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from .geometry import NumericalFailure, geomspace
from .integrals import IntegralTriple, QuadratureConfig, moment

TRUST_REGION_MAX = 0.2
SERIES_ORDER = 10  # truncation order of the evaluated log parts

# Per-lobe limit constants at h = 0+ and the shared linear analytic term.
I0_CONST = Fraction(4, 3)
I2_CONST = Fraction(16, 15)
I4P_CONST = Fraction(16, 3)
LINEAR_COEFF = Fraction(4)  # h-coefficient of both I2 and I4' analytic parts
# The exact analytic coefficients and contour constant that evaluation uses.
A1 = 1.0 + 4.0 * math.log(2.0)  # h-coefficient of the I0 analytic part
A2 = 17.0 / 16.0 - 1.5 * math.log(2.0)  # h^2-coefficient of the I0 analytic part
B2 = 1.25 - 2.0 * math.log(2.0)  # h^2-coefficient of the I2 analytic part
KAPPA = 2.0  # full contour / per lobe: the oval encloses two lobes, each of area integral 4/3
MOMENTS = ("I0", "I2", "I4p")  # the per-lobe moments M_k combines
LIMIT_H_PAIR = (1e-3, 1e-4)  # energies of the extrapolation to h = 0+


class OutOfTrustRegion(ValueError):
    """Raised when a series evaluation is requested beyond h = 0.2."""


class IllConditionedFit(NumericalFailure):
    """Raised when the least-squares normal system is numerically unusable."""


# --------------------------------------------------------------------------
# Exact log-part coefficients
# --------------------------------------------------------------------------


def log_coefficients(which: str, order: int) -> list[Fraction]:
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
    f_prev = [Fraction(0)] + f  # f_prev[n] = f_{n-1}, with f_{-1} = 0
    # I2 log part: P2 = (4/5) f + (12/5) h f - (4/5) h (4h+1) f', so
    # P2_n = (4/5) [(1 - n) f_n + (7 - 4n) f_{n-1}]
    p2 = [Fraction(4, 5) * ((1 - n) * f[n] + (7 - 4 * n) * f_prev[n]) for n in range(order + 1)]
    if which == "I2":
        return p2
    if which != "I4p":
        raise ValueError(f"unknown series {which!r}")
    # I4' log part: (4h+1) P4 = 4h f + 5 P2, so P4_n = 5 P2_n + 4 f_{n-1} - 4 P4_{n-1}
    p4 = [Fraction(0)]  # P4_{-1}
    for n in range(order + 1):
        p4.append(5 * p2[n] + 4 * f_prev[n] - 4 * p4[-1])
    return p4[1:]


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
    """Fitted analytic constants plus the measured contour normalization.

    A measurement of the exact A1, A2, B2 and KAPPA.  window is the
    (h_min, h_max) of the fit; residual is the RMS of the least-squares
    residuals over the fit samples (never dropped).
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
#: The analytic parts of I0 and I2 that evaluation sums, lowest order first.
_ANALYTIC_FLOATS = {"I0": (float(I0_CONST), A1, A2), "I2": (float(I2_CONST), float(LINEAR_COEFF), B2)}


def _check_trust_region(h: float) -> None:
    """OutOfTrustRegion unless 0 <= h <= 0.2 (so for NaN too)."""
    if not 0.0 <= h <= TRUST_REGION_MAX:
        raise OutOfTrustRegion(f"series trusted only for 0 <= h <= {TRUST_REGION_MAX}, got {h}")


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

    A measurement of KAPPA = 2: the I0 entry of limit_constants at its
    default energies.
    """
    return _extrapolate_limit("I0", LIMIT_H_PAIR, cfg) / float(I0_CONST)


# --------------------------------------------------------------------------
# Least-squares recovery of a1, a2, b2
# --------------------------------------------------------------------------


def _dot(u, v) -> float:
    return sum(map(mul, u, v))


def _chebvander(x: float, degree: int) -> list:
    """[T_0(x), ..., T_degree(x)] by numpy's chebvander recurrence T_i = T_{i-1}*2x - T_{i-2}."""
    row = [1.0, x][: degree + 1]
    for _ in range(2, degree + 1):
        row.append(row[-1] * (2.0 * x) - row[-2])
    return row


def _householder(rows: list, g: list):
    """Householder QR of the m x n matrix rows, m >= n: (R's n columns, each cut to its first n entries, and Q^T g)."""
    n = len(rows[0])
    cols = [[row[j] for row in rows] for j in range(n)]
    qg = list(g)
    for k in range(n):
        v = cols[k][k:]
        alpha = -math.copysign(math.hypot(*v), v[0])
        v[0] -= alpha
        vv = _dot(v, v)
        if vv == 0.0:  # the column is already zero below the diagonal
            continue
        for c in cols[k:] + [qg]:
            s = 2.0 * _dot(v, c[k:]) / vv
            c[k:] = [ci - s * vi for ci, vi in zip(c[k:], v)]
    return [c[:n] for c in cols], qg


def _condition(r_cols: list) -> float:
    """2-norm condition of R from its singular values, by one-sided (Hestenes) Jacobi rotations of its columns.

    R's singular values are those of the matrix it was factored from, as Q
    is orthogonal; inf where R is singular.
    """
    u = [list(c) for c in r_cols]
    norms = [_dot(c, c) for c in u]
    for _ in range(60):  # a cap only: the rotations converge quadratically (7 sweeps at degree 8, 10 at 20)
        rotated = False
        for i in range(len(u) - 1):
            for j in range(i + 1, len(u)):
                gamma = _dot(u[i], u[j])
                if abs(gamma) <= 1e-15 * math.sqrt(norms[i] * norms[j]):
                    continue
                zeta = (norms[j] - norms[i]) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                u[i], u[j] = [c * a - s * b for a, b in zip(u[i], u[j])], [s * a + c * b for a, b in zip(u[i], u[j])]
                norms[i], norms[j] = _dot(u[i], u[i]), _dot(u[j], u[j])
                rotated = True
        if not rotated:
            break
    sigma = [math.hypot(*c) for c in u]
    return max(sigma) / min(sigma) if min(sigma) > 0.0 else math.inf


def _chebyshev_to_power(coef: list, off: float, scl: float) -> list:
    """Power coefficients in h of sum_k coef[k] T_k(off + scl*h).

    numpy's Chebyshev.convert to a Polynomial, operation for operation:
    Clenshaw's three-term recurrence run on polynomials in h.
    """

    def times_u(p, a, b):  # p * (a + b*h)
        return [x * a + y * b for x, y in zip(p + [0.0], [0.0] + p)]

    def plus(p, q, sign=1.0):
        return [x + sign * y for x, y in zip_longest(p, q, fillvalue=0.0)]

    c0, c1 = (coef[:1], []) if len(coef) == 1 else (coef[-2:-1], coef[-1:])
    for ck in reversed(coef[:-2]):
        c0, c1 = plus([ck], c1, -1.0), plus(c0, times_u(c1, 2.0 * off, 2.0 * scl))
    return plus(c0, times_u(c1, off, scl))


def fit_series_tail(hs, residual_values, degree: int):
    """Fit a smooth remainder R(h) = h * (c0 + c1 h + ...) on a window.

    The remainder is divided by h and fitted in a Chebyshev basis on
    [min(hs), max(hs)] (well-conditioned), by Householder QR, then
    converted to power-series coefficients of h; returns
    (power_coeffs_of_h, rms_residual) where power_coeffs_of_h[n]
    multiplies h^{n+1}.  IllConditionedFit if the normal-system condition,
    the square of the design matrix's, exceeds 1e10: infinite where the
    samples are fewer than the degree + 1 coefficients or all at one
    energy.  ValueError for a negative degree.
    """
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    hs = [float(h) for h in hs]
    g = [float(r) / h for r, h in zip(residual_values, hs)]
    lo, hi = min(hs), max(hs)
    if len(hs) <= degree or not hi > lo:  # the normal system is singular
        raise IllConditionedFit(
            f"normal-system condition inf exceeds 1e10: {len(hs)} samples on [{lo!r}, {hi!r}] for {degree + 1} coefficients"
        )
    design = [_chebvander(2.0 * (h - lo) / (hi - lo) - 1.0, degree) for h in hs]
    r_cols, qg = _householder(design, g)
    cond = _condition(r_cols)
    if cond * cond > 1e10:
        raise IllConditionedFit(
            f"normal-system condition {cond * cond:.2e} exceeds 1e10"
        )
    coef = [0.0] * (degree + 1)
    for i in reversed(range(degree + 1)):  # back-substitution in R coef = (Q^T g)[:degree + 1]
        coef[i] = (qg[i] - _dot([c[i] for c in r_cols[i + 1 :]], coef[i + 1 :])) / r_cols[i][i]
    rms = math.sqrt(sum((_dot(row, coef) - gi) ** 2 for row, gi in zip(design, g)) / len(g))
    # convert to power coefficients in h on the original axis, where the
    # Chebyshev variable is off + scl*h (numpy's mapparms of [lo, hi] onto [-1, 1])
    return _chebyshev_to_power(coef, (-hi - lo) / (hi - lo), 2.0 / (hi - lo)), rms


def fit_constants(hs, i0, i2, kappa: float, degree: int) -> FittedConstants:
    """Recover (a1, a2, b2) from full-contour I0 and I2 sampled at energies hs.

    At least 8 energies must lie inside [0.01, 0.15], and the degree must
    be at least 1, as a2 and b2 are h^2 coefficients; kappa is the contour
    normalization measured with the same quadrature as the samples.  The
    exactly-known terms (limit constants, linear terms, full log parts) are
    subtracted from the kappa-normalized values and the smooth remainders
    are fitted; a1, a2 come from the I0 remainder, b2 from the I2 remainder.
    The reported residual is the RMS over both fits.
    """
    order = sorted(range(len(hs)), key=lambda i: hs[i])
    hs = [float(hs[i]) for i in order]
    if sum(0.01 <= h <= 0.15 for h in hs) < 8:
        raise ValueError("need at least 8 samples with h in [0.01, 0.15]")
    if degree < 1:
        raise ValueError(f"the fit needs degree >= 1, as a2 and b2 are h^2 coefficients; got {degree}")
    g0 = [
        float(i0[i]) / kappa - _poly_eval(_LOG_FLOATS["I0"], h) * math.log(h) - float(I0_CONST)
        for i, h in zip(order, hs)
    ]
    g2 = [
        float(i2[i]) / kappa - _poly_eval(_LOG_FLOATS["I2"], h) * math.log(h) - float(I2_CONST) - float(LINEAR_COEFF) * h
        for i, h in zip(order, hs)
    ]
    c0, rms0 = fit_series_tail(hs, g0, degree)
    c2, rms2 = fit_series_tail(hs, g2, degree)
    # g2 has no linear term left, so its leading fitted coefficient (of h)
    # should be ~0; b2 is the h^2 entry
    return FittedConstants(
        a1=c0[0],
        a2=c0[1],
        b2=c2[1],
        residual=math.sqrt(0.5 * (rms0**2 + rms2**2)),
        window=(hs[0], hs[-1]),
        kappa=float(kappa),
    )


def fit_quadrature(hs, degree: int) -> FittedConstants:
    """fit_constants on default-quadrature I0, I2 at hs and kappa: 2 QUADPACK calls per energy, plus 2."""
    i0 = [moment("I0", h, None)[0] for h in hs]
    i2 = [moment("I2", h, None)[0] for h in hs]
    return fit_constants(hs, i0, i2, measure_kappa(), degree)


@functools.cache
def default_constants() -> FittedConstants:
    """The fit that measures A1, A2, B2 and KAPPA, on a standard window with the default quadrature.

    Cached for the process.
    """
    return fit_quadrature(geomspace(0.01, 0.15, 24), 8)

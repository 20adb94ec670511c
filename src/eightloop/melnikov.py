"""Bifurcation functions for the perturbed figure-eight flow.

For the perturbation (lam1 y + lam2 x^2 + lam3 x y + lam4 x^2 y) entering
the y-equation along a parameter arc lam(eps), the order-eps^k displacement
coefficient on the exterior ovals is

    M_k(h) = lam1_k I0(h) + lam4_k I2(h) + c_k I4'(h),

where (lam1_k, lam4_k) are the k-th arc coefficients of lam1, lam4 and

    c_k = (1/3) * sum_{i+j=k} lam2_i lam3_j

collects the interaction of the conservative x^2 term with the x y term
(each is neutral alone at first order: x^2 preserves energy exactly on the
section and x y integrates to zero over an oval by symmetry; their product
first acts at order two).  M_1 therefore never sees lam2, lam3.

Leading behavior at the loop (h -> 0+), per-lobe convention:

    M_k(h) = c0 + c1 h ln h + c2 h + O(h^2 ln h)
    c0 = (4/3) lam1_k + (16/15) lam4_k + (16/3) c_k
    c1 = -lam1_k
    c2 = a1 lam1_k + 4 lam4_k + 4 c_k,    a1 = 1 + 4 ln 2

Zeros of M_k in h correspond (for small eps) to limit cycles from the
exterior ovals; their number is what the direct simulations probe.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .integrals import _exterior_moments
from .series import A1, I0_CONST, I2_CONST, I4P_CONST, KAPPA, LINEAR_COEFF, series_eval

SUSPECT_REL = 1e-4  # near-zero threshold for suspects, relative to max|f| on the grid


@dataclass(frozen=True)
class MelnikovSpec:
    """Inputs of one bifurcation function M_k.

    lam1k, lam4k are the order-k arc coefficients of lam1, lam4; lam2 and
    lam3 are the full lower-order coefficient sequences of lam2, lam3 (the
    order-0 entries must be 0: the arc starts at the unperturbed system).
    """

    k: int
    lam1k: float
    lam4k: float
    lam2: tuple = ()
    lam3: tuple = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("order k must be >= 1")
        for name, seq in (("lam2", self.lam2), ("lam3", self.lam3)):
            if seq and seq[0] != 0.0:
                raise ValueError(f"{name}[0] must vanish (arc through the origin)")

    @property
    def cross_coefficient(self) -> float:
        """c_k = (1/3) sum_{i+j=k} lam2_i lam3_j (zero when k == 1)."""
        total = 0.0
        for i in range(0, self.k + 1):
            j = self.k - i
            if i < len(self.lam2) and j < len(self.lam3):
                total += self.lam2[i] * self.lam3[j]
        return total / 3.0

    @property
    def vanishes(self) -> bool:
        """M_k is identically zero: as I0, I2 and I4' are independent, lam1k, lam4k and c_k all vanish."""
        return self.lam1k == 0.0 and self.lam4k == 0.0 and self.cross_coefficient == 0.0


@dataclass(frozen=True)
class LeadingCoeffs:
    """Leading h -> 0+ structure c0 + c1 h ln h + c2 h of one M_k."""

    c0: float
    c1: float
    c2: float


@dataclass(frozen=True)
class ZeroCount:
    """Result of sign-change counting on an interval, with suspects.

    zeros are (h_star, bracket_width) pairs from bisection-refined sign
    changes; suspects are interior near-zero minima of |f| without a sign
    change (candidate even-order zeros sign counting cannot certify).
    samples are the grid's (h, f(h)) pairs as Python floats, the values
    the count was read from; to_json_dict leaves them out.
    """

    interval: tuple
    zeros: tuple
    suspects: tuple = ()
    samples: tuple = ()

    @property
    def count(self) -> int:
        return len(self.zeros)

    def to_json_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "zeros": [list(z) for z in self.zeros],
            "count": self.count,
            "suspects": list(self.suspects),
        }


def m1(h: float, lam1: float, lam4: float, backend: str) -> float:
    """First-order bifurcation function lam1 I0(h) + lam4 I2(h)."""
    return mk(h, MelnikovSpec(k=1, lam1k=lam1, lam4k=lam4), backend)


def mk(h: float, spec: MelnikovSpec, backend: str) -> float:
    """Order-k bifurcation function for an arbitrary arc order.

    The series backend sums the h -> 0+ expansions.  The quadrature backend
    takes the exact full-range moments I0, I2 and I4' from their closed forms
    in K and E (integrals._exterior_moments, which the tests check against
    QUADPACK) and divides them by KAPPA.
    """
    if backend == "series":
        i0, i2, i4p = series_eval(h)
    elif backend == "quadrature":
        i0, i2, i4p = (v / KAPPA for v in _exterior_moments(h))
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return spec.lam1k * i0 + spec.lam4k * i2 + spec.cross_coefficient * i4p


def leading_coeffs(spec: MelnikovSpec) -> LeadingCoeffs:
    """Exact leading coefficients of M_k at h -> 0+ (c2 through the closed form A1 = 1 + 4 ln 2)."""
    ck = spec.cross_coefficient
    return LeadingCoeffs(
        c0=float(I0_CONST) * spec.lam1k + float(I2_CONST) * spec.lam4k + float(I4P_CONST) * ck,
        c1=-spec.lam1k,
        c2=A1 * spec.lam1k + float(LINEAR_COEFF) * spec.lam4k + float(LINEAR_COEFF) * ck,
    )


def _bisect(f, lo: float, hi: float, flo: float, fhi: float, tol: float):
    """Halve a sign-change bracket [lo, hi] of f, with f(lo) = flo and f(hi) = fhi, to width tol.

    The half where f(mid) is 0.0 or has the sign opposite to flo's is
    kept, so a zero hit at mid stays in the bracket as hi.  Signs are
    compared, not multiplied: a product of two values below ~1e-154
    underflows to 0.  f returns a float, NaN where it is undefined.
    Halving stops where f is NaN, and once lo and hi are adjacent floats,
    which a tol below their spacing (0 or negative included) would never
    end.  Returns the bracket reached and its end values, (lo, hi, flo, fhi).
    """
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        fm = f(mid)
        if math.isnan(fm):
            break
        if fm == 0.0 or flo < 0.0 < fm or fm < 0.0 < flo:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo, hi, flo, fhi


def _sign_changes(f, samples, tol: float) -> list:
    """Brackets (lo, hi, flo, fhi) of the sign changes of f among its (h, f(h)) samples.

    f returns a float, NaN where it is undefined.  A sample whose value is
    NaN or 0.0 carries no sign and drops out; each sign change between
    consecutive remaining samples (compared as signs, as in _bisect) is
    one bracket, halved by _bisect to width tol.
    """
    signed = [(h, v) for h, v in samples if v < 0.0 or v > 0.0]
    pairs = zip(signed[:-1], signed[1:])
    return [_bisect(f, h0, h1, v0, v1, tol) for (h0, v0), (h1, v1) in pairs if v0 < 0.0 < v1 or v1 < 0.0 < v0]


def count_zeros(
    f,
    interval,
    grid_n: int = 400,
    refine_tol: float = 1e-10,
) -> ZeroCount:
    """Count zeros of f on an interval by sign changes plus suspect flags.

    f returns a float, NaN where it is undefined.  A grid of grid_n points
    locates sign changes, each refined by plain bisection until the bracket
    is narrower than refine_tol; zeros are (h_star, width) pairs.  A 0.0 or
    NaN sample carries no sign, as in find_limit_cycles (both read the grid
    by _sign_changes), so f = 0 has no zeros.  Interior local minima of |f|
    whose parabola-extrapolated minimum is below SUSPECT_REL * max|f| (NaN
    ignored), with no sign change among their three samples, are reported
    as suspects (possible even-order zeros that sign counting cannot see);
    they are not included in count.  NaN samples are logged in one warning,
    since zeros between them cannot be seen either.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise ValueError("interval must satisfy b > a")
    if grid_n < 32:
        raise ValueError("grid_n must be at least 32")
    hs = np.linspace(a, b, grid_n)
    vals = np.array([f(h) for h in hs], dtype=float)
    samples = tuple(zip(hs.tolist(), vals.tolist()))
    nan = np.isnan(vals)
    if nan.any():
        logging.getLogger(__name__).warning(
            "count_zeros: %d of %d samples are NaN; zeros between them are not counted", nan.sum(), grid_n
        )
    scale = float(np.max(np.abs(vals), initial=0.0, where=~nan))
    zeros = tuple((0.5 * (lo + hi), hi - lo) for lo, hi, _, _ in _sign_changes(f, samples, refine_tol))
    suspects = []
    for i in range(1, grid_n - 1):
        v = abs(vals[i])
        if v < abs(vals[i - 1]) and v <= abs(vals[i + 1]):
            y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
            if min(y0, y1, y2) < 0.0 < max(y0, y1, y2):
                continue  # a sign change, counted as a zero
            # parabola through the three |f| samples; its minimum estimates
            # how close f comes to zero between grid points
            denom = y0 - 2.0 * y1 + y2
            if denom != 0.0:
                delta = 0.5 * (y0 - y2) / denom
                vmin = y1 - 0.25 * (y0 - y2) * delta
            else:
                vmin = y1
            if scale > 0.0 and abs(vmin) < SUSPECT_REL * scale:
                suspects.append(float(hs[i]))
    return ZeroCount(
        interval=(a, b),
        zeros=zeros,
        suspects=tuple(suspects),
        samples=samples,
    )

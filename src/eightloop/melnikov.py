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
    c2 = a1 lam1_k + 4 lam4_k + 4 c_k

Zeros of M_k in h correspond (for small eps) to limit cycles from the
exterior ovals; their number is what the direct simulations probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrals import moment
from .series import FittedConstants, default_constants, series_eval

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
    """

    interval: tuple
    zeros: tuple
    count: int
    suspects: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "zeros": [list(z) for z in self.zeros],
            "count": self.count,
            "suspects": list(self.suspects),
        }


def m1(
    h: float,
    lam1: float,
    lam4: float,
    backend: str = "series",
    consts: FittedConstants | None = None,
) -> float:
    """First-order bifurcation function lam1 I0(h) + lam4 I2(h)."""
    return mk(h, MelnikovSpec(k=1, lam1k=lam1, lam4k=lam4), backend, consts)


def mk(
    h: float,
    spec: MelnikovSpec,
    backend: str = "series",
    consts: FittedConstants | None = None,
) -> float:
    """Order-k bifurcation function for an arbitrary arc order.

    The quadrature backend computes I4' only when c_k != 0; I0 and I2 are
    always computed, so h is always checked.  Since I4' > 0, c_k * 0.0 is
    the same signed zero as c_k * I4' when c_k = 0, so no bit changes.
    """
    if backend not in ("series", "quadrature"):
        raise ValueError(f"unknown backend {backend!r}")
    c = consts if consts is not None else default_constants()
    ck = spec.cross_coefficient
    if backend == "series":
        i0, i2, i4p = series_eval(h, c)
    else:
        i0 = moment("I0", h, None)[0] / c.kappa
        i2 = moment("I2", h, None)[0] / c.kappa
        i4p = moment("I4p", h, None)[0] / c.kappa if ck != 0.0 else 0.0
    return spec.lam1k * i0 + spec.lam4k * i2 + ck * i4p


def leading_coeffs(spec: MelnikovSpec) -> LeadingCoeffs:
    """Exact-structure leading coefficients of M_k at h -> 0+ (a1 from default_constants)."""
    ck = spec.cross_coefficient
    return LeadingCoeffs(
        c0=(4.0 / 3.0) * spec.lam1k + (16.0 / 15.0) * spec.lam4k + (16.0 / 3.0) * ck,
        c1=-spec.lam1k,
        c2=default_constants().a1 * spec.lam1k + 4.0 * spec.lam4k + 4.0 * ck,
    )


def _bisect(f, lo: float, hi: float, flo: float, tol: float):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, 0.0
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi), hi - lo


def count_zeros(
    f,
    interval,
    grid_n: int = 400,
    refine_tol: float = 1e-10,
) -> ZeroCount:
    """Count zeros of f on an interval by sign changes plus suspect flags.

    A grid of grid_n points locates sign changes, each refined by plain
    bisection until the bracket is narrower than refine_tol; zeros are
    (h_star, width) pairs.  Interior local minima of |f| whose
    parabola-extrapolated minimum is below SUSPECT_REL * max|f| without a
    sign change are reported as suspects (possible even-order zeros that
    sign counting cannot see); they are not included in count.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise ValueError("interval must satisfy b > a")
    if grid_n < 32:
        raise ValueError("grid_n must be at least 32")
    hs = np.linspace(a, b, grid_n)
    vals = np.array([f(h) for h in hs], dtype=float)
    scale = float(np.max(np.abs(vals)))
    zeros = []
    for i in range(grid_n - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            if not zeros or abs(hs[i] - zeros[-1][0]) > refine_tol:
                zeros.append((float(hs[i]), 0.0))
            continue
        if v0 * v1 < 0.0:
            zeros.append(_bisect(f, float(hs[i]), float(hs[i + 1]), float(v0), refine_tol))
    if vals[-1] == 0.0:
        zeros.append((float(hs[-1]), 0.0))
    suspects = []
    for i in range(1, grid_n - 1):
        v = abs(vals[i])
        if v < abs(vals[i - 1]) and v <= abs(vals[i + 1]):
            if vals[i - 1] * vals[i] < 0.0 or vals[i] * vals[i + 1] < 0.0:
                continue  # ordinary sign change, already counted
            # parabola through the three |f| samples; its minimum estimates
            # how close f comes to zero between grid points
            y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
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
        zeros=tuple(zeros),
        count=len(zeros),
        suspects=tuple(suspects),
    )

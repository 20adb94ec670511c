"""Closed-form geometry of the double-well Hamiltonian and its perturbation.

The unperturbed system is Hamiltonian with

    H(x, y) = y^2/2 - x^2/2 + x^4/4.

H has a saddle at the origin with critical value 0, two centers at (+-1, 0)
with critical value -1/4, and the zero level set is a figure-eight loop
(two homoclinic lobes).  For h > 0 the level set {H = h} is a single closed
"exterior" oval surrounding both lobes, crossing the x-axis at +-x_plus(h)
with x_plus^2 = 1 + sqrt(1 + 4h) > 2.  Everything downstream (quadrature,
return maps) uses the energy h as the canonical transverse coordinate and
x_plus(h) to place the oval on the x-axis.

The perturbed vector field is

    x' = y,   y' = x - x^3 + lam1*y + lam2*x^2 + lam3*x*y + lam4*x^2*y

with no smallness assumption baked in; smallness is the caller's concern.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)


class NonPositiveEnergy(ValueError):
    """Raised when an exterior-oval operation is asked for h <= 0."""


class NumericalFailure(RuntimeError):
    """A computation missed its accuracy contract or could not finish; the CLI exits 3 on it."""


def energy(p) -> float:
    """H(x, y) = y^2/2 - x^2/2 + x^4/4.

    Accepts any (x, y) pair; works elementwise on arrays.
    """
    x, y = p
    return 0.5 * y * y - 0.5 * x * x + 0.25 * x**4


def vector_field(t, state, lam):
    """Right-hand side (x', y') of the perturbed system at state, with lam = (lam1, lam2, lam3, lam4).

    The signature is that of scipy's ODE solvers, fun(t, y, *args), with t
    unused.  The DOP853 step of the dynamics module does not call it: it is
    generated from the source of the return expression below, in x, y and
    l1..l4, which is therefore the one place the field is written.
    """
    x, y = state
    l1, l2, l3, l4 = lam
    return (y, x - x * x * x + l1 * y + l2 * x * x + l3 * x * y + l4 * x * x * y)


def x_plus(h: float) -> float:
    """Outer turning point: the positive root of x^4 - 2x^2 - 4h = 0.

    ValueError for a non-finite h, NonPositiveEnergy for h <= 0.
    """
    if not math.isfinite(h):
        raise ValueError(f"exterior oval needs a finite h, got h={h}")
    if h <= 0.0:
        raise NonPositiveEnergy(f"exterior oval needs h > 0, got h={h}")
    return math.sqrt(1.0 + math.sqrt(1.0 + 4.0 * h))

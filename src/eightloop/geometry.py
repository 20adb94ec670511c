"""Closed-form geometry of the double-well Hamiltonian and its perturbation.

The unperturbed system is Hamiltonian with

    H(x, y) = y^2/2 - x^2/2 + x^4/4.

H has a saddle at the origin with critical value 0, two centers at (+-1, 0)
with critical value -1/4, and the zero level set is a figure-eight loop
(two homoclinic lobes).  For h > 0 the level set {H = h} is a single closed
"exterior" oval surrounding both lobes, crossing the x-axis at +-x_plus(h)
with x_plus^2 = 1 + sqrt(1 + 4h) > 2.  Everything downstream (quadrature,
return maps) uses the energy h as the canonical transverse coordinate and
x_plus(h) to place the oval on the x-axis.  The package's grids of
energies and times come from linspace and geomspace below, in plain Python.

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
    unused.  The compiled DOP853 flow loop of the dynamics module does not
    call it: its C is generated from the source of the return expression
    below, in x, y and l1..l4, which is therefore the one place the field
    is written.  That expression may use only +, -, * and negation, whose
    C on doubles is Python's float arithmetic; the generator refuses
    anything else.
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


def linspace(a: float, b: float, n: int) -> list:
    """n evenly spaced floats from a to b, both ends included: numpy's linspace, bit for bit.

    Point i is i*step + a with step = (b - a)/(n - 1), and the last point is
    b itself.  ValueError for n < 0.
    """
    if n < 0:
        raise ValueError(f"a grid needs n >= 0 points, got n={n}")
    a, b = float(a), float(b)
    step = (b - a) / (n - 1) if n > 1 else 0.0
    if step == 0.0:  # one point, or a step that underflows: numpy's i/(n - 1) * (b - a) + a
        grid = [i / max(n - 1, 1) * (b - a) + a for i in range(n)]
    else:
        grid = [i * step + a for i in range(n)]
    if n > 1:
        grid[-1] = b
    return grid


def geomspace(a: float, b: float, n: int) -> list:
    """n floats from a to b, both ends included, evenly spaced in log10: numpy's geomspace for 0 < a, b.

    Point i is 10**e for e on linspace(log10 a, log10 b, n), by libm's
    log10 and pow, with both ends pinned to a and b.  numpy's SIMD log10
    and power can differ from libm's by an ulp, so the inner points can
    differ from numpy's in their last bits (within 1e-13 relative; more
    along wider grids).  ValueError for n < 0 and for ends that are not
    positive and finite.
    """
    a, b = float(a), float(b)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"a geometric grid needs positive finite ends, got {a!r} and {b!r}")
    grid = [10.0**e for e in linspace(math.log10(a), math.log10(b), n)]
    if n > 0:
        grid[0] = a
    if n > 1:
        grid[-1] = b
    return grid

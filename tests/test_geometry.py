import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eightloop as el
from eightloop.geometry import SQRT2, geomspace, linspace, x_plus


def test_energy_known_points():
    # H = y^2/2 - x^2/2 + x^4/4
    assert el.energy((0.0, 0.0)) == 0.0
    assert el.energy((2.0, 0.0)) == 2.0
    npt.assert_allclose(el.energy((1.0, 0.0)), -0.25)
    npt.assert_allclose(el.energy((SQRT2, 0.0)), 0.0, atol=1e-15)
    npt.assert_allclose(el.energy((0.0, 1.0)), 0.5)


def test_energy_is_conserved_form_of_vector_field():
    # grad H dotted with the unperturbed field vanishes identically
    rng = np.random.default_rng(42)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, size=2)
        fx, fy = el.vector_field(0.0, (x, y), (0.0, 0.0, 0.0, 0.0))
        dHx = -x + x**3
        dHy = y
        assert abs(dHx * fx + dHy * fy) < 1e-12


def test_vector_field_perturbation_terms():
    lam = (0.1, 0.2, 0.3, 0.4)
    x, y = 1.5, -0.7
    fx, fy = el.vector_field(0.0, (x, y), lam)
    assert fx == y
    expected = x - x**3 + 0.1 * y + 0.2 * x**2 + 0.3 * x * y + 0.4 * x**2 * y
    npt.assert_allclose(fy, expected, rtol=1e-15)


def test_oval_geometry_turning_points():
    # x_plus^2 = 1 + sqrt(1 + 4h)
    npt.assert_allclose(x_plus(2.0), 2.0, rtol=1e-14)
    npt.assert_allclose(x_plus(0.75), math.sqrt(3.0), rtol=1e-14)
    # at the loop itself the outer turning point tends to sqrt(2)
    npt.assert_allclose(x_plus(1e-12), SQRT2, rtol=1e-9)


def test_oval_geometry_rejects_nonpositive_h():
    with pytest.raises(el.NonPositiveEnergy):
        x_plus(0.0)
    with pytest.raises(el.NonPositiveEnergy):
        x_plus(-0.1)


# ---------------------------------------------------------------------------
# The package's grids, with numpy's as the oracle
# ---------------------------------------------------------------------------

_GRID_SETTINGS = settings(max_examples=200, deadline=None)
_END = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@_GRID_SETTINGS
@given(a=_END, b=_END, n=st.integers(min_value=2, max_value=500))
def test_linspace_is_numpys_bit_for_bit(a, b, n):
    assert _bits(linspace(a, b, n)) == _bits(np.linspace(a, b, n))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1e-3, 0.2), (-2.5, 7.0), (3.0, 3.0), (0.0, 1e-320)])
def test_linspace_of_a_few_points_is_numpys(a, b, n):
    assert _bits(linspace(a, b, n)) == _bits(np.linspace(a, b, n))


@_GRID_SETTINGS
@given(
    e=st.floats(min_value=-6.0, max_value=3.0),
    decades=st.floats(min_value=0.01, max_value=4.0),
    n=st.integers(min_value=2, max_value=400),
)
def test_geomspace_pins_its_ends_increases_and_stays_near_numpys(e, decades, n):
    # not bit for bit: numpy's SIMD log10 and power can differ from libm's
    # by an ulp or more, and the difference grows along a wide grid
    a, b = 10.0**e, 10.0 ** (e + decades)
    grid = geomspace(a, b, n)
    assert len(grid) == n and grid[0] == a and grid[-1] == b
    assert all(x < y for x, y in zip(grid, grid[1:]))
    npt.assert_allclose(grid, np.geomspace(a, b, n), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n,expected", [(0, []), (1, [0.01]), (2, [0.01, 0.15])])
def test_geomspace_of_a_few_points_is_its_ends(n, expected):
    assert geomspace(0.01, 0.15, n) == expected


@pytest.mark.parametrize("grid", [linspace, geomspace])
def test_grids_reject_a_negative_size(grid):
    with pytest.raises(ValueError, match="n >= 0"):
        grid(0.01, 0.15, -2)


@pytest.mark.parametrize("a,b", [(0.0, 0.15), (-0.01, 0.15), (0.01, -0.15), (0.01, math.inf), (math.nan, 0.15)])
def test_geomspace_rejects_ends_that_are_not_positive_and_finite(a, b):
    with pytest.raises(ValueError, match="positive finite ends"):
        geomspace(a, b, 24)

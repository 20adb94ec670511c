import math

import numpy as np
import numpy.testing as npt
import pytest

import eightloop as el
from eightloop.geometry import SQRT2, x_plus


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
        fx, fy = el.vector_field(0.0, (x, y), el.PerturbationParams())
        dHx = -x + x**3
        dHy = y
        assert abs(dHx * fx + dHy * fy) < 1e-12


def test_vector_field_perturbation_terms():
    lam = el.PerturbationParams(lambda1=0.1, lambda2=0.2, lambda3=0.3, lambda4=0.4)
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


def test_phase_point_and_params_defaults():
    lam = el.PerturbationParams()
    assert lam == (0.0, 0.0, 0.0, 0.0)

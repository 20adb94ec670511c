"""Quadrature of the oval integrals against independent oracles.

The area-type moments are cross-checked with a plain midpoint rule in x
(no shared substitution with the production quadrature); the 1/y and
second-derivative moments are checked through finite-difference identities
in h, which couple quadratures of different integrands.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

import eightloop as el
from eightloop.integrals import integral_I0pp


def _midpoint_xiy(h, i, n=400_000):
    # full contour of x^i y dx = 2 * integral of x^i y_+(x) over [-x+, x+]
    xp = math.sqrt(1.0 + math.sqrt(1.0 + 4.0 * h))
    dx = 2.0 * xp / n
    x = -xp + (np.arange(n) + 0.5) * dx
    y2 = 2.0 * h + x * x - 0.5 * x**4
    y = np.sqrt(np.maximum(y2, 0.0))
    return 2.0 * float(np.sum(x**i * y)) * dx


@pytest.mark.parametrize("h", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("i", [0, 2])
def test_area_moments_match_midpoint_oracle(h, i, quad_cfg):
    value, err = el.integral_xiy(h, i, quad_cfg)
    oracle = _midpoint_xiy(h, i)
    npt.assert_allclose(value, oracle, rtol=1e-6)
    assert err < 1e-8


def test_odd_moment_vanishes_by_symmetry(quad_cfg):
    for h in (0.05, 1.0):
        value, _ = el.integral_xiy(h, 1, quad_cfg)
        scale, _ = el.integral_xiy(h, 0, quad_cfg)
        assert abs(value) < 1e-10 * scale


@pytest.mark.parametrize("h", [1e-4, 1e-2, 0.5, 3.0])
def test_signs(h, quad_cfg):
    t = el.integral_triple(h, quad_cfg)
    assert t.I0 > 0 and t.I2 > 0
    assert t.I0p > 0 and t.I2p > 0 and t.I4p > 0
    # I0 is increasing and concave in h on the exterior family
    assert t.I0pp < 0


def test_first_derivative_identity(quad_cfg):
    # d/dh of the area moment is the 1/y moment
    h, d = 0.5, 1e-5
    fd = (el.integral_xiy(h + d, 0, quad_cfg)[0] - el.integral_xiy(h - d, 0, quad_cfg)[0]) / (2 * d)
    npt.assert_allclose(el.integral_xi_over_y(h, 0, quad_cfg)[0], fd, rtol=1e-7)


def test_second_derivative_identity(quad_cfg):
    # Richardson-extrapolated FD of the 1/y moment vs the direct I0'' rule
    h = 0.5

    def fd(d):
        up = el.integral_xi_over_y(h + d, 0, quad_cfg)[0]
        dn = el.integral_xi_over_y(h - d, 0, quad_cfg)[0]
        return (up - dn) / (2 * d)

    richardson = (4.0 * fd(5e-4) - fd(1e-3)) / 3.0
    npt.assert_allclose(integral_I0pp(h, quad_cfg)[0], richardson, rtol=1e-6)


def test_triple_is_consistent_with_elementwise_calls(quad_cfg):
    h = 0.2
    t = el.integral_triple(h, quad_cfg)
    assert t.h == h
    npt.assert_allclose(t.I0, el.integral_xiy(h, 0, quad_cfg)[0], rtol=1e-14)
    npt.assert_allclose(t.I4p, el.integral_xi_over_y(h, 4, quad_cfg)[0], rtol=1e-14)
    assert set(t.err) == {"I0", "I1", "I2", "I0p", "I2p", "I4p", "I0pp"}
    assert all(e >= 0 for e in t.err.values())


def test_invalid_exponent_rejected(quad_cfg):
    with pytest.raises(ValueError):
        el.integral_xiy(0.5, 3, quad_cfg)
    with pytest.raises(ValueError):
        el.integral_xi_over_y(0.5, 1, quad_cfg)


def test_nonpositive_energy_rejected(quad_cfg):
    with pytest.raises(el.NonPositiveEnergy):
        el.integral_xiy(0.0, 0, quad_cfg)
    with pytest.raises(el.NonPositiveEnergy):
        el.integral_xi_over_y(-0.1, 0, quad_cfg)


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
def test_nonfinite_energy_rejected(h, quad_cfg):
    for call in (
        lambda: el.integral_xiy(h, 0, quad_cfg),
        lambda: el.integral_xi_over_y(h, 4, quad_cfg),
        lambda: integral_I0pp(h, quad_cfg),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_tolerance_failure_raises_with_payload():
    starved = el.QuadratureConfig(abs_tol=1e-16, rel_tol=1e-16, max_subdivisions=2)
    with pytest.raises(el.ToleranceNotMet) as exc:
        el.integral_xi_over_y(1e-4, 0, starved)
    assert math.isfinite(exc.value.value)
    assert exc.value.err > 0


def test_config_validation():
    with pytest.raises(ValueError):
        el.QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        el.QuadratureConfig(max_subdivisions=0)

"""Quadrature of the oval integrals against independent oracles.

The area-type moments are cross-checked with a plain midpoint rule in x
(no shared substitution with the production quadrature); the 1/y and
second-derivative moments are checked through finite-difference identities
in h, which couple quadratures of different integrands.  The compiled
integrands and closed forms are checked against the same expressions on
Python floats, value for value, and the library's QUADPACK and K and E
against scipy's, which are computed here too: scipy.integrate.quad on the
Python integrands, and scipy.special's ellipkm1 and ellipe.
"""

import ctypes
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import ellipe, ellipkm1

import eightloop as el
from conftest import moments
from eightloop import integrals, native
from eightloop.geometry import SQRT2, x_plus
from eightloop.integrals import integral_I0pp, moment
from eightloop.series import KAPPA

TIGHT_QUAD = el.QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=200)


# The three integrands of theta on the oval (a, s), with the moment's index
# i, on Python floats: the oracles of the compiled ones.


def _xiy(th, a, s, i):
    x, c = a * math.sin(th), math.cos(th)
    return a * a * (c * c) * x**i * math.sqrt((x * x + s) / 2.0)


def _xi_over_y(th, a, s, i):
    x = a * math.sin(th)
    return x**i * math.sqrt(2.0 / (x * x + s))


def _i0pp(th, a, s, _i):
    sin_th = math.sin(th)
    x = a * sin_th
    return (1.0 + sin_th * sin_th) / (x * x + s) ** 1.5


PYTHON_INTEGRANDS = {"xiy": _xiy, "xi_over_y": _xi_over_y, "i0pp": _i0pp}
_INDICES = {"xiy": (0, 1, 2), "xi_over_y": (0, 2, 4), "i0pp": (0,)}


def _oval(h):
    return x_plus(h), math.sqrt(1.0 + 4.0 * h) - 1.0


def _python_exterior_moments(h):
    """The closed forms on Python floats, with scipy's K and E: the oracle of the compiled ones."""
    x_plus(h)
    r = math.sqrt(1.0 + 4.0 * h)
    s = 4.0 * h / (r + 1.0)
    a2, c2 = 2.0 + s, 2.0 * r
    m = a2 / c2
    s0 = float(ellipkm1(s / c2))
    s1 = (s0 - float(ellipe(m))) / m
    s2 = (2.0 * (1.0 + m) * s1 - s0) / (3.0 * m)
    s3 = (4.0 * (1.0 + m) * s2 - 3.0 * s1) / (5.0 * m)
    w = 2.0 * SQRT2 * a2 * math.sqrt(c2)
    return w * (s1 - m * s2), w * a2 * (s1 - (1.0 + m) * s2 + m * s3), 2.0 * w * a2 / c2 * (s0 - 2.0 * s1 + s2)


def test_compiled_integrands_equal_the_python_ones_pointwise():
    rng = np.random.default_rng(18)
    half_pi = 0.5 * math.pi
    thetas = [0.0, -0.0, half_pi, -half_pi, *rng.uniform(-half_pi, half_pi, 200).tolist()]
    energies = [1e-9, 1e-4, 3.0, *np.exp(rng.uniform(math.log(1e-9), math.log(10.0), 20)).tolist()]
    kernel = native._kernel()
    for name, python in PYTHON_INTEGRANDS.items():
        compiled = getattr(kernel, name)
        for i in _INDICES[name]:
            for h in energies:
                a, s = _oval(h)
                for th in thetas:
                    want = python(th, a, s, i)
                    got = compiled(th, (ctypes.c_double * 3)(a, s, float(i)))
                    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (name, th, h, i)


def _scipy_oval_quad(integrand, h, i, cfg, label):
    """integrals._oval_quad by scipy.integrate.quad on the Python integrand, with quad's message in ToleranceNotMet."""
    cfg = cfg or el.QuadratureConfig()
    out = quad(PYTHON_INTEGRANDS[integrand], -0.5 * math.pi, 0.5 * math.pi, args=(*_oval(h), float(i)),
               epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions, points=[0.0], full_output=1)
    if len(out) > 3:  # QUADPACK gave up: message appended
        raise el.ToleranceNotMet(f"{label} at h={h}: {out[3]}", value=out[0], err=out[1])
    return out[0], out[1]


def _moments(grid, cfg):
    """Every moment on grid under cfg: (value, err), or the ToleranceNotMet's (message, value, err)."""
    results = []
    for h in grid:
        for name in ("I0", "I1", "I2", "I0p", "I2p", "I4p", "I0pp"):
            try:
                results.append(moment(name, h, cfg))
            except el.ToleranceNotMet as exc:
                results.append((str(exc), exc.value, exc.err))
    return results


@pytest.mark.parametrize(
    "cfg",
    [None, el.QuadratureConfig(max_subdivisions=2), TIGHT_QUAD, el.QuadratureConfig(1e-16, 1e-16, 7)],
    ids=["default", "starved", "tight", "1e-16-7"],
)
def test_compiled_quadpack_equals_scipy_quad(cfg, monkeypatch):
    """On pf-check's grid every (value, err) and every ToleranceNotMet message is scipy's, bit for bit."""
    grid = np.geomspace(1e-4, 3.0, 50).tolist()
    compiled = _moments(grid, cfg)
    monkeypatch.setattr(integrals, "_oval_quad", _scipy_oval_quad)
    assert [tuple(map(repr, r)) for r in compiled] == [tuple(map(repr, r)) for r in _moments(grid, cfg)]
    failures = sum(len(result) == 3 for result in compiled)
    assert (failures > 0) == (cfg is not None and cfg is not TIGHT_QUAD)


def test_one_subinterval_is_quads_value_error():
    one = el.QuadratureConfig(max_subdivisions=1)
    with pytest.raises(ValueError) as compiled:
        el.integral_xiy(0.5, 0, one)
    with pytest.raises(ValueError) as scipy:
        _scipy_oval_quad("xiy", 0.5, 0, one, "I_0")
    assert str(compiled.value) == str(scipy.value) == "Number of break points (1) must be less than subinterval limit (1)"


def test_a_large_subdivision_limit_gives_quads_result():
    cfg = el.QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=100_000)
    for h in (1e-4, 0.05, 3.0):
        for name, i in (("xiy", 2), ("i0pp", 0)):
            try:
                got = integrals._oval_quad(name, h, i, cfg, "I")
            except el.ToleranceNotMet as exc:
                got = (str(exc), exc.value, exc.err)
            try:
                want = _scipy_oval_quad(name, h, i, cfg, "I")
            except el.ToleranceNotMet as exc:
                want = (str(exc), exc.value, exc.err)
            assert repr(got) == repr(want), (name, h)


def test_a_workspace_that_cannot_be_allocated_is_a_memory_error():
    # 2**62 subintervals of 48 bytes overflow the allocation's size, so nothing is allocated
    with pytest.raises(MemoryError, match="4611686018427387904 subintervals"):
        el.integral_xiy(0.5, 0, el.QuadratureConfig(max_subdivisions=2**62))


def test_k_and_e_are_scipys():
    """The library's ellpk and ellpe are scipy.special's ellipkm1 and ellipe, bit for bit."""
    rng = np.random.default_rng(19)
    h = np.geomspace(1e-12, 1e3, 2_000)
    r = np.sqrt(1.0 + 4.0 * h)
    s = 4.0 * h / (r + 1.0)
    args = np.concatenate([
        [0.0, 1e-300, 5e-324, 1.0, 2.0**-53, np.nextafter(2.0**-53, 1.0), 0.5],
        rng.uniform(0.0, 1.0, 50_000),
        np.exp(rng.uniform(math.log(1e-320), 0.0, 50_000)),
        s / (2.0 * r),  # the moments' own arguments: 1 - m for K and m for E
        (2.0 + s) / (2.0 * r),
    ])
    kernel = native._kernel()
    k = np.array([kernel.ellpk(x) for x in args.tolist()])
    e = np.array([kernel.ellpe(x) for x in args.tolist()])
    assert np.array_equal(k.view(np.int64), ellipkm1(args).view(np.int64))
    assert np.array_equal(e.view(np.int64), ellipe(args).view(np.int64))


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


_TRIPLE_NAMES = ("I0", "I1", "I2", "I0p", "I2p", "I4p", "I0pp")


@pytest.mark.parametrize("name", _TRIPLE_NAMES)
def test_moment_is_the_triple_entry_of_its_name(name, quad_cfg, quadpack_calls):
    h = 0.2
    t = el.integral_triple(h, quad_cfg)
    assert len(quadpack_calls) == 7
    value, err = moment(name, h, quad_cfg)
    assert len(quadpack_calls) == 8
    assert (value, err) == (getattr(t, name), t.err[name])
    assert tuple(t.err) == _TRIPLE_NAMES


def test_closed_form_moments_match_tight_quadpack():
    for h in np.geomspace(1e-4, 3.0, 40).tolist():
        oracle = (
            el.integral_xiy(h, 0, TIGHT_QUAD)[0],
            el.integral_xiy(h, 2, TIGHT_QUAD)[0],
            el.integral_xi_over_y(h, 4, TIGHT_QUAD)[0],
        )
        closed = [KAPPA * v for v in moments("exterior", h)]
        npt.assert_allclose(closed, oracle, rtol=1e-12, atol=0.0, err_msg=f"h={h}")


def test_compiled_closed_forms_equal_the_python_ones_bit_for_bit():
    """KAPPA times the library's exterior moments (doubling is exact) is the Python oracle above, bit for bit."""
    rng = np.random.default_rng(24)
    random = np.exp(rng.uniform(math.log(1e-8), math.log(30.0), 10_000)).tolist()
    energies = [0.2, 1e-300, 5e-324, 1e-8, 30.0, 1e300, *random]
    for h in energies:
        compiled, python = [KAPPA * v for v in moments("exterior", h)], _python_exterior_moments(h)
        assert [v.hex() for v in compiled] == [v.hex() for v in python], h


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324, -0.1])
def test_closed_forms_raise_as_the_python_ones_do(h):
    with pytest.raises(ValueError) as compiled:
        el.m1(h, 1.0, 0.0, backend="quadrature")
    with pytest.raises(ValueError) as python:
        _python_exterior_moments(h)
    assert compiled.type is python.type
    assert str(compiled.value) == str(python.value)


def test_quadrature_mk_is_the_kappa_divided_quadpack_combination():
    spec = el.MelnikovSpec(k=2, lam1k=1.0, lam4k=0.5, lam2=(0.0, 1.0), lam3=(0.0, 3.0))
    assert spec.cross_coefficient == 1.0
    for h in (1e-3, 0.05, 0.3, 2.0):
        i0, i2, i4p = (moment(name, h, None)[0] / KAPPA for name in ("I0", "I2", "I4p"))
        expected = spec.lam1k * i0 + spec.lam4k * i2 + spec.cross_coefficient * i4p
        assert abs(el.mk(h, spec, backend="quadrature") - expected) <= 1e-9 * abs(expected)


@pytest.mark.parametrize(
    "h,error",
    [(math.nan, ValueError), (math.inf, ValueError), (0.0, el.NonPositiveEnergy), (-0.1, el.NonPositiveEnergy)],
    ids=["nan", "inf", "zero", "negative"],
)
def test_closed_form_rejects_the_energies_quadpack_rejects(h, error):
    with pytest.raises(ValueError) as closed:
        el.m1(h, 1.0, 0.0, backend="quadrature")
    with pytest.raises(ValueError) as quadpack:
        el.integral_xiy(h, 0)
    assert closed.type is quadpack.type is error


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


def test_a_default_quadrature_builds_no_config(monkeypatch):
    """cfg None stands for the one module default, built at import, not for a config per QUADPACK call."""
    assert integrals._DEFAULT_CONFIG == el.QuadratureConfig()

    def built(*args, **kwargs):
        raise AssertionError("a QuadratureConfig was built for a default quadrature")

    monkeypatch.setattr(integrals.QuadratureConfig, "__post_init__", built)
    assert el.integral_xiy(0.2, 0) == el.integral_xiy(0.2, 0, integrals._DEFAULT_CONFIG)
    assert moment("I4p", 0.3, None) == el.integral_xi_over_y(0.3, 4, integrals._DEFAULT_CONFIG)


def test_config_validation():
    with pytest.raises(ValueError):
        el.QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        el.QuadratureConfig(max_subdivisions=0)
    for field in ("abs_tol", "rel_tol"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                el.QuadratureConfig(**{field: value})

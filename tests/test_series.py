"""Structure relations, expansions, and the analytic-constant fit.

The log-part coefficients come from exact rational recurrences; the fixed
classical table is kept side by side and its two deviating entries are
asserted AS deviations (the quadrature decides which value is right — see
the misprint report test below).
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

import eightloop as el
from conftest import moments
from eightloop import native, series
from eightloop.series import (
    A1,
    A2,
    B2,
    KAPPA,
    MOMENTS,
    TABULATED_I4P_H2,
    TABULATED_LOG_COEFFS,
    _poly_eval,
    fit_series_tail,
    log_coefficients,
)

F = Fraction


def test_log_recurrence_first_coefficients():
    assert log_coefficients("I0", 5) == [0, F(-1), F(3, 8), F(-35, 64), F(1155, 1024), F(-45045, 16384)]
    assert log_coefficients("I2", 5) == [0, 0, F(1, 2), F(-5, 8), F(315, 256), F(-3003, 1024)]
    assert log_coefficients("I4p", 5) == [0, 0, F(-3, 2), F(35, 8), F(-3465, 256), F(45045, 1024)]


def test_tabulated_values_kept_verbatim_with_known_deviations():
    # the classical table agrees with the recurrence except at two entries
    assert TABULATED_LOG_COEFFS["I0"] == log_coefficients("I0", 3)
    derived2 = log_coefficients("I2", 4)
    derived4 = log_coefficients("I4p", 4)
    assert TABULATED_LOG_COEFFS["I2"][:4] == derived2[:4]
    assert TABULATED_LOG_COEFFS["I4p"][:4] == derived4[:4]
    # the deviations: printed -315/256 vs +315/256, printed -471/256 vs -3465/256
    assert TABULATED_LOG_COEFFS["I2"][4] == -derived2[4]
    assert TABULATED_LOG_COEFFS["I4p"][4] == F(-471, 256) != derived4[4]


def _extract_log_coeffs(vals, hs, log_pows, ana_pows):
    """Least-squares split of sampled data into h^p ln h and h^p parts.

    A free constant column is essential: the normalization constant carries
    a small measurement bias (a few parts in 1e9) and without the constant
    that bias aliases onto the nearly collinear high-order columns.  Columns
    are normalized before solving to keep the system well scaled.
    """
    lnh = np.log(hs)
    cols = [np.ones_like(hs)]
    cols += [hs**p * lnh for p in log_pows]
    cols += [hs**p for p in ana_pows]
    design = np.column_stack(cols)
    norms = np.linalg.norm(design, axis=0)
    coef, *_ = np.linalg.lstsq(design / norms, vals, rcond=None)
    coef = coef / norms
    n_log = len(log_pows)
    return dict(zip(log_pows, coef[1 : 1 + n_log]))


def test_quadrature_arbitrates_the_h4_coefficients():
    """Fit the h^4 ln h coefficients from quadrature on a small-h window.

    The disputed entries: the recurrence gives +315/256 for the h^4 ln h
    coefficient of I2 and -3465/256 for I4', while the fixed table prints
    -315/256 and -471/256.  The window, basis, and tolerances below are
    pinned; the fit is deterministic and lands decisively on the
    recurrence values.
    """
    tight = el.QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=200)
    kappa = el.measure_kappa(tight)
    hs = np.geomspace(5e-4, 2e-2, 28)
    report = {}
    for which, i in (("I2", 2), ("I4p", 4)):
        exact = el.integral_xiy if which == "I2" else el.integral_xi_over_y
        vals = np.array([exact(h, i, tight)[0] / kappa for h in hs])
        # the constant column absorbs the limit value; take out the common
        # linear analytic term so the h^1 column carries only small residue
        fit = _extract_log_coeffs(vals - 4.0 * hs, hs, (2, 3, 4, 5), (1, 2, 3, 4, 5))
        report[which] = fit
    # the low-order log coefficients are undisputed and anchor the fit
    npt.assert_allclose(report["I2"][2], 0.5, rtol=5e-3)
    npt.assert_allclose(report["I2"][3], -5 / 8, rtol=5e-3)
    npt.assert_allclose(report["I4p"][2], -1.5, rtol=5e-3)
    npt.assert_allclose(report["I4p"][3], 35 / 8, rtol=5e-3)
    # h^4 ln h of I2: recurrence says +315/256 = +1.2305, table says -1.2305
    assert abs(report["I2"][4] - 315 / 256) < 0.6
    assert abs(report["I2"][4] - (-315 / 256)) > 1.2
    # h^4 ln h of I4p: recurrence says -3465/256 = -13.535, table says -1.8398
    assert abs(report["I4p"][4] - (-3465 / 256)) < 3.0
    assert abs(report["I4p"][4] - (-471 / 256)) > 8.0


def _python_series_eval(h):
    """The truncated series on Python floats: the oracle of the compiled one."""
    if not 0.0 <= h <= series.TRUST_REGION_MAX:
        raise el.OutOfTrustRegion(f"series trusted only for 0 <= h <= {series.TRUST_REGION_MAX}, got {h}")
    if h == 0.0:
        i0, i2 = float(series.I0_CONST), float(series.I2_CONST)
    else:
        ln = math.log(h)
        analytic0 = (float(series.I0_CONST), A1, A2)
        analytic2 = (float(series.I2_CONST), float(series.LINEAR_COEFF), B2)
        i0 = _poly_eval(series._LOG_FLOATS["I0"], h) * ln + _poly_eval(analytic0, h)
        i2 = _poly_eval(series._LOG_FLOATS["I2"], h) * ln + _poly_eval(analytic2, h)
    return i0, i2, (4.0 * h * i0 + 5.0 * i2) / (4.0 * h + 1.0)


def test_compiled_series_equals_the_python_one_bit_for_bit():
    """The library's series moments are the Python oracle above, bit for bit."""
    rng = np.random.default_rng(24)
    energies = [0.0, -0.0, 0.2, 1e-300, 5e-324, math.nextafter(0.2, 0.0), *rng.uniform(0.0, 0.2, 10_000).tolist(),
                *np.exp(rng.uniform(math.log(1e-300), math.log(0.2), 1_000)).tolist()]
    for h in energies:
        compiled, python = moments("series", h), _python_series_eval(h)
        assert [v.hex() for v in compiled] == [v.hex() for v in python], h


def test_the_compiled_series_coefficients_are_the_exact_floats():
    """The library's source holds the log and analytic coefficients that evaluation sums, as exact literals."""
    source = native._kernel_source()
    for name, values in (
        ("LOG_I0", series._LOG_FLOATS["I0"]),
        ("LOG_I2", series._LOG_FLOATS["I2"]),
        ("ANALYTIC_I0", (float(series.I0_CONST), A1, A2)),
        ("ANALYTIC_I2", (float(series.I2_CONST), float(series.LINEAR_COEFF), B2)),
    ):
        assert f"static const double {name}[] = {{{', '.join(v.hex() for v in values)}}};" in source


def test_series_eval_limits():
    i0, _, i4p = moments("series", 0.0)
    assert i0 == 4.0 / 3.0
    assert i4p == 16.0 / 3.0
    npt.assert_allclose(moments("series", 1e-12)[1], 16.0 / 15.0, rtol=1e-9)


def test_series_eval_trust_region():
    for h in (0.21, -0.05, math.nan):
        with pytest.raises(el.OutOfTrustRegion):
            el.m1(h, 1.0, 0.0, backend="series")


@pytest.mark.parametrize("h", [-1e-300, -0.05, math.nextafter(0.2, 1.0), 0.21, math.nan, math.inf, -math.inf])
def test_series_eval_refuses_as_the_python_series_does(h):
    with pytest.raises(el.OutOfTrustRegion) as compiled:
        el.m1(h, 1.0, 0.0, backend="series")
    with pytest.raises(el.OutOfTrustRegion) as python:
        _python_series_eval(h)
    assert str(compiled.value) == str(python.value) == f"series trusted only for 0 <= h <= 0.2, got {h}"


@pytest.mark.parametrize("which,i,kind", [("I0", 0, "xiy"), ("I2", 2, "xiy"), ("I4p", 4, "xi_over_y")])
def test_series_matches_quadrature(which, i, kind, quad_cfg):
    fetch = el.integral_xiy if kind == "xiy" else el.integral_xi_over_y
    for h in (0.01, 0.03, 0.1):
        q = fetch(h, i, quad_cfg)[0] / KAPPA
        s = moments("series", h)[MOMENTS.index(which)]
        assert abs(s - q) / abs(q) < 1e-3


def test_I4p_series_close_at_h01(quad_cfg):
    q = el.integral_xi_over_y(0.1, 4, quad_cfg)[0] / KAPPA
    s = moments("series", 0.1)[2]
    assert abs(s - q) / q < 5e-4


# The reduced vanishing-cycle series are the log-part polynomials P(h).


def test_tilde_series_printed_truncation():
    # third-order truncation: -0.1 + 3/8*0.01 - 35/64*0.001
    npt.assert_allclose(_poly_eval(log_coefficients("I0", 3), 0.1), -0.09679688, atol=5e-9)
    assert _poly_eval(log_coefficients("I2", 10), 0.0) == 0.0


def test_tilde_simple_and_double_zero_structure():
    def tilde(which, h):
        return _poly_eval(log_coefficients(which, 10), h)

    for h in (1e-5, 1e-7):
        npt.assert_allclose(tilde("I0", h) / h, -1.0, rtol=1e-3)
        combo = 5.0 * tilde("I2", h) - tilde("I4p", h)
        npt.assert_allclose(combo / h**2, 4.0, rtol=1e-3)
    # analytic through 0: the area series changes sign with h
    assert tilde("I0", -0.1) > 0


# ---------------------------------------------------------------------------
# Picard-Fuchs residuals
# ---------------------------------------------------------------------------


def test_pf_residuals_tight_at_moderate_h(quad_cfg):
    r = el.pf_residuals(el.integral_triple(1.0, quad_cfg))
    assert max(r.r1, r.r2, r.r3, r.r4) < 1e-8


def test_pf_residuals_near_loop(quad_cfg):
    r = el.pf_residuals(el.integral_triple(0.05, quad_cfg))
    assert max(r.r1, r.r2, r.r3, r.r4) < 1e-7


def test_pf_residuals_detect_injected_fault(quad_cfg):
    t = el.integral_triple(1.0, quad_cfg)
    bad = dataclasses.replace(t, I2=t.I2 * (1 + 1e-3))
    r = el.pf_residuals(bad)
    assert r.r2 > 1e-4 and r.r3 > 1e-4
    # the relations not involving I2 stay clean
    assert r.r4 < 1e-8


# ---------------------------------------------------------------------------
# Constant fitting
# ---------------------------------------------------------------------------


def _synthetic_samples(a1, a2, b2, kappa):
    """(hs, I0, I2): full-contour moments built from the series with the given constants."""
    hs = np.geomspace(0.01, 0.15, 24)
    l0 = np.array([_poly_eval(log_coefficients("I0", 10), h) for h in hs])
    l2 = np.array([_poly_eval(log_coefficients("I2", 10), h) for h in hs])
    i0 = kappa * (l0 * np.log(hs) + 4.0 / 3.0 + a1 * hs + a2 * hs * hs)
    i2 = kappa * (l2 * np.log(hs) + 16.0 / 15.0 + 4.0 * hs + b2 * hs * hs)
    return hs, i0, i2


def _quadrature_samples(hs, cfg):
    """(hs, I0, I2): full-contour moments by quadrature."""
    return hs, [el.integral_xiy(h, 0, cfg)[0] for h in hs], [el.integral_xiy(h, 2, cfg)[0] for h in hs]


def test_fit_recovers_synthetic_constants():
    kappa = el.measure_kappa()
    fc = el.fit_constants(*_synthetic_samples(3.7, 0.02, -0.13, kappa), kappa, 8)
    npt.assert_allclose(fc.a1, 3.7, atol=1e-6)
    npt.assert_allclose(fc.a2, 0.02, atol=1e-6)
    npt.assert_allclose(fc.b2, -0.13, atol=1e-6)


def _numpy_fit_series_tail(hs, residual_values, degree):
    """The oracle of fit_series_tail: numpy's chebvander, cond, lstsq and Chebyshev.convert."""
    hs = np.asarray(hs, dtype=float)
    g = np.asarray(residual_values, dtype=float) / hs
    lo, hi = hs.min(), hs.max()
    design = npcheb.chebvander(2.0 * (hs - lo) / (hi - lo) - 1.0, degree)
    cond = np.linalg.cond(design)
    if cond * cond > 1e10:
        raise el.IllConditionedFit(f"normal-system condition {cond * cond:.2e} exceeds 1e10")
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - g) ** 2)))
    power = npcheb.Chebyshev(coef, domain=[lo, hi]).convert(kind=np.polynomial.Polynomial)
    return power.coef, rms


def _fit_samples(kind, quad_cfg):
    if kind == "synthetic":
        return _synthetic_samples(3.7, 0.02, -0.13, KAPPA)
    return _quadrature_samples(np.geomspace(0.01, 0.15, 24), quad_cfg)


@pytest.mark.parametrize("kind", ["synthetic", "quadrature"])
def test_fit_series_tail_agrees_with_numpy(kind, quad_cfg):
    hs, i0, i2 = _fit_samples(kind, quad_cfg)
    lo, hi = min(hs), max(hs)
    logs = {which: np.array([_poly_eval(log_coefficients(which, 10), h) for h in hs]) * np.log(hs) for which in MOMENTS}
    # the smooth tails fit_constants fits: I0 and I2 less their known terms
    tails = (
        np.asarray(i0) / KAPPA - logs["I0"] - 4.0 / 3.0,
        np.asarray(i2) / KAPPA - logs["I2"] - 16.0 / 15.0 - 4.0 * hs,
    )
    for remainder in tails:
        g = (remainder / hs).tolist()
        coeffs, rms = fit_series_tail(hs, remainder, 8)
        ref, ref_rms = _numpy_fit_series_tail(hs, remainder, 8)
        # the same design, and its condition from R's singular values
        design = [series._chebvander(2.0 * (h - lo) / (hi - lo) - 1.0, 8) for h in hs]
        assert design == npcheb.chebvander(2.0 * (hs - lo) / (hi - lo) - 1.0, 8).tolist()
        cond = series._condition(series._householder(design, g)[0])
        npt.assert_allclose(cond, np.linalg.cond(np.array(design)), rtol=1e-6)
        # the same fitted remainder on the window; its power coefficients of
        # high order differ more, as the conversion from [-1, 1] amplifies
        # the last bits of the Chebyshev coefficients by ~(2/(hi - lo))^n
        fitted, ref_fitted = (nppoly.polyval(hs, np.concatenate(([0.0], c))) for c in (coeffs, ref))
        npt.assert_allclose(fitted, ref_fitted, rtol=0.0, atol=1e-12 * np.max(np.abs(remainder)))
        assert abs(rms - ref_rms) < 1e-14
        npt.assert_allclose(coeffs[0], ref[0], rtol=0.0, atol=1e-12 * np.max(np.abs(g)))


@pytest.mark.parametrize("kind", ["synthetic", "quadrature"])
def test_fit_constants_agree_with_the_numpy_fit(kind, quad_cfg, monkeypatch):
    samples = _fit_samples(kind, quad_cfg)
    fc = el.fit_constants(*samples, KAPPA, 8)
    monkeypatch.setattr(series, "fit_series_tail", _numpy_fit_series_tail)
    ref = el.fit_constants(*samples, KAPPA, 8)
    npt.assert_allclose(fc.a1, ref.a1, rtol=1e-12)
    npt.assert_allclose(fc.b2, ref.b2, rtol=1e-12)
    npt.assert_allclose(fc.a2, ref.a2, rtol=1e-8)  # the h^2 entry of the I0 tail: ~3e-10 measured
    assert abs(fc.residual - ref.residual) < 1e-14 and fc.window == ref.window and fc.kappa == ref.kappa


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("degree", [0, 1, 2, 8])
def test_chebyshev_to_power_is_numpys_convert_bit_for_bit(seed, degree):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=degree + 1) * 10.0 ** rng.uniform(-8, 2, size=degree + 1)
    lo, hi = sorted(rng.uniform(1e-3, 1.0, size=2))
    ref = npcheb.Chebyshev(coef, domain=[lo, hi]).convert(kind=np.polynomial.Polynomial).coef
    assert series._chebyshev_to_power(coef.tolist(), (-hi - lo) / (hi - lo), 2.0 / (hi - lo)) == ref.tolist()


@pytest.mark.parametrize(
    "hs",
    [np.geomspace(0.01, 0.15, 8), np.full(24, 0.05)],
    ids=["fewer-samples-than-coefficients", "one-energy"],
)
def test_a_fit_the_samples_cannot_determine_is_ill_conditioned(hs):
    with pytest.raises(el.IllConditionedFit, match="condition inf"):
        fit_series_tail(hs, np.sin(10.0 * hs), 8)


@pytest.mark.parametrize("degree", [0, -1])
def test_fit_constants_needs_an_h2_coefficient(degree):
    with pytest.raises(ValueError, match="degree"):
        el.fit_constants(*_synthetic_samples(3.7, 0.02, -0.13, KAPPA), KAPPA, degree)


def test_fit_on_real_samples(consts):
    assert consts.residual < 1e-6
    assert consts.window == (0.01, 0.15)


def test_fit_measures_the_exact_constants(consts):
    # the closed forms the series evaluates with, against their fitted
    # measurement: a typo in any of them fails here
    npt.assert_allclose(consts.a1, A1, rtol=1e-6)
    npt.assert_allclose(consts.a2, A2, rtol=5e-3)
    npt.assert_allclose(consts.b2, B2, rtol=1e-3)
    npt.assert_allclose(consts.kappa, KAPPA, rtol=1e-8)


def test_fit_requires_enough_samples(quad_cfg):
    samples = _quadrature_samples(np.geomspace(0.02, 0.1, 5), quad_cfg)
    with pytest.raises(ValueError):
        el.fit_constants(*samples, KAPPA, 8)


def test_overparameterized_fit_is_rejected(quad_cfg):
    samples = _quadrature_samples(np.geomspace(0.01, 0.15, 24), quad_cfg)
    with pytest.raises(el.IllConditionedFit):
        el.fit_constants(*samples, KAPPA, degree=20)


def test_default_fit_costs_two_quadpack_calls_per_energy(quadpack_calls):
    el.default_constants.__wrapped__()
    assert len(quadpack_calls) == 2 * 24 + 2  # I0 and I2 at 24 energies, kappa's two I0


def test_I4p_quadratic_coefficient_consistency(quad_cfg, consts):
    """The fitted I4p h^2 analytic coefficient vs its two candidate forms.

    The transfer relation (4h+1) I4' = 4h I0 + 5 I2 forces 4 a1 + 5 b2 - 16;
    the classical table prints 4 a1 + 5 b2 - 304/3 instead.  The measured
    value decides (and refutes the printed constant by ~85).
    """
    hs = np.geomspace(0.01, 0.15, 24)
    vals = np.array([el.integral_xi_over_y(h, 4, quad_cfg)[0] / consts.kappa for h in hs])
    logs = np.array([_poly_eval(log_coefficients("I4p", 10), h) for h in hs])
    remainder = vals - logs * np.log(hs) - 16.0 / 3.0 - 4.0 * hs
    coeffs, _ = fit_series_tail(hs, remainder, 8)
    derived_form = 4.0 * consts.a1 + 5.0 * consts.b2 - 16.0
    printed_form = TABULATED_I4P_H2(consts.a1, consts.b2)
    assert abs(coeffs[1] - derived_form) < 1e-4
    assert abs(coeffs[1] - printed_form) > 80.0


def test_limit_constants_extrapolation(quad_cfg):
    lims = el.limit_constants(quad_cfg)
    kappa = el.measure_kappa(quad_cfg)
    npt.assert_allclose(lims["I0"] / kappa, 4.0 / 3.0, rtol=1e-5)
    npt.assert_allclose(lims["I2"] / kappa, 16.0 / 15.0, rtol=1e-5)
    npt.assert_allclose(lims["I4p"] / kappa, 16.0 / 3.0, rtol=1e-5)

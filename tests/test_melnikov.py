"""Bifurcation-function assembly, leading coefficients, and zero counting."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import eightloop as el


SPEC_51 = el.MelnikovSpec(k=2, lam1k=0.0, lam4k=5.0, lam2=(0.0, 1.0), lam3=(0.0, -3.0))


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        el.MelnikovSpec(k=0, lam1k=1.0, lam4k=0.0)
    # perturbation coefficient lists are indexed from order 1; a nonzero
    # order-0 entry has no meaning in the arc family and is rejected
    with pytest.raises(ValueError):
        el.MelnikovSpec(k=2, lam1k=0.0, lam4k=0.0, lam2=(1.0,), lam3=(0.0, 1.0))
    with pytest.raises(ValueError):
        el.MelnikovSpec(k=2, lam1k=0.0, lam4k=0.0, lam2=(0.0, 1.0), lam3=(1.0,))


def test_cross_coefficient_is_the_order_k_convolution():
    single = el.MelnikovSpec(k=2, lam1k=0.0, lam4k=0.0, lam2=(0.0, 1.0), lam3=(0.0, 1.0))
    npt.assert_allclose(single.cross_coefficient, 1.0 / 3.0)
    scaled = el.MelnikovSpec(k=2, lam1k=0.0, lam4k=0.0, lam2=(0.0, 2.0), lam3=(0.0, 7.0))
    npt.assert_allclose(scaled.cross_coefficient, 14.0 / 3.0)
    # k=3 pairs the (1,2) and (2,1) index combinations
    third = el.MelnikovSpec(
        k=3, lam1k=0.0, lam4k=0.0, lam2=(0.0, 1.0, 4.0), lam3=(0.0, 5.0, 9.0)
    )
    npt.assert_allclose(third.cross_coefficient, (1.0 * 9.0 + 4.0 * 5.0) / 3.0)
    npt.assert_allclose(SPEC_51.cross_coefficient, -1.0)
    # first-order specs have an empty convolution regardless of the lists
    first = el.MelnikovSpec(k=1, lam1k=1.0, lam4k=0.0, lam2=(0.0, 3.0), lam3=(0.0, 3.0))
    assert first.cross_coefficient == 0.0


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_m1_basis_directions(consts):
    for backend in ("series", "quadrature"):
        for h in (0.05, 0.1):
            npt.assert_allclose(
                el.m1(h, 1.0, 0.0, backend=backend),
                el.series_eval(h, consts)[0] if backend == "series"
                else el.integral_xiy(h, 0, None)[0] / consts.kappa,
                rtol=1e-12,
            )
    assert el.m1(0.1, 0.0, 0.0) == 0.0


def test_m1_small_h_limit():
    # at h -> 0+ the combination tends to (4/3) lam1 + (16/15) lam4
    val = el.m1(0.0, 2.0, -3.0, backend="series")
    npt.assert_allclose(val, 2.0 * 4.0 / 3.0 - 3.0 * 16.0 / 15.0, rtol=1e-12)


def test_mk_zero_spec_and_combination(consts):
    zero = el.MelnikovSpec(k=2, lam1k=0.0, lam4k=0.0)
    assert el.mk(0.1, zero) == 0.0
    # general spec equals the stated linear combination of the integrals
    spec = el.MelnikovSpec(k=2, lam1k=0.7, lam4k=-0.4, lam2=(0.0, 1.5), lam3=(0.0, 2.0))
    h = 0.08
    i0, i2, i4p = el.series_eval(h, consts)
    expect = 0.7 * i0 - 0.4 * i2 + spec.cross_coefficient * i4p
    npt.assert_allclose(el.mk(h, spec), expect, rtol=1e-12)


def test_five_minus_one_combination_leading_behavior():
    # 5*I2 - I4' = 16h + 4h^2 ln h + ... near the loop
    for h, rtol in ((0.01, 1e-3), (0.05, 1e-2)):
        model = 16.0 * h + 4.0 * h * h * math.log(h)
        npt.assert_allclose(el.mk(h, SPEC_51), model, rtol=rtol)


def test_mk_linearity_in_the_linear_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a1, a4, b1, b4 = rng.uniform(-1.0, 1.0, size=4)
        cross = tuple(rng.uniform(-1.0, 1.0, size=2))
        sa = el.MelnikovSpec(k=2, lam1k=a1, lam4k=a4, lam2=(0.0, cross[0]), lam3=(0.0, cross[1]))
        sb = el.MelnikovSpec(k=2, lam1k=b1, lam4k=b4)
        ssum = el.MelnikovSpec(
            k=2, lam1k=a1 + b1, lam4k=a4 + b4, lam2=(0.0, cross[0]), lam3=(0.0, cross[1])
        )
        h = float(rng.uniform(0.02, 0.15))
        lhs = el.mk(h, ssum)
        rhs = el.mk(h, sa) + el.mk(h, sb)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_backend_consistency_on_the_overlap_window():
    for h in np.linspace(0.02, 0.1, 5):
        for spec in (el.MelnikovSpec(k=1, lam1k=1.0, lam4k=1.0), SPEC_51):
            q = el.mk(float(h), spec, backend="quadrature")
            s = el.mk(float(h), spec, backend="series")
            assert abs(q - s) / abs(q) < 2e-3


def test_quadrature_mk_computes_I4p_only_when_the_cross_term_needs_it(consts, quadpack_calls):
    quadpack_calls.clear()
    el.m1(0.1, 1.0, 0.5, backend="quadrature", consts=consts)
    assert len(quadpack_calls) == 2  # I0, I2
    quadpack_calls.clear()
    el.mk(0.1, SPEC_51, backend="quadrature", consts=consts)
    assert len(quadpack_calls) == 3  # I0, I2, I4'


# ---------------------------------------------------------------------------
# Leading coefficients
# ---------------------------------------------------------------------------


def test_leading_coeffs_basis_and_combination(consts):
    lc = el.leading_coeffs(el.MelnikovSpec(k=1, lam1k=1.0, lam4k=0.0))
    npt.assert_allclose(lc.c0, 4.0 / 3.0)
    npt.assert_allclose(lc.c1, -1.0)
    npt.assert_allclose(lc.c2, consts.a1)
    lc51 = el.leading_coeffs(SPEC_51)
    npt.assert_allclose(lc51.c0, 0.0, atol=1e-14)
    npt.assert_allclose(lc51.c1, 0.0, atol=1e-14)
    npt.assert_allclose(lc51.c2, 16.0)
    zero = el.leading_coeffs(el.MelnikovSpec(k=3, lam1k=0.0, lam4k=0.0))
    assert (zero.c0, zero.c1, zero.c2) == (0.0, 0.0, 0.0)


def test_leading_implications_on_random_specs():
    """If c0 = 0 at first order then c1 != 0; if c0 = c1 = 0 at higher
    order then c2 != 0 (for specs whose function is not identically 0)."""
    rng = np.random.default_rng(12345)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        if k == 1:
            lam1 = float(rng.uniform(-1.0, 1.0))
            # solve c0 = 0 for lam4
            lam4 = -lam1 * (4.0 / 3.0) / (16.0 / 15.0)
            spec = el.MelnikovSpec(k=1, lam1k=lam1, lam4k=lam4)
            lc = el.leading_coeffs(spec)
            assert abs(lc.c0) < 1e-14
            if lam1 != 0.0:
                assert lc.c1 != 0.0
        else:
            # force c1 = 0 (lam1k = 0) and c0 = 0 (cross = -lam4k/5)
            lam4 = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
            cross_target = -lam4 / 5.0
            spec = el.MelnikovSpec(
                k=2, lam1k=0.0, lam4k=lam4, lam2=(0.0, 3.0 * cross_target), lam3=(0.0, 1.0)
            )
            lc = el.leading_coeffs(spec)
            assert abs(lc.c0) < 1e-12 and lc.c1 == 0.0
            npt.assert_allclose(lc.c2, 16.0 * lam4 / 5.0, rtol=1e-12)
            assert lc.c2 != 0.0


# ---------------------------------------------------------------------------
# Zero counting
# ---------------------------------------------------------------------------


def test_count_zeros_linear_function():
    zc = el.count_zeros(lambda h: h - 0.1, (1e-3, 1.0))
    assert zc.count == 1 and len(zc.zeros) == 1
    h_star, width = zc.zeros[0]
    assert abs(h_star - 0.1) <= max(width, 1e-9)
    assert width < 1e-9
    assert zc.interval == (1e-3, 1.0)
    assert zc.suspects == ()


def test_count_zeros_requires_reasonable_grid():
    with pytest.raises(ValueError):
        el.count_zeros(lambda h: h, (0.1, 0.2), grid_n=8)


def test_count_zeros_multiple_and_none():
    zc = el.count_zeros(lambda h: math.sin(20.0 * h), (0.1, 1.0), grid_n=200)
    # zeros of sin(20h) in (0.1, 1.0): h = n*pi/20 for n = 1..6
    assert zc.count == 6
    for (h_star, _), n in zip(zc.zeros, range(1, 7)):
        npt.assert_allclose(h_star, n * math.pi / 20.0, atol=1e-8)
    assert el.count_zeros(lambda h: 2.0 + h, (0.1, 1.0)).count == 0
    # brackets are disjoint and strictly inside
    lo, hi = zc.interval
    for h_star, width in zc.zeros:
        assert lo < h_star < hi
    centers = [z[0] for z in zc.zeros]
    widths = [z[1] for z in zc.zeros]
    for a, b, wa, wb in zip(centers, centers[1:], widths, widths[1:]):
        assert a + wa < b - wb


def test_count_zeros_scale_invariance():
    base = el.count_zeros(lambda h: (h - 0.3) * (h - 0.7), (0.1, 1.0))
    for alpha in (1e-6, 1e6, -2.0):
        scaled = el.count_zeros(lambda h: alpha * (h - 0.3) * (h - 0.7), (0.1, 1.0))
        assert scaled.count == base.count
        npt.assert_allclose([z[0] for z in scaled.zeros], [z[0] for z in base.zeros], rtol=1e-12)


def test_count_zeros_flags_even_multiplicity():
    zc = el.count_zeros(lambda h: (h - 0.15) ** 2, (0.05, 0.3), grid_n=200)
    assert zc.count == 0
    assert len(zc.suspects) >= 1
    assert any(abs(s - 0.15) < 5e-3 for s in zc.suspects)


def test_five_minus_one_has_no_zeros_on_the_oval_range():
    f = lambda h: el.mk(h, SPEC_51, backend="quadrature")
    zc = el.count_zeros(f, (1e-3, 0.3), grid_n=64)
    assert zc.count == 0
    assert zc.suspects == ()


def test_m1_with_vanishing_constant_term_has_at_most_one_zero():
    # lam4 = -5/4 lam1 kills the h -> 0 constant; the remaining function
    # crosses zero at most once on the oval range
    f = lambda h: el.m1(h, 1.0, -1.25, backend="quadrature")
    zc = el.count_zeros(f, (1e-3, 0.5), grid_n=64)
    assert zc.count in (0, 1)
    if zc.count == 1:
        h_star, width = zc.zeros[0]
        assert 1e-3 < h_star < 0.5 and width < 1e-9


def test_zero_count_json_shape():
    zc = el.count_zeros(lambda h: h - 0.5, (0.1, 1.0))
    doc = zc.to_json_dict()
    assert doc["count"] == 1
    assert doc["interval"] == [0.1, 1.0]
    assert isinstance(doc["zeros"][0], list) and len(doc["zeros"][0]) == 2

"""Bifurcation-function assembly, leading coefficients, and zero counting."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import eightloop as el
from conftest import moments
from eightloop import native
from eightloop.geometry import x_plus
from eightloop.melnikov import _bisect
from eightloop.series import A1, KAPPA, _check_trust_region


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


def test_cross_coefficient_sums_over_the_given_coefficients_only():
    """The same terms in the same order as the sum over all i + j = k, so equal bit for bit, at any k."""
    lam2, lam3 = (0.0, 0.3, -1.1, 0.7, 0.1), (0.0, 0.5, 0.25, -2.0)
    for k in range(1, 10):
        total = 0.0
        for i in range(k + 1):
            if i < len(lam2) and k - i < len(lam3):
                total += lam2[i] * lam3[k - i]
        assert el.MelnikovSpec(k=k, lam1k=0.0, lam4k=0.0, lam2=lam2, lam3=lam3).cross_coefficient == total / 3.0
    # an order far beyond both sequences has no term, and costs no loop over its k + 1 splits
    huge = el.MelnikovSpec(k=10**12, lam1k=1.0, lam4k=0.0, lam2=lam2, lam3=lam3)
    assert huge.cross_coefficient == 0.0 and not huge.vanishes


def test_the_cross_coefficient_is_cached_outside_the_fields():
    """c_k is computed once per spec, and asdict, ==, hash and pickling see the spec as before it was read."""
    spec = el.MelnikovSpec(k=3, lam1k=0.5, lam4k=-1.0, lam2=(0.0, 1.0, 4.0), lam3=(0.0, 5.0, 9.0))
    fresh = dataclasses.replace(spec)
    before = (dataclasses.asdict(spec), hash(spec), pickle.dumps(spec))
    value = spec.cross_coefficient
    assert spec.cross_coefficient is value  # the cached float, not a new computation
    assert (dataclasses.asdict(spec), hash(spec)) == before[:2]
    assert spec == fresh and fresh == spec
    assert pickle.loads(before[2]) == pickle.loads(pickle.dumps(spec)) == spec
    assert pickle.loads(pickle.dumps(spec)).cross_coefficient == value


@pytest.mark.parametrize(
    "lam2,lam3",
    [((0.0, 1.0), (0.0, 1.0)), ((0.0, 2.0), (0.0, 7.0)), ((0.0, 1.0, 4.0), (0.0, 5.0, 9.0)), ((0.0, 1.0), (0.0, -3.0)),
     ((0.0, 3.0), (0.0, 3.0)), ((0.0, 0.3, -1.1, 0.7, 0.1), (0.0, 0.5, 0.25, -2.0))],
)
def test_the_cached_cross_coefficient_is_a_fresh_computation(lam2, lam3):
    for k in range(1, 10):
        spec = el.MelnikovSpec(k=k, lam1k=0.0, lam4k=0.0, lam2=lam2, lam3=lam3)
        total = 0.0
        for i in range(k + 1):
            if i < len(lam2) and k - i < len(lam3):
                total += lam2[i] * lam3[k - i]
        assert spec.cross_coefficient == total / 3.0
        assert spec.cross_coefficient == total / 3.0  # read again, from the cache


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _python_mk(h, spec, backend):
    """mk's check of h and its combination on Python floats, over the library's moments, which the other
    modules check bit for bit against their Python oracles: the oracle of the compiled mk_value."""
    if backend == "series":
        _check_trust_region(h)
        i0, i2, i4p = moments("series", h)
    elif backend == "quadrature":
        x_plus(h)
        i0, i2, i4p = moments("exterior", h)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    total = 0.0
    for i in range(spec.k + 1):
        if i < len(spec.lam2) and spec.k - i < len(spec.lam3):
            total += spec.lam2[i] * spec.lam3[spec.k - i]
    return spec.lam1k * i0 + spec.lam4k * i2 + total / 3.0 * i4p


def _random_spec(rng):
    k = int(rng.integers(1, 4))
    return el.MelnikovSpec(
        k=k, lam1k=float(rng.uniform(-2.0, 2.0)), lam4k=float(rng.uniform(-2.0, 2.0)),
        lam2=(0.0, *rng.uniform(-2.0, 2.0, k).tolist()), lam3=(0.0, *rng.uniform(-2.0, 2.0, k).tolist()),
    )


@pytest.mark.parametrize("backend", ["quadrature", "series"])
def test_mk_equals_the_python_combination_bit_for_bit(backend):
    rng = np.random.default_rng(24)
    if backend == "quadrature":
        energies = [0.2, 1e-300, *np.exp(rng.uniform(math.log(1e-8), math.log(30.0), 10_000)).tolist()]
    else:
        energies = [0.0, 0.2, 1e-300, *rng.uniform(0.0, 0.2, 10_000).tolist()]
    specs = [_random_spec(rng) for _ in range(200)]
    assert {spec.k for spec in specs} == {1, 2, 3}
    for i, h in enumerate(energies):
        spec = specs[i % len(specs)]
        assert el.mk(h, spec, backend).hex() == _python_mk(h, spec, backend).hex(), (h, spec, backend)


@pytest.mark.parametrize(
    "backend,h,error",
    [("quadrature", h, error) for h, error in
     ((math.nan, ValueError), (math.inf, ValueError), (0.0, el.NonPositiveEnergy), (-0.1, el.NonPositiveEnergy))]
    + [("series", h, el.OutOfTrustRegion) for h in (-1e-300, -0.1, math.nextafter(0.2, 1.0), 30.0, math.nan)]
    + [(backend, 0.1, ValueError) for backend in ("QUADRATURE", "exterior", "", None, ["series"])],
)
def test_mk_raises_as_the_python_combination_does(backend, h, error):
    with pytest.raises(ValueError) as compiled:
        el.mk(h, SPEC_51, backend)
    with pytest.raises(ValueError) as python:
        _python_mk(h, SPEC_51, backend)
    assert compiled.type is python.type is error
    assert str(compiled.value) == str(python.value)


def test_m1_basis_directions():
    for backend in ("series", "quadrature"):
        for h in (0.05, 0.1):
            npt.assert_allclose(
                el.m1(h, 1.0, 0.0, backend=backend),
                moments("series", h)[0] if backend == "series"
                else el.integral_xiy(h, 0, None)[0] / KAPPA,
                rtol=1e-12,
            )
    assert el.m1(0.1, 0.0, 0.0, "series") == 0.0


def test_m1_small_h_limit():
    # at h -> 0+ the combination tends to (4/3) lam1 + (16/15) lam4
    val = el.m1(0.0, 2.0, -3.0, backend="series")
    npt.assert_allclose(val, 2.0 * 4.0 / 3.0 - 3.0 * 16.0 / 15.0, rtol=1e-12)


def test_mk_zero_spec_and_combination():
    zero = el.MelnikovSpec(k=2, lam1k=0.0, lam4k=0.0)
    assert el.mk(0.1, zero, "series") == 0.0
    # general spec equals the stated linear combination of the integrals
    spec = el.MelnikovSpec(k=2, lam1k=0.7, lam4k=-0.4, lam2=(0.0, 1.5), lam3=(0.0, 2.0))
    h = 0.08
    i0, i2, i4p = moments("series", h)
    expect = 0.7 * i0 - 0.4 * i2 + spec.cross_coefficient * i4p
    npt.assert_allclose(el.mk(h, spec, "series"), expect, rtol=1e-12)


def test_five_minus_one_combination_leading_behavior():
    # 5*I2 - I4' = 16h + 4h^2 ln h + ... near the loop
    for h, rtol in ((0.01, 1e-3), (0.05, 1e-2)):
        model = 16.0 * h + 4.0 * h * h * math.log(h)
        npt.assert_allclose(el.mk(h, SPEC_51, "series"), model, rtol=rtol)


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
        lhs = el.mk(h, ssum, "series")
        rhs = el.mk(h, sa, "series") + el.mk(h, sb, "series")
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_backend_consistency_on_the_overlap_window():
    for h in np.linspace(0.02, 0.1, 5):
        for spec in (el.MelnikovSpec(k=1, lam1k=1.0, lam4k=1.0), SPEC_51):
            q = el.mk(float(h), spec, backend="quadrature")
            s = el.mk(float(h), spec, backend="series")
            assert abs(q - s) / abs(q) < 2e-3


def test_quadrature_mk_takes_its_moments_from_one_closed_form_call(quadpack_calls, closed_form_calls):
    el.m1(0.1, 1.0, 0.5, backend="quadrature")
    assert closed_form_calls == [0.1]
    el.mk(0.2, SPEC_51, backend="quadrature")
    assert closed_form_calls == [0.1, 0.2]
    assert len(quadpack_calls) == 0


def test_mk_is_one_library_call_on_either_backend(monkeypatch, quadpack_calls):
    """mk evaluates the moments and their combination in one mk_value call, through neither moments wrapper."""
    kernel = native._kernel()
    calls = []
    for name in ("mk_value", "moments"):
        entry = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda *args, entry=entry, name=name: calls.append(name) or entry(*args))
    for backend in ("quadrature", "series"):
        el.mk(0.1, SPEC_51, backend)
    assert calls == ["mk_value", "mk_value"]
    assert len(quadpack_calls) == 0


# ---------------------------------------------------------------------------
# Leading coefficients
# ---------------------------------------------------------------------------


def test_leading_coeffs_basis_and_combination():
    lc = el.leading_coeffs(el.MelnikovSpec(k=1, lam1k=1.0, lam4k=0.0))
    npt.assert_allclose(lc.c0, 4.0 / 3.0)
    npt.assert_allclose(lc.c1, -1.0)
    assert lc.c2 == A1
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


@pytest.mark.parametrize("ends", [(), (0.1,), (1e-3, 0.1, 0.2)], ids=["none", "one", "three"])
def test_a_window_takes_exactly_two_ends(ends):
    """count_zeros' interval, find_limit_cycles' h_range and a sweep's h_window: a ValueError that names it."""
    calls = {
        "interval": lambda: el.count_zeros(lambda h: h - 0.05, ends),
        "h_range": lambda: el.find_limit_cycles((0.0, 0.0, 0.0, 0.0), ends),
        "h_window": lambda: el.cyclicity_sweep(el.arc_sampler_general, 1e-3, ends, 0, grid_n=24, refine_tol=1e-4),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as rejected:
            call()
        assert str(rejected.value) == f"{name} must have two ends, got {len(ends)}: {ends!r}"


def test_count_zeros_linear_function():
    zc = el.count_zeros(lambda h: h - 0.1, (1e-3, 1.0))
    assert zc.count == 1 and len(zc.zeros) == 1
    h_star, width = zc.zeros[0]
    assert abs(h_star - 0.1) <= max(width, 1e-9)
    assert width < 1e-9
    assert zc.interval == (1e-3, 1.0)
    assert zc.suspects == ()


_ON_GRID = 0.37  # a point of np.linspace(0, 1, 101)


@pytest.mark.parametrize(
    "f,count,n_suspects",
    [
        (lambda h: h - _ON_GRID, 1, 0),
        (lambda h: (h - _ON_GRID) ** 2, 0, 1),
        (lambda h: -((h - _ON_GRID) ** 2), 0, 1),
        (lambda h: 0.0, 0, 0),
    ],
    ids=["simple", "double", "negative-double", "identically-zero"],
)
def test_count_zeros_gives_a_sample_of_zero_no_sign(f, count, n_suspects):
    """A zero that lands on the grid counts as one off it would: a sample of exactly 0.0 has no sign."""
    assert np.linspace(0.0, 1.0, 101)[37] == _ON_GRID and f(_ON_GRID) == 0.0
    zc = el.count_zeros(f, (0.0, 1.0), grid_n=101)
    assert (zc.count, len(zc.suspects)) == (count, n_suspects)
    assert all(abs(h - _ON_GRID) < 1e-9 for h, _ in zc.zeros)
    assert all(s == _ON_GRID for s in zc.suspects)


@pytest.mark.parametrize(
    "scale,atol",
    [(1.0, 1e-9), (1e-150, 1e-9), (1e-170, 1e-9), (1e-320, 1e-3)],
    ids=["unit", "1e-150", "1e-170", "subnormal-1e-320"],
)
def test_count_zeros_finds_the_zero_of_a_tiny_function(scale, atol):
    """Signs are compared, not multiplied: at 1e-170 a product of two samples underflows to 0.

    At 1e-320 the values are subnormal and resolve h only to ~1e-3.
    """
    zc = el.count_zeros(lambda h: scale * (h - 0.3), (0.0, 1.0), grid_n=101)
    assert zc.count == 1 and zc.suspects == ()
    assert abs(zc.zeros[0][0] - 0.3) < atol


def test_count_zeros_brackets_a_zero_next_to_a_nan_sample():
    """A NaN sample carries no sign: its neighbours bracket the zero, and halving stops at the NaN."""
    zc = el.count_zeros(lambda h: math.nan if abs(h - 0.31) < 1e-12 else h - 0.305, (0.0, 1.0), grid_n=101)
    assert zc.count == 1 and zc.suspects == ()
    h_star, width = zc.zeros[0]
    assert h_star - 0.5 * width <= 0.305 <= h_star + 0.5 * width


def test_count_zeros_of_an_all_nan_function_warns_by_logging(caplog):
    """Every sample NaN: no numpy warning, count 0, and the NaN samples are logged."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zc = el.count_zeros(lambda h: math.nan, (0.0, 1.0), grid_n=64)
    assert zc.count == 0 and zc.suspects == ()
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "64 of 64" in caplog.records[0].getMessage()


def test_count_zeros_logs_a_nan_stretch_that_hides_two_zeros(caplog):
    """The zeros at 0.3 and 0.35 lie inside a NaN stretch: not counted, but the 8 NaN samples are logged."""
    zc = el.count_zeros(
        lambda h: math.nan if 0.285 < h < 0.365 else (h - 0.3) * (h - 0.35), (0.0, 1.0), grid_n=101
    )
    assert zc.count == 0
    assert [r.getMessage() for r in caplog.records if r.name == "eightloop.melnikov"] == [
        "count_zeros: 8 of 101 samples are NaN; zeros between them are not counted"
    ]


def test_bisect_keeps_a_zero_hit_at_the_midpoint():
    assert _bisect(lambda h: h - 0.5, 0.0, 1.0, -0.5, 0.5, 0.1) == (0.4375, 0.5, -0.0625, 0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-20])
def test_bisection_below_the_float_spacing_ends_at_adjacent_floats(tol):
    """A refine_tol no bracket of floats can reach stops the halving at the float spacing."""
    zc = el.count_zeros(lambda h: h - 0.3, (0.0, 1.0), grid_n=64, refine_tol=tol)
    assert zc.count == 1
    h_star, width = zc.zeros[0]
    assert 0.0 < width <= 2.0 * math.ulp(0.3)
    assert abs(h_star - 0.3) <= width


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
    assert set(doc) == {"interval", "zeros", "count", "suspects"}  # the samples stay out
    assert len(zc.samples) == 400 and all(type(v) is float for pair in zc.samples for v in pair)
    assert doc["count"] == 1
    assert doc["interval"] == [0.1, 1.0]
    assert isinstance(doc["zeros"][0], list) and len(doc["zeros"][0]) == 2

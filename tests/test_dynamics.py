"""Flow integration, the section return map, and cycle detection."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import eightloop as el
from eightloop import dynamics
from eightloop.dynamics import H_FLOOR
from eightloop.geometry import x_plus


LAM0 = (0.0, 0.0, 0.0, 0.0)


def _section_point(h):
    return (x_plus(h), 0.0)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def test_unperturbed_flow_conserves_energy(integ_cfg):
    traj = el.integrate(_section_point(1.0), LAM0, 20.0, integ_cfg)
    h_vals = [el.energy(s) for s in traj.states]
    assert max(abs(h - 1.0) for h in h_vals) < 1e-9


def test_centers_are_fixed_points(integ_cfg):
    for x0 in (1.0, -1.0):
        traj = el.integrate((x0, 0.0), LAM0, 10.0, integ_cfg)
        npt.assert_allclose(traj.states[-1], (x0, 0.0), atol=1e-10)


def test_dense_output_matches_nodes(integ_cfg):
    traj = el.integrate(_section_point(0.5), LAM0, 5.0, integ_cfg)
    for i in (0, len(traj.t) // 2, -1):
        npt.assert_allclose(traj.interpolant(traj.t[i]), traj.states[i], atol=1e-12)


def test_integrate_rejects_budget_overrun(integ_cfg):
    with pytest.raises(el.TimeCap):
        el.integrate(_section_point(0.5), LAM0, integ_cfg.max_time + 1.0, integ_cfg)


def test_energy_balance_along_perturbed_orbit(integ_cfg):
    """dH/dt = y*(l1 y + l2 x^2 + l3 xy + l4 x^2 y) integrates to the
    observed energy change."""
    lam = (0.02, 0.01, -0.03, 0.015)
    traj = el.integrate(_section_point(0.3), lam, 10.0, integ_cfg)
    ts = np.linspace(traj.t[0], traj.t[-1], 20001)
    xs, ys = np.array([traj.interpolant(t) for t in ts]).T
    power = ys * (lam[0] * ys + lam[1] * xs**2 + lam[2] * xs * ys + lam[3] * xs**2 * ys)
    gained = np.trapezoid(power, ts)
    observed = el.energy(traj.states[-1]) - el.energy(traj.states[0])
    npt.assert_allclose(gained, observed, rtol=1e-6, atol=1e-12)


def test_strong_damping_escapes_the_window(integ_cfg):
    with pytest.raises(el.EscapedRegion):
        el.return_map(40.0, (1.0, 0.0, 0.0, 0.0), integ_cfg)


# ---------------------------------------------------------------------------
# Return map
# ---------------------------------------------------------------------------


def test_return_map_is_identity_without_perturbation(integ_cfg):
    for h in (0.05, 0.3, 1.0):
        s = el.return_map(h, LAM0, integ_cfg)
        assert abs(s.h_out - s.h_in) < 1e-9
        assert s.crossings == 0
        assert s.flow_time > 0.0


def test_return_map_enforces_energy_floor(integ_cfg):
    with pytest.raises(ValueError):
        el.return_map(0.5 * H_FLOOR, LAM0, integ_cfg)
    s = el.return_map(H_FLOOR, LAM0, integ_cfg)  # equality allowed
    assert abs(s.h_out - s.h_in) < 1e-9


def test_displacement_vanishes_on_the_center_variety(integ_cfg):
    # lam2 alone preserves the symmetry (x,y,t) -> (x,-y,-t) composed with
    # itself: no limit cycles, the return map is the identity
    for h in (0.05, 0.3):
        assert abs(el.displacement(h, (0.0, 0.15, 0.0, 0.0), integ_cfg)) < 1e-8


def test_displacement_sign_follows_energy_pumping(integ_cfg):
    # positive linear damping feeds energy into the orbit
    assert el.displacement(0.2, (1e-4, 0.0, 0.0, 0.0), integ_cfg) > 0.0
    assert el.displacement(0.2, (-1e-4, 0.0, 0.0, 0.0), integ_cfg) < 0.0


def test_orbit_captured_by_the_inner_lobes_raises(integ_cfg):
    # an xy perturbation at low energy drives the orbit inside the loop
    # where it never meets the section again
    with pytest.raises(el.TimeCap):
        el.return_map(0.01, (0.0, 0.0, 0.2, 0.0), integ_cfg)


# ---------------------------------------------------------------------------
# Cycle detection
# ---------------------------------------------------------------------------


def test_no_cycles_without_perturbation(integ_cfg):
    assert el.find_limit_cycles(LAM0, (0.05, 0.4), grid_n=8, cfg=integ_cfg) == []


def test_no_cycles_for_pure_damping(integ_cfg):
    # displacement keeps one sign when the first-order function has no zero
    lam = (1e-3, 0.0, 0.0, 0.0)
    assert el.find_limit_cycles(lam, (0.05, 0.4), grid_n=8, cfg=integ_cfg) == []


def test_planted_cycle_is_found_and_classified(integ_cfg):
    # the lam4/lam1 ratio is chosen so the first-order function vanishes
    # at h = 0.2; the detected cycle sits within O(eps) of it
    eps = 1e-3
    lam = (eps, 0.0, 0.0, -1.3033884796 * eps)
    recs = el.find_limit_cycles(lam, (0.1, 0.3), grid_n=12, cfg=integ_cfg,
                                refine_tol=1e-3, epsilon=eps)
    assert len(recs) == 1
    rec = recs[0]
    assert abs(rec.h_star - 0.2) < 0.01
    assert rec.stability == -1
    assert rec.epsilon == eps
    lo, hi = rec.bracket
    assert lo < rec.h_star < hi and hi - lo <= 1e-3
    assert isinstance(rec.h_star, float) and not isinstance(rec.h_star, np.floating)
    # the displacement is tiny at the recorded energy
    assert abs(el.displacement(rec.h_star, lam, integ_cfg)) < 5e-3 * eps


def test_planted_cycle_has_a_structural_companion(integ_cfg):
    """The same arc has a second sign change near h = 0.025 where the
    h ln h term overtakes the linear one; both are genuine cycles and the
    total stays within the two-cycle bound for first-order arcs."""
    eps = 1e-3
    lam = (eps, 0.0, 0.0, -1.3033884796 * eps)
    recs = el.find_limit_cycles(lam, (0.01, 0.3), grid_n=24, cfg=integ_cfg,
                                refine_tol=1e-3, epsilon=eps)
    assert len(recs) == 2
    assert abs(recs[0].h_star - 0.025) < 0.01
    assert abs(recs[1].h_star - 0.2) < 0.01
    assert recs[0].stability == 1 and recs[1].stability == -1


# ---------------------------------------------------------------------------
# Arcs and convergence
# ---------------------------------------------------------------------------


def test_arc_spec_validation_and_evaluation():
    with pytest.raises(ValueError):
        el.ArcSpec({"lam5": (0.0, 1.0)})
    with pytest.raises(ValueError):
        el.ArcSpec({"lam1": (0.5, 1.0)})  # must vanish at eps = 0
    arc = el.ArcSpec({"lam1": (0.0, 1.0, 2.0), "lam4": (0.0, -0.5)})
    p = arc.params_at(1e-2)
    npt.assert_allclose(p, (1e-2 + 2.0 * 1e-4, 0.0, 0.0, -0.5 * 1e-2))
    spec = arc.melnikov_spec(1)
    assert spec.lam1k == 1.0 and spec.lam4k == -0.5
    assert arc.leading_order() == 1
    assert el.ArcSpec({}).leading_order() is None


def test_arc_leading_order_skips_degenerate_orders():
    arc = el.ArcSpec({"lam1": (0.0, 0.0, 1.0), "lam2": (0.0, 0.3), "lam3": (0.0, 0.4)})
    assert arc.leading_order() == 2
    npt.assert_allclose(arc.melnikov_spec(2).cross_coefficient, 0.3 * 0.4 / 3.0)


def test_convergence_table_tracks_the_first_order_function(integ_cfg):
    arc = el.ArcSpec({"lam1": (0.0, 1.0)})
    rows = el.melnikov_convergence(arc, (0.2,), (1e-2, 1e-3), integ_cfg)
    assert [r.eps for r in rows] == [1e-2, 1e-3]
    for r in rows:
        assert r.h == 0.2
        # the comparison column is the bifurcation function times the
        # measured displacement scale of the section coordinate
        npt.assert_allclose(
            r.m_k,
            el.measure_displacement_scale() * el.m1(0.2, 1.0, 0.0, backend="quadrature"),
            rtol=1e-8,
        )
    # the scaled displacement approaches the bifurcation function from above
    assert rows[0].ratio > rows[1].ratio > 1.0
    assert rows[1].ratio < 1.01


def test_displacement_scale_is_cached_and_order_two():
    s1 = el.measure_displacement_scale()
    s2 = el.measure_displacement_scale()
    assert s1 == s2
    npt.assert_allclose(s1, 2.0, rtol=1e-3)


def test_displacement_scale_is_measured_once_per_config(monkeypatch):
    calls = []
    real = dynamics.displacement

    def counting(h_in, lam, cfg=None):
        calls.append(cfg)
        return real(h_in, lam, cfg)

    monkeypatch.setattr(dynamics, "displacement", counting)
    a = el.IntegratorConfig(max_time=150.0)
    b = el.IntegratorConfig(max_time=160.0)
    s_a = el.measure_displacement_scale(a)
    el.measure_displacement_scale(b)
    assert el.measure_displacement_scale(a) == s_a
    assert calls == [a, b]


# ---------------------------------------------------------------------------
# Samplers and sweeps
# ---------------------------------------------------------------------------


def test_sampler_classes_have_the_right_leading_order():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = el.arc_sampler_general(rng)
        assert g.leading_order() == 1
        n = el.arc_sampler_no_first_order(rng)
        assert n.melnikov_spec(1).lam1k == 0.0
        assert n.melnikov_spec(1).lam4k == 0.0
        assert n.leading_order() in (2, None)


def test_sweep_is_deterministic_and_thread_invariant(integ_cfg):
    kw = dict(eps=1e-3, h_window=(0.05, 0.2), n_samples=2, cfg=integ_cfg,
              seed=42, grid_n=12, refine_tol=1e-3)
    r1 = el.cyclicity_sweep(el.arc_sampler_general, **kw)
    r2 = el.cyclicity_sweep(el.arc_sampler_general, **kw)
    r3 = el.cyclicity_sweep(el.arc_sampler_general, threads=2, **kw)
    def strip(res):
        return [(s.index, s.count, s.failed, tuple(sorted(s.arc.coeff_table))) for s in res.samples]
    assert strip(r1) == strip(r2) == strip(r3)
    assert all(s.count <= 2 for s in r1.samples if not s.failed)
    assert r1.max_count == max(s.count for s in r1.samples)


def test_sweep_samples_record_bound_and_anomaly():
    res = el.cyclicity_sweep(el.arc_sampler_general, eps=1e-3, h_window=(0.05, 0.2),
                             n_samples=1, seed=5, grid_n=12, refine_tol=1e-3)
    s = res.samples[0]
    assert s.bound == 2
    assert s.anomaly == (not s.failed and s.count > s.bound)
    assert list(res.anomalies) == [x for x in res.samples if x.anomaly]


def test_sweep_records_numerical_failures_and_propagates_other_errors(monkeypatch):
    kw = dict(eps=1e-3, h_window=(0.05, 0.2), n_samples=1, grid_n=12, refine_tol=1e-3)

    def capped(*args, **kwargs):
        raise el.TimeCap("flow-time budget spent")

    monkeypatch.setattr(dynamics, "find_limit_cycles", capped)
    res = el.cyclicity_sweep(el.arc_sampler_general, **kw)
    assert [s.failed for s in res.samples] == [True]
    assert res.histogram == {}

    def broken(*args, **kwargs):
        raise TypeError("a programming error, not a numerical failure")

    monkeypatch.setattr(dynamics, "find_limit_cycles", broken)
    with pytest.raises(TypeError):
        el.cyclicity_sweep(el.arc_sampler_general, **kw)

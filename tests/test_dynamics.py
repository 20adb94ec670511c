"""Flow integration, the section return map, and cycle detection."""

import ast
import concurrent.futures
import ctypes
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import DOP853, solve_ivp

import eightloop as el
from eightloop import dynamics, native
from eightloop.dynamics import H_FLOOR
from eightloop.geometry import geomspace, x_plus
from eightloop.series import KAPPA


LAM0 = (0.0, 0.0, 0.0, 0.0)


def _section_point(h):
    return (x_plus(h), 0.0)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def test_unperturbed_flow_conserves_energy(integ_cfg):
    states = el.integrate(_section_point(1.0), LAM0, np.linspace(0.0, 20.0, 201), integ_cfg)
    assert states.shape == (201, 2)
    assert max(abs(el.energy(s) - 1.0) for s in states) < 1e-9


def test_centers_are_fixed_points(integ_cfg):
    for x0 in (1.0, -1.0):
        states = el.integrate((x0, 0.0), LAM0, [10.0], integ_cfg)
        npt.assert_allclose(states[-1], (x0, 0.0), atol=1e-10)


def test_integrate_matches_solve_ivp(integ_cfg):
    """The states at the output times agree with solve_ivp's dense output, an independent reference."""
    lam = (0.02, 0.01, -0.03, 0.015)
    p0 = _section_point(0.5)
    ts = np.linspace(0.0, 5.0, 11)
    states = el.integrate(p0, lam, ts, integ_cfg)
    npt.assert_array_equal(states[0], p0)
    sol = solve_ivp(el.vector_field, (0.0, 5.0), p0, args=(lam,), method="DOP853", t_eval=ts,
                    rtol=integ_cfg.rel_tol, atol=integ_cfg.abs_tol)
    npt.assert_allclose(states, sol.y.T, atol=1e-8)


def test_integrate_takes_repeated_and_no_output_times(integ_cfg):
    assert el.integrate(_section_point(0.5), LAM0, [], integ_cfg).shape == (0, 2)
    states = el.integrate(_section_point(0.5), LAM0, [0.0, 0.0, 1.0, 1.0], integ_cfg)
    npt.assert_array_equal(states[0], states[1])
    npt.assert_array_equal(states[2], states[3])


def test_integrate_to_no_output_times_runs_no_return_map(integ_cfg):
    """An empty ts is a flow to no output times, never the return to the section that the library runs without ts."""
    lam = (-0.5, 0.0, 0.0, 0.0)
    with pytest.raises(el.TimeCap):
        el.return_map(0.2, lam, integ_cfg)
    assert el.integrate(_section_point(0.2), lam, [], integ_cfg).shape == (0, 2)


def test_integrate_rejects_budget_overrun(integ_cfg):
    with pytest.raises(ValueError, match="max_time"):
        el.integrate(_section_point(0.5), LAM0, [integ_cfg.max_time + 1.0], integ_cfg)


@pytest.mark.parametrize("ts", [[-1.0], [0.0, -1.0], [0.0, 2.0, 1.0], [0.0, math.nan]])
def test_integrate_rejects_negative_or_decreasing_times(ts, integ_cfg):
    with pytest.raises(ValueError, match="non-decreasing"):
        el.integrate(_section_point(0.5), LAM0, ts, integ_cfg)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_time"])
def test_integrator_config_takes_only_positive_finite_values(field, value):
    """A NaN or infinite tolerance or time budget is refused up front, not met later as a numerical failure."""
    with pytest.raises(ValueError, match="positive and finite"):
        el.IntegratorConfig(**{field: value})


def test_integrate_fails_numerically_from_an_overflowing_slope(integ_cfg):
    with pytest.raises(el.StepFailure, match="initial step"):
        el.integrate((1e155, 0.0), LAM0, [1.0], integ_cfg)


def test_a_non_finite_error_estimate_is_a_step_failure(integ_cfg):
    """A step whose error estimate overflows stops the flow at once, rather than shrink toward a zero step."""
    with pytest.raises(el.StepFailure, match=r"^non-finite error estimate at t=0$"):
        el.integrate((1000.0, 0.0), (0.0, 0.0, 0.0, 1e200), [1.0], integ_cfg)
    with pytest.raises(el.StepFailure, match=r"^non-finite error estimate at t="):
        el.return_map(1e-3, (1e150, 0.0, 0.0, 0.0), integ_cfg)


def test_energy_balance_along_perturbed_orbit(integ_cfg):
    """dH/dt = y*(l1 y + l2 x^2 + l3 xy + l4 x^2 y) integrates to the
    observed energy change."""
    lam = (0.02, 0.01, -0.03, 0.015)
    ts = np.linspace(0.0, 10.0, 20001)
    xs, ys = el.integrate(_section_point(0.3), lam, ts, integ_cfg).T
    power = ys * (lam[0] * ys + lam[1] * xs**2 + lam[2] * xs * ys + lam[3] * xs**2 * ys)
    gained = np.trapezoid(power, ts)
    observed = el.energy((xs[-1], ys[-1])) - el.energy((xs[0], ys[0]))
    npt.assert_allclose(gained, observed, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_return_map_rejects_a_non_finite_energy(h, integ_cfg):
    with pytest.raises(ValueError, match="finite"):
        el.return_map(h, LAM0, integ_cfg)


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
    with pytest.raises(ValueError, match="section floor"):  # a grid's floor is checked once, on its lower end
        el.find_limit_cycles(LAM0, (0.5 * H_FLOOR, 0.2), grid_n=4, cfg=integ_cfg)


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
# The return-map stepper against solve_ivp
# ---------------------------------------------------------------------------

# the TimeCap wording perfbench/tracing.py reads the discarded crossings from
DISCARDED = re.compile(r"discarded=(\d+)")


def _ev_down(t, state, lam):
    return state[1]


_ev_down.direction = -1
# terminal=2: launching from the section means y = 0 at t = 0, which the
# event machinery reports as a crossing; the second event is the real one.
_ev_down.terminal = 2


def _ev_escape(t, state, lam):
    return max(abs(state[0]), abs(state[1])) - native.ESCAPE_BOUND


_ev_escape.terminal = True


def _oracle_return_map(h_in, lam, cfg):
    """The first return located by solve_ivp's event machinery: an independent reference.

    Each downward crossing of y = 0 is a root of the dense output; one
    inside a lobe is counted, and the solver restarts from it.
    """
    state = (x_plus(h_in), 0.0)
    lam = tuple(lam)
    t0 = 0.0
    discarded = 0
    while t0 < cfg.max_time:
        sol = solve_ivp(el.vector_field, (t0, cfg.max_time), state, args=(lam,), method="DOP853",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol, events=(_ev_down, _ev_escape))
        if sol.t_events[1].size:
            raise el.EscapedRegion(f"orbit left the box at t={sol.t_events[1][0]:.3f}")
        if sol.status == -1:
            raise el.StepFailure(sol.message)
        # drop the event the launch itself triggers (y = 0 at departure)
        hits = [(float(te), float(xy[0]), float(xy[1]))
                for te, xy in zip(sol.t_events[0], sol.y_events[0]) if te > t0 + 1e-12]
        if not hits:
            raise el.TimeCap(f"no return within max_time={cfg.max_time} (discarded={discarded})")
        for te, xe, ye in hits:
            if xe > el.SQRT2:
                return el.ReturnMapSample(h_in=h_in, h_out=el.energy((xe, ye)), flow_time=te, crossings=discarded)
            discarded += 1
            state = (xe, ye)
            t0 = te
        if sol.status == 0:
            break
    raise el.TimeCap(f"no return within max_time={cfg.max_time} (discarded={discarded})")


def _tableau_step(fun, s, u, v, k0, h, lam, cfg):
    """One DOP853 step by plain loops over scipy's tableau: (u_new, v_new, scipy's error norm)."""
    n, A, C = DOP853.n_stages, DOP853.A, DOP853.C
    k = [k0]
    for i in range(1, n):
        du = dv = 0.0
        for j in range(i):
            if A[i, j]:
                du += float(A[i, j]) * k[j][0]
                dv += float(A[i, j]) * k[j][1]
        k.append(fun(s + float(C[i]) * h, (u + h * du, v + h * dv), lam))

    def combination(coeffs, component):
        acc = 0.0
        for j in range(n):
            if coeffs[j]:
                acc += float(coeffs[j]) * k[j][component]
        return acc

    u_new, v_new = u + h * combination(DOP853.B, 0), v + h * combination(DOP853.B, 1)
    su = cfg.abs_tol + max(abs(u), abs(u_new)) * cfg.rel_tol
    sv = cfg.abs_tol + max(abs(v), abs(v_new)) * cfg.rel_tol
    eu5, ev5 = combination(DOP853.E5, 0) / su, combination(DOP853.E5, 1) / sv
    eu3, ev3 = combination(DOP853.E3, 0) / su, combination(DOP853.E3, 1) / sv
    e5, e3 = eu5 * eu5 + ev5 * ev5, eu3 * eu3 + ev3 * ev3
    err = 0.0 if e5 == 0.0 and e3 == 0.0 else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0)
    return u_new, v_new, err


def _tableau_accepted_step(t, x, y, h_abs, lam, t_bound, cfg):
    """scipy's DOP853 step control around _tableau_step with el.vector_field: the accepted step and its tries."""
    min_step = 10.0 * (math.nextafter(t, math.inf) - t)
    h_abs = max(h_abs, min_step)
    tries = 0
    while h_abs >= min_step:
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        x_new, y_new, err = _tableau_step(el.vector_field, t, x, y, el.vector_field(t, (x, y), lam), h, lam, cfg)
        tries += 1
        if err < 1.0:
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
            h_next = h * (min(1.0, factor) if tries > 1 else factor)
            return (t_new, x_new, y_new, *el.vector_field(t_new, (x_new, y_new), lam), h_next), tries
        h_abs = h * max(0.2, 0.9 * err ** -0.125)
    raise el.StepFailure("step size collapsed")


# libm's hypot, the library's norm of two components; math.hypot differs from it in the last bit on some pairs
_hypot = ctypes.CDLL("libm.so.6").hypot
_hypot.argtypes, _hypot.restype = (ctypes.c_double, ctypes.c_double), ctypes.c_double


def _initial_step(x, y, fx, fy, lam, t_bound, cfg):
    """scipy's select_initial_step for the flow from (x, y) at t = 0 to t_bound > 0, on Python floats.

    The library's initial_step, which the flow takes at t = 0, does this
    arithmetic in C; both take the norms from libm's hypot.
    """
    sx = cfg.abs_tol + abs(x) * cfg.rel_tol
    sy = cfg.abs_tol + abs(y) * cfg.rel_tol
    d0 = _hypot(x / sx, y / sy) / el.SQRT2
    d1 = _hypot(fx / sx, fy / sy) / el.SQRT2
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    if not h0 > 0.0:  # the slope is infinite or NaN
        raise el.StepFailure(f"no initial step for the slope ({fx:.3g}, {fy:.3g}) at t=0")
    gx, gy = el.vector_field(h0, (x + h0 * fx, y + h0 * fy), lam)
    d2 = _hypot((gx - fx) / sx, (gy - fy) / sy) / el.SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t_bound)


def _in_y(y, state, lam):
    """(t, x) as functions of y along the flow: dt/dy = 1/y', dx/dy = x'/y' = y/y'."""
    t, x = state
    dy = el.vector_field(t, (x, y), lam)[1]
    return 1.0 / dy, y / dy


def _params(lam, cfg):
    """The compiled kernel's parameter block for lam and cfg."""
    return (ctypes.c_double * 7)(*lam, cfg.rel_tol, cfg.abs_tol, cfg.max_time)


def test_unrolled_step_does_the_arithmetic_of_the_tableau():
    """The compiled flow step and step in y equal, bit for bit, plain loops over scipy's tableau and step control."""
    kernel = native._kernel()
    rng = np.random.default_rng(3)
    tries = []
    for cfg in (el.IntegratorConfig(), el.IntegratorConfig(1e-6, 1e-9)):
        for _ in range(40):
            t, x, y, log_h, dt = rng.uniform((0.0, -1.5, -1.5, -3.0, 0.01), (10.0, 1.5, 1.5, 0.5, 3.0)).tolist()
            lam = tuple(rng.uniform(-0.1, 0.1, 4).tolist())
            want, n = _tableau_accepted_step(t, x, y, 10.0**log_h, lam, t + dt, cfg)
            tries.append(n)
            state = (ctypes.c_double * 7)(t, x, y, *el.vector_field(t, (x, y), lam), 10.0**log_h, 0.0)
            assert native._STATUS[kernel.dop853_step(_params(lam, cfg), state, t + dt)] == "OK"
            assert tuple(state[:6]) == want
            k0 = _in_y(y, (t, x), lam)  # the step in y runs from y to 0
            want = _tableau_step(_in_y, y, t, x, k0, -y, lam, cfg)
            state = (ctypes.c_double * 6)(y, t, x, *k0, -y)
            assert native._STATUS[kernel.dop853_step_in_y(_params(lam, cfg), state)] == "OK"
            assert tuple(state[:3]) == want
    assert min(tries) == 1 and max(tries) > 1  # first tries accepted and rejected


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_the_library_source_compiles_without_warnings():
    done = subprocess.run(
        ["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-x", "c", "-"],
        input=native._kernel_source(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def _tableau_return_map(h_in, lam, cfg):
    """return_map's loop over the plain tableau steps above: (the return, whether a crossing was retried shorter).

    A reference for lanes that return without escaping or running out of
    time or crossings.
    """
    t, x, y = 0.0, x_plus(h_in), 0.0
    fx, fy = el.vector_field(t, (x, y), lam)
    h_abs = _initial_step(x, y, fx, fy, lam, cfg.max_time, cfg)
    discarded, retried = 0, False
    while True:
        (t_new, x_new, y_new, _, fy_new, h_next), _ = _tableau_accepted_step(t, x, y, h_abs, lam, cfg.max_time, cfg)
        if y > 0.0 >= y_new:
            t_cross, x_cross, err = math.nan, math.nan, math.nan
            if fy < 0.0:
                try:
                    t_cross, x_cross, err = _tableau_step(_in_y, y, t, x, _in_y(y, (t, x), lam), -y, lam, cfg)
                except ZeroDivisionError:
                    pass
            if not (t <= t_cross <= t_new and err < 1.0):
                retried = True
                h_abs = 0.5 * (t_new - t)
                continue
            if x_cross > el.SQRT2:
                return el.ReturnMapSample(h_in=h_in, h_out=el.energy((x_cross, 0.0)), flow_time=t_cross,
                                          crossings=discarded), retried
            discarded += 1
        t, x, y, fy, h_abs = t_new, x_new, y_new, fy_new, h_next


def _tableau_integrate(p0, lam, ts, cfg):
    """integrate's loop over the plain tableau steps above, from the Python initial step: the states at ts."""
    t, (x, y) = 0.0, p0
    h_abs = _initial_step(x, y, *el.vector_field(t, (x, y), lam), lam, ts[-1], cfg)
    states = []
    for t_out in ts:
        while t < t_out:
            (t, x, y, _, _, h_abs), _ = _tableau_accepted_step(t, x, y, h_abs, lam, t_out, cfg)
        states.append((x, y))
    return np.array(states)


def _initial_step_of_library(x, y, lam, t_bound, cfg):
    """The library's initial step for the flow from (x, y) to t_bound: the step size, or its status name."""
    state = (ctypes.c_double * 7)(0.0, x, y, *el.vector_field(0.0, (x, y), lam))
    status = native._STATUS[native._kernel().dop853_initial_step(_params(lam, cfg), state, t_bound)]
    return state[5] if status == "OK" else status


def test_the_initial_step_is_the_python_one_bit_for_bit():
    """The library's initial step equals the Python oracle's on integrate's and return_map's launch points.

    integrate launches anywhere up to its last output time, return_map on
    the section up to max_time; the origin, the centre and a small t_bound
    take the oracle's other branches, and an infinite or NaN slope has no
    initial step on either side.
    """
    rng = np.random.default_rng(31)
    lams = [tuple(lam) for lam in rng.uniform(-0.1, 0.1, (250, 4)).tolist()]
    anywhere = rng.uniform((-3.0, -3.0, 1e-3), (3.0, 3.0, 50.0), (200, 3)).tolist()
    starts = [(x, y, t, lam) for (x, y, t), lam in zip(anywhere, lams)]
    starts += [(x_plus(h), 0.0, 200.0, lam) for h, lam in zip(np.geomspace(H_FLOOR, 40.0, 50).tolist(), lams[200:])]
    starts += [(0.0, 0.0, 1.0, LAM0), (1.0, 0.0, 1.0, LAM0), (1e-7, 0.0, 1.0, lams[0]), (0.5, 0.5, 1e-9, lams[1])]
    for cfg in (el.IntegratorConfig(), el.IntegratorConfig(1e-12, 1e-14), el.IntegratorConfig(1e-2, 1e-4)):
        for x, y, t_bound, lam in starts:
            want = _initial_step(x, y, *el.vector_field(0.0, (x, y), lam), lam, t_bound, cfg)
            assert _initial_step_of_library(x, y, lam, t_bound, cfg) == want
    for x, lam in ((1e155, LAM0), (2.0, (0.0, 1e308, 0.0, 0.0)), (2.0, (math.nan, 0.0, 0.0, 0.0))):
        with pytest.raises(el.StepFailure) as oracle:
            _initial_step(x, 0.0, *el.vector_field(0.0, (x, 0.0), lam), lam, 1.0, el.IntegratorConfig())
        assert _initial_step_of_library(x, 0.0, lam, 1.0, el.IntegratorConfig()) == "NO_INITIAL_STEP"
        with pytest.raises(el.StepFailure) as info:
            el.integrate((x, 0.0), lam, [1.0])
        assert str(info.value) == str(oracle.value)


def test_integrate_and_return_map_are_the_tableau_loops_from_the_python_initial_step():
    """integrate and return_map, whose flow takes its initial step in the library, are the plain loops bit for bit.

    The last two return maps are lanes of the first stepper digest below:
    seed-6 sweep arcs at h = 0.0502, strict, and at h = 0.1002, 1e-6/1e-9.
    """
    lam, default, strict = (0.02, 0.01, -0.03, 0.015), el.IntegratorConfig(), el.IntegratorConfig(1e-12, 1e-14)
    for p0, ts in (((x_plus(0.3), 0.0), [0.0, 0.7, 2.5, 2.5, 6.0]), ((0.3, -0.2), [1e-3, 4.0]), ((1.2, 0.4), [9.0])):
        npt.assert_array_equal(el.integrate(p0, lam, ts), _tableau_integrate(p0, lam, ts, default))
    grid = np.geomspace(H_FLOOR, 0.2, 24).tolist()
    lanes = [(0.05, lam, default), (0.1, lam, strict), (0.6, lam, default),
             (grid[17], el.arc_sampler_no_first_order(dynamics._sample_rng(6, 0)).params_at(1e-3), strict),
             (grid[20], el.arc_sampler_general(dynamics._sample_rng(6, 6)).params_at(1e-3), el.IntegratorConfig(1e-6, 1e-9))]
    for h, arc, cfg in lanes:
        assert el.return_map(h, arc, cfg) == _tableau_return_map(h, arc, cfg)[0]


def test_return_map_is_pinned_bit_for_bit():
    """Recorded return maps: a stepper change that moves a bit of them fails here."""
    lam = (0.02, 0.01, -0.03, 0.015)
    r = el.return_map(0.05, lam, el.IntegratorConfig())
    assert (r.h_out.hex(), r.flow_time.hex(), r.crossings) == ("0x1.5b031f3ec9548p-3", "0x1.4a1a5641c8e28p+3", 0)
    r = el.return_map(0.1, lam, el.IntegratorConfig(1e-12, 1e-14))
    assert (r.h_out.hex(), r.flow_time.hex(), r.crossings) == ("0x1.e600ee1ab4248p-3", "0x1.25b5e777f3d29p+3", 0)
    with pytest.raises(el.TimeCap) as info:
        el.return_map(1e-3, (-1e-3, 0.0, 0.0, 0.0), el.IntegratorConfig())
    assert str(info.value) == "no return within max_time=200.0 (h_in=0.001, discarded=26)"


def _outcome(return_map, h, lam, cfg):
    try:
        return return_map(h, lam, cfg)
    except el.TimeCap as exc:
        return exc


def _first_order_arcs(n):
    rng = np.random.default_rng(2024)
    return [el.arc_sampler_general(rng).params_at(1e-3) for _ in range(n)]


@pytest.fixture(scope="module")
def lanes_at_default_tolerances(integ_cfg):
    """(stepper outcome, solve_ivp outcome) on 24 energies in [1e-3, 0.2] x 8 first-order arcs."""
    return [
        (_outcome(el.return_map, float(h), lam, integ_cfg), _outcome(_oracle_return_map, float(h), lam, integ_cfg))
        for lam in _first_order_arcs(8)
        for h in np.geomspace(H_FLOOR, 0.2, 24)
    ]


def _capped(lanes, side):
    return {i for i, lane in enumerate(lanes) if isinstance(lane[side], el.TimeCap)}


def test_stepper_matches_solve_ivp_at_default_tolerances(lanes_at_default_tolerances):
    lanes = lanes_at_default_tolerances
    capped = _capped(lanes, 0)
    assert capped == _capped(lanes, 1)
    assert 0 < len(capped) < len(lanes)  # the sample holds lanes of both kinds
    returned = [lane for i, lane in enumerate(lanes) if i not in capped]
    assert max(abs(new.h_out - ref.h_out) for new, ref in returned) <= 1e-9
    assert all(new.crossings == ref.crossings for new, ref in returned)
    assert max(abs(new.flow_time - ref.flow_time) for new, ref in returned) <= 1e-9


def test_stepper_matches_solve_ivp_at_strict_tolerances():
    cfg = el.IntegratorConfig(1e-12, 1e-14)
    worst = 0.0
    for lam in _first_order_arcs(8):
        for h in np.geomspace(0.01, 0.2, 6):
            new, ref = el.return_map(float(h), lam, cfg), _oracle_return_map(float(h), lam, cfg)
            worst = max(worst, abs(new.h_out - ref.h_out))
    assert worst <= 1e-11


def test_crossing_the_step_in_y_cannot_resolve_is_retried_shorter(integ_cfg):
    """At loose tolerances a flow step can hold a crossing that one step in y cannot locate.

    The step then starts with y still rising, or spans a stretch where y'
    is nearly 0 and the step in y misses its error test.  Located anyway,
    the crossing is wrong by a lot (h_out 0.28, 0.19 and 1.23 on these
    lanes, where the returns are at 0.050, 0.085 and 0.106); retried with
    shorter flow steps, it is within the loose tolerance's reach of the
    reference at default tolerances.  The loop over the plain tableau takes
    that retry on each lane, and the compiled loop returns what it does.
    """
    loose = el.IntegratorConfig(1e-2, 1e-4)
    for h, lam in ((0.05, (0.0, 0.0, 0.05, 0.0)), (0.05, (0.01, 0.0, 0.1, 0.0)), (0.002, (0.0, 0.05, 0.1, -0.02))):
        new, (plain, retried) = el.return_map(h, lam, loose), _tableau_return_map(h, lam, loose)
        assert retried
        assert new == plain
        ref = _oracle_return_map(h, lam, integ_cfg)
        assert new.crossings == ref.crossings
        assert abs(new.h_out - ref.h_out) <= 2e-3


def _discarded(exc):
    m = DISCARDED.search(str(exc))
    assert m, str(exc)
    return int(m.group(1))


def test_time_cap_message_names_the_discarded_crossings(lanes_at_default_tolerances):
    lanes = lanes_at_default_tolerances
    counts = [(_discarded(lanes[i][0]), _discarded(lanes[i][1])) for i in sorted(_capped(lanes, 0))]
    assert all(new == ref > 0 for new, ref in counts), counts
    # with a five times longer budget the lane still runs out of time, with the reference's lobe crossings
    i = min(_capped(lanes, 0))
    h, lam = float(np.geomspace(H_FLOOR, 0.2, 24)[i % 24]), _first_order_arcs(8)[i // 24]
    longer = el.IntegratorConfig(max_time=1000.0)
    with pytest.raises(el.TimeCap, match=r"^no return within max_time=1000\.0 ") as info:
        el.return_map(h, lam, longer)
    assert _discarded(info.value) == _discarded(_outcome(_oracle_return_map, h, lam, longer)) == 191


def _outcome_line(h, lam, cfg):
    try:
        r = el.return_map(h, lam, cfg)
    except el.NumericalFailure as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{r.h_out.hex()} {r.flow_time.hex()} {r.crossings}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_return_maps_and_integrate_keep_every_bit_of_the_python_stepper():
    """Digests of the flow's outcomes, word for word: a stepper change that moves a bit of them fails here.

    1,152 return maps: the 16 seed-6 sweep arcs of both families at
    eps = 1e-3, on the 24 sweep grid energies, at default, strict and loose
    tolerances, recorded by the compiled flow, whose squares are products
    and whose norms are libm's hypot; the plain tableau loop is checked on
    two of these lanes above.  Then the eps = 0.5 arcs and two strongly
    pumped ones, whose orbits run out of time or escape, with the failure
    messages word for word, and a 501-point integrate, both recorded with
    the DOP853 stepper in Python floats that the compiled kernel replaced;
    and the same eps = 0.5 arcs with five times the time budget, recorded
    by the compiled kernel once the time cap became its only budget.
    """
    grid = np.geomspace(H_FLOOR, 0.2, 24).tolist()
    weak = [sampler(dynamics._sample_rng(6, i)).params_at(1e-3)
            for sampler in (el.arc_sampler_general, el.arc_sampler_no_first_order) for i in range(8)]
    tolerances = (el.IntegratorConfig(), el.IntegratorConfig(1e-12, 1e-14), el.IntegratorConfig(1e-6, 1e-9))
    lanes = [_outcome_line(h, lam, cfg) for cfg in tolerances for lam in weak for h in grid]
    assert sum(line.startswith("TimeCap: no return") for line in lanes) == 39
    assert _digest(lanes) == "47888a1ac2db097d962da9379970e44d527f6e7e68ed79b5643cfb653d7a1c2a"

    strong = [el.arc_sampler_general(dynamics._sample_rng(6, i)).params_at(0.5) for i in range(6)]
    pumped = [(1.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.3, 0.0)]
    wide = grid + np.geomspace(0.3, 40.0, 6).tolist()
    lanes = [_outcome_line(h, lam, el.IntegratorConfig()) for lam in strong + pumped for h in wide]
    kinds = Counter(re.match(r"(\w+: \w+ \w+)|", line).group(1) for line in lanes)
    assert kinds == {None: 91, "TimeCap: no return": 143, "EscapedRegion: orbit left": 6}
    assert _digest(lanes) == "f44a593a549654f999759f6acaf5e6795e27719b1777b805c6b4c00728b1b964"

    lanes = [_outcome_line(h, lam, el.IntegratorConfig(max_time=1000.0)) for lam in strong for h in grid[::4]]
    kinds = Counter(re.match(r"(\w+: \w+ \w+)|", line).group(1) for line in lanes)
    assert kinds == {None: 5, "TimeCap: no return": 31}
    assert _digest(lanes) == "f3d490cfc52a00e0c3faaee83412fcd2c9c0718ff33eb849b8fe867fea2dd34d"

    states = el.integrate(_section_point(0.3), (0.02, 0.01, -0.03, 0.015), np.linspace(0.0, 50.0, 501))
    assert _digest([" ".join(v.hex() for v in states.ravel().tolist())]) == (
        "73154adc284c02b56fd3913d55c406397a50fa9e3ca28c427c1636897fd72e13"
    )


# ---------------------------------------------------------------------------
# The compiled kernel
# ---------------------------------------------------------------------------


def test_the_field_translator_takes_only_float_exact_arithmetic():
    """C does Python's float arithmetic for +, -, * and negation; a power, call or division is refused by name."""
    def translate(source):
        return native._c_expression(ast.parse(source, mode="eval").body)

    assert translate("-x * 2 + l1 * y") == "(((-x) * 0x1.0000000000000p+1) + (l1 * y))"
    for source, term in (("x ** 3", "'x ** 3' (BinOp)"), ("math.sin(x)", "'math.sin(x)' (Call)"),
                         ("x / y", "'x / y' (BinOp)"), ("z * x", "'z' (Name)")):
        with pytest.raises(ValueError, match=re.escape(term)):
            translate(source)


def test_the_literal_tableau_is_scipys_dop853():
    """native's stage and weight tables are scipy's DOP853 tableau with its zero entries dropped, bit for bit."""
    def sparse(weights):
        return tuple((j, float(w)) for j, w in enumerate(weights) if w)

    stages = tuple((float(DOP853.C[i]), sparse(DOP853.A[i, :i])) for i in range(1, DOP853.n_stages))
    weights = tuple(sparse(w) for w in (DOP853.B, DOP853.E5, DOP853.E3))
    assert repr(native._STAGES) == repr(stages) and repr(native._WEIGHTS) == repr(weights)


def test_kernel_libraries_are_named_by_their_source(tmp_path):
    one = native._library("int f(void) { return 1; }\n", tmp_path)
    assert one.is_file()
    two = native._library("int f(void) { return 2; }\n", tmp_path)
    assert one != two and two.is_file()


def test_a_built_kernel_library_is_reused_without_the_compiler(tmp_path, monkeypatch):
    source = "int f(void) { return 1; }\n"
    built = native._library(source, tmp_path)

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a library already built")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert native._library(source, tmp_path) == built
    assert list(tmp_path.iterdir()) == [built]  # the build left no temporary files behind


def test_a_build_removes_the_libraries_of_earlier_sources(tmp_path):
    """Only files named as the cache names libraries go, and one that cannot be removed stays."""
    earlier = native._library("int f(void) { return 1; }\n", tmp_path)
    others = [tmp_path / "kernel.so", tmp_path / (32 * "ab" + ".txt"), tmp_path / (32 * "AB" + ".so")]
    for path in others:
        path.write_text("")
    stuck = tmp_path / (64 * "0" + ".so")
    stuck.mkdir()  # unlink fails on a directory
    built = native._library("int f(void) { return 2; }\n", tmp_path)
    assert not earlier.exists()
    assert sorted(tmp_path.iterdir()) == sorted([built, stuck, *others])


def test_without_cc_on_path_the_kernel_build_names_it(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with pytest.raises(RuntimeError, match=r"\bcc\b") as exc:
        native._library("int f(void) { return 1; }\n", tmp_path)
    assert "flow" in str(exc.value) and "quadrature" in str(exc.value)  # both users of the library


def test_a_failed_compile_is_a_build_error_with_the_compilers_message(tmp_path):
    with pytest.raises(native.BuildError, match=r"(?s)cc failed to compile .*error") as exc:
        native._library("int f(void) { return 1 }\n", tmp_path)
    assert "quadrature" in str(exc.value)
    assert list(tmp_path.iterdir()) == []  # no library, and no temporary files, left behind


def test_an_unwritable_cache_falls_back_to_a_private_directory(monkeypatch):
    build = native._library

    def unwritable_cache(source, directory):
        if directory.name == "__pycache__":
            raise PermissionError(13, "Permission denied", str(directory))
        return build(source, directory)

    monkeypatch.setattr(native, "_library", unwritable_cache)
    private = Path(native._kernel.__wrapped__()._name).parent
    try:
        assert private.name != "__pycache__" and private.is_dir()
    finally:
        shutil.rmtree(private)


def _fresh_process(probe: str) -> str:
    """What probe, run in a new interpreter with this one's import path, prints."""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return done.stdout.strip()


def test_importing_the_package_builds_no_kernel():
    probe = "import eightloop, eightloop.native as n; print(n._kernel.cache_info().currsize)"
    assert _fresh_process(probe) == "0"


def test_quadrature_and_flow_load_the_one_library():
    """The first QUADPACK call builds and loads the library; a later return map reuses it."""
    probe = "\n".join((
        "import eightloop as el",
        "from eightloop import native",
        "el.integral_xiy(0.2, 0)",
        "loaded = native._kernel.cache_info()",
        "el.return_map(0.2, (0.0, 0.0, 0.0, 0.0))",
        "print(loaded.misses, loaded.currsize, native._kernel.cache_info().currsize, native._kernel()._name)",
    ))
    quad_misses, quad_size, flow_size, name = _fresh_process(probe).split(" ", 3)
    assert (quad_misses, quad_size, flow_size) == ("1", "1", "1")
    library = Path(name)
    source = native._kernel_source()
    assert "void flows(" in source and "double xiy(" in source
    assert native._library(source, library.parent) == library  # the library of the one source, one .so for it


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


def _grid_of(displacement):
    """A stand-in for dynamics._displacements, the grid's one library call, from a stand-in displacement."""

    def displacements(hs, lam, cfg):
        values = []
        for h in hs:
            try:
                values.append(displacement(h, lam, cfg))
            except el.NumericalFailure as exc:
                values.append(exc)
        return values

    return displacements


def test_failed_return_maps_are_logged_and_skipped(monkeypatch, caplog):
    """A failing grid point drops out; a failure inside a bracket stops its bisection at the bracket reached."""

    def displacement(h, lam, cfg=None):
        if h > 0.3 or 0.13 < h < 0.14:
            raise el.TimeCap("capped")
        return h - 0.15

    monkeypatch.setattr(dynamics, "displacement", displacement)  # the bisection's return maps
    monkeypatch.setattr(dynamics, "_displacements", _grid_of(displacement))  # the grid's
    with caplog.at_level("INFO", logger="eightloop.dynamics"):
        recs = el.find_limit_cycles(LAM0, (0.1, 0.4), grid_n=3, refine_tol=1e-6)
    assert len(recs) == 1
    npt.assert_allclose(recs[0].bracket, (0.125, 0.15), atol=1e-15)
    assert recs[0].stability == 1
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert len(skipped) == 2 and "h=0.4 " in skipped[0] and "h=0.1375 " in skipped[1]


def test_a_grid_with_no_defined_return_map_raises_the_last_failure():
    """Strong damping sends every grid orbit into a lobe: no fixed point is readable, so no count of 0."""
    with pytest.raises(el.TimeCap, match=r"h_in=0\.2\b"):
        el.find_limit_cycles((-0.5, 0.0, 0.0, 0.0), (1e-3, 0.2), grid_n=24)


def test_a_displacement_of_exactly_zero_at_a_grid_point_is_bracketed(monkeypatch):
    """The grid point carries no sign, as in count_zeros: its neighbours bracket the cycle on it."""
    grid = np.geomspace(0.1, 0.4, 3)
    monkeypatch.setattr(dynamics, "displacement", lambda h, lam, cfg=None: h - grid[1])
    monkeypatch.setattr(dynamics, "_displacements", _grid_of(dynamics.displacement))
    recs = el.find_limit_cycles(LAM0, (0.1, 0.4), grid_n=3, refine_tol=1e-6)
    assert len(recs) == 1
    assert abs(recs[0].h_star - grid[1]) < 1e-6 and recs[0].stability == 1


def test_a_grid_is_one_library_call_and_each_bisection_midpoint_one_more(return_maps_calls, monkeypatch, integ_cfg):
    midpoints = []
    displacement = dynamics.displacement

    def counting(h, lam, cfg=None):
        midpoints.append(h)
        return displacement(h, lam, cfg)

    monkeypatch.setattr(dynamics, "displacement", counting)
    eps = 1e-3
    recs = el.find_limit_cycles((eps, 0.0, 0.0, -1.3033884796 * eps), (0.01, 0.3), grid_n=24, cfg=integ_cfg,
                                refine_tol=1e-3)
    assert len(recs) == 2 and len(midpoints) >= 2
    assert return_maps_calls == [24] + [1] * len(midpoints)
    grid = geomspace(0.01, 0.3, 24)
    brackets = [(lo, hi) for lo, hi in zip(grid, grid[1:]) if any(lo <= r.h_star <= hi for r in recs)]
    assert all(any(lo < h < hi for lo, hi in brackets) for h in midpoints)


# (lam, h) whose return map at the default tolerances ends in each outcome the flow reaches from the section
_OUTCOME_LANES = {
    "OK": (LAM0, 0.3),
    "TIME_CAP": ((-1e-3, 0.0, 0.0, 0.0), 1e-3),
    "ESCAPED": ((1.0, 0.0, 0.0, 0.0), 40.0),
    "NON_FINITE_ERROR": ((1e150, 0.0, 0.0, 0.0), 1e-3),
    "NO_INITIAL_STEP": ((0.0, 1e308, 0.0, 0.0), 0.5),
}


def _alone(h, lam, cfg):
    """return_map's displacement at h, or its failure as (type, message)."""
    try:
        return el.displacement(h, lam, cfg)
    except el.NumericalFailure as exc:
        return type(exc), str(exc)


def _on_the_grid(hs, lam, cfg):
    """The grid call's displacements at hs, each failure as (type, message)."""
    return [d if isinstance(d, float) else (type(d), str(d)) for d in dynamics._displacements(hs, lam, cfg)]


@pytest.mark.parametrize("status", _OUTCOME_LANES)
def test_each_outcome_is_the_same_on_the_grid_as_alone(status, integ_cfg):
    lam, h = _OUTCOME_LANES[status]
    hs = sorted({h, H_FLOOR, 0.05, 0.3, 40.0})
    [row] = dynamics._return_maps([h], lam, integ_cfg)
    assert native._STATUS[int(row.status)] == status
    alone = [_alone(h, lam, integ_cfg) for h in hs]
    grid = _on_the_grid(hs, lam, integ_cfg)
    assert [v if isinstance(v, tuple) else v.hex() for v in grid] == [
        v if isinstance(v, tuple) else v.hex() for v in alone
    ]


@pytest.mark.parametrize("status, failure", [
    ("STEP_FAILURE", (el.StepFailure, "step size 1e-15 below 2.22e-15 at t=12.5")),
    ("UNRESOLVED", (el.StepFailure, "crossing of y = 0 not resolved at t=12.5 (h_in=0.05)")),
])
def test_a_flow_that_the_section_does_not_reach_fails_the_same_on_the_grid_as_alone(status, failure, monkeypatch):
    """Outcomes no launch from the section was found to reach: the library's row, faked, reads the same both ways."""
    kernel = native._kernel()
    fields = {"status": native._STATUS.index(status), "t": 12.5, "h_abs": 1e-15, "min_h": 2.22e-15}
    row = [fields.get(name, 0.0) for name in native._Row._fields]

    def flows(p, rows, n, ts, m, states):
        for i in range(n):
            rows[len(row) * i : len(row) * (i + 1)] = row

    monkeypatch.setattr(kernel, "flows", flows)
    assert _alone(0.05, LAM0, el.IntegratorConfig()) == failure
    assert _on_the_grid([0.05], LAM0, el.IntegratorConfig()) == [failure]


def _bits(row):
    return tuple("nan" if math.isnan(v) else v.hex() for v in row)


# arcs whose grids on [1e-3, 40] mix outcomes: TIME_CAP, OK and ESCAPED; NON_FINITE_ERROR and ESCAPED
_MIXED_ARCS = {
    (-0.01, 0.0, 0.3, 0.0): {"TIME_CAP", "OK", "ESCAPED"},
    (1e8, 0.0, 1e4, 0.0): {"NON_FINITE_ERROR", "ESCAPED"},
}


@pytest.mark.parametrize("lam", _MIXED_ARCS)
def test_a_row_of_the_lane_loop_is_its_energys_alone(lam, integ_cfg):
    """Each row of a grid call is the one-energy row bit for bit, wherever its energy sits among the lanes.

    Grids of 1, 3, 4, 5 and 24 energies fill the four lanes partly,
    exactly and with flows left to launch; forward, reversed and rotated,
    a flow shares its lanes' passes with other neighbours each time.
    """
    alone = {}

    def row_alone(h):
        if h not in alone:
            [alone[h]] = dynamics._return_maps([h], lam, integ_cfg)
        return alone[h]

    for n in (1, 3, 4, 5, 24):
        hs = geomspace(H_FLOOR, 40.0, n) if n > 1 else [0.05]
        for order in (hs, hs[::-1], hs[n // 2 :] + hs[: n // 2]):
            rows = dynamics._return_maps(order, lam, integ_cfg)
            assert [_bits(row) for row in rows] == [_bits(row_alone(h)) for h in order]
    assert {native._STATUS[int(row.status)] for row in alone.values()} == _MIXED_ARCS[lam]


def test_return_maps_of_no_energies_write_nothing(integ_cfg):
    out = (ctypes.c_double * len(native._Row._fields))(*[-7.0] * len(native._Row._fields))
    native._kernel().flows(dynamics._params(LAM0, integ_cfg), out, 0, None, 0, None)
    assert list(out) == [-7.0] * len(native._Row._fields)


def test_a_row_holds_a_return_time_and_energy_only_where_a_return_was_placed(integ_cfg):
    """t_cross and h_out are NaN on a flow that ran out of time or escaped, and on a flow to output times."""
    for status in ("TIME_CAP", "ESCAPED"):
        lam, h = _OUTCOME_LANES[status]
        [row] = dynamics._return_maps([h], lam, integ_cfg)
        assert native._STATUS[int(row.status)] == status
        assert math.isnan(row.t_cross) and math.isnan(row.h_out)
    [row], states = dynamics._flows([_section_point(0.3)], (0.02, 0.01, -0.03, 0.015), integ_cfg, np.array([0.0, 2.5]))
    assert native._STATUS[int(row.status)] == "OK" and row.t == 2.5 and len(states) == 4
    assert math.isnan(row.t_cross) and math.isnan(row.h_out) and row.discarded == 0.0


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


def test_arc_uses_every_coefficient_it_holds():
    arc = el.ArcSpec({"lam1": (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)})
    assert arc.leading_order() == 5
    assert arc.params_at(0.5) == (0.5**5, 0.0, 0.0, 0.0)
    # a cross term reaches orders beyond every coefficient tuple
    assert el.ArcSpec({"lam2": (0.0, 0.0, 1.0), "lam3": (0.0, 0.0, 1.0)}).leading_order() == 4


def test_convergence_table_tracks_the_first_order_function(integ_cfg):
    arc = el.ArcSpec({"lam1": (0.0, 1.0)})
    rows = el.melnikov_convergence(arc, (0.2,), (1e-2, 1e-3), integ_cfg)
    assert [r.eps for r in rows] == [1e-2, 1e-3]
    for r in rows:
        assert r.h == 0.2
        # the comparison column is the per-lobe bifurcation function times
        # the contour constant: the displacement is taken over the full oval
        assert r.m_k == KAPPA * el.m1(0.2, 1.0, 0.0, backend="quadrature")
    # the scaled displacement approaches the bifurcation function from above
    assert rows[0].ratio > rows[1].ratio > 1.0
    assert rows[1].ratio < 1.01


@pytest.mark.parametrize("coeffs, eps", [((0.0, 0.0, 1.0), 1e-200), ((0.0,) * 40 + (1e-323,), 1e8)])
def test_convergence_table_rejects_an_eps_whose_power_is_no_float(coeffs, eps, monkeypatch):
    """eps^k underflows to 0.0 or overflows (where lam itself stays small): rejected before any return map."""
    def never(*args, **kwargs):
        raise AssertionError("a return map ran before the eps ladder was checked")

    monkeypatch.setattr(dynamics, "displacement", never)
    with pytest.raises(ValueError, match=rf"^eps = {eps!r} has no float eps\^{len(coeffs) - 1} "):
        el.melnikov_convergence(el.ArcSpec({"lam1": coeffs}), (0.2,), (1e-2, eps))


def test_convergence_table_evaluates_the_bifurcation_function_once_per_energy(
    quadpack_calls, closed_form_calls, integ_cfg
):
    rows = el.melnikov_convergence(el.ArcSpec({"lam1": (0.0, 1.0)}), (0.2,), (1e-2, 1e-3), integ_cfg)
    assert len(rows) == 2
    assert closed_form_calls == [0.2]  # the moments at h = 0.2, shared by both rows
    assert len(quadpack_calls) == 0


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
    # at eps = 0.5 arcs 1, 2, 4 and 5 lose every grid return map to TimeCap: failed samples, not counts of 0
    res = el.cyclicity_sweep(el.arc_sampler_general, eps=0.5, h_window=(1e-3, 0.2), n_samples=6, seed=6,
                             grid_n=24, refine_tol=1e-4)
    assert [s.failed for s in res.samples] == [False, True, True, False, True, True]
    assert res.histogram == {0: 2}

    def broken(*args, **kwargs):
        raise TypeError("a programming error, not a numerical failure")

    monkeypatch.setattr(dynamics, "find_limit_cycles", broken)
    with pytest.raises(TypeError):
        el.cyclicity_sweep(el.arc_sampler_general, eps=1e-3, h_window=(0.05, 0.2), n_samples=1, grid_n=12,
                           refine_tol=1e-4)


@pytest.mark.parametrize(
    "n_samples, cpus, pools",
    [(3, 64, [3]), (3, 2, [2]), (3, 1, []), (1, 64, [])],
)
def test_sweep_pool_is_capped_at_the_samples_and_the_cpus(monkeypatch, n_samples, cpus, pools):
    """--threads asks for at most one worker per sample and per CPU, and one worker is no pool."""
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(dynamics, "find_limit_cycles", lambda *args, **kwargs: [])
    res = el.cyclicity_sweep(el.arc_sampler_general, eps=1e-3, h_window=(0.05, 0.2), n_samples=n_samples,
                             grid_n=24, refine_tol=1e-4, threads=10**6)
    assert made == pools
    assert [s.index for s in res.samples] == list(range(n_samples))

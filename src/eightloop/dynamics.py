"""Direct simulation: return maps on the outer section and cycle sweeps.

The section is Sigma = {y = 0, x >= sqrt(2)}, which every exterior oval
crosses exactly once going downward (y' = x - x^3 < 0 there).  Energies
parameterize the section through x = x_plus(h), so the first return map
acts on h directly, and a limit cycle near the loop is a fixed point:
a sign change of displacement(h) = P(h) - h.

Perturbed orbits can leave the exterior region altogether: once the energy
drifts below 0 the orbit falls into one of the interior lobes and, if the
perturbation keeps pumping energy the wrong way, spirals toward a center
and never meets Sigma again.  Down-crossings of y = 0 with x < sqrt(2) are
therefore counted and discarded (the crossings field of the sample) while
the integration carries on from where it is, without a restart, and a run
that only produces such crossings ends in TimeCap: the return map is
genuinely undefined there, which the callers record rather than hide.

One ODE integrator serves both integrate and the return map: DOP853 stepped
on Python floats, with scipy's tableau and step control but without the
per-step array overhead of scipy's solvers on a two-dimensional state.
Each accepted step is one function generated from the tableau, with
geometry.vector_field's expression written out at every stage and at the
step's end, so a step calls nothing per stage.  integrate ends a step
exactly at each output time, so no interpolant is needed.
find_limit_cycles reads its cycles off the grid by the scan that
count_zeros uses (melnikov._sign_changes).

Random arcs use a counter-based generator keyed on (seed, sample index),
so sample i is reproducible in isolation and sweeps can be distributed
across worker processes without coordinating generator state.
"""

from __future__ import annotations

import ast
import functools
import inspect
import logging
import math
import os
import textwrap
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853

from .geometry import SQRT2, NumericalFailure, energy, vector_field, x_plus
from .melnikov import MelnikovSpec, _sign_changes, mk
from .series import KAPPA

logger = logging.getLogger(__name__)

H_FLOOR = 1e-3
ESCAPE_BOUND = 10.0
MAX_DISCARD = 64  # off-section crossings a return map may discard before TimeCap
_PARAMS = ("lam1", "lam2", "lam3", "lam4")  # an arc's parameter names, in vector_field's order


class TimeCap(NumericalFailure):
    """Flow-time budget exhausted without a completed return."""


class EscapedRegion(NumericalFailure):
    """Trajectory left the working box |x|, |y| < 10."""


class StepFailure(NumericalFailure):
    """The step controller gave up."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_time: float = 200.0  # flow-time cap per return

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")


@dataclass(frozen=True)
class ReturnMapSample:
    h_in: float
    h_out: float
    flow_time: float
    crossings: int  # wrong-section down-crossings discarded en route


@dataclass(frozen=True)
class LimitCycleRecord:
    h_star: float
    bracket: tuple
    stability: int  # sign of dP/dh - 1 across the bracket, by secant
    epsilon: float


@dataclass(frozen=True)
class ArcSpec:
    """Polynomial parameter arc lam(eps) with lam(0) = 0.

    coeff_table maps 'lam1'..'lam4' to coefficient tuples (c_0, c_1, ...);
    missing parameters are identically zero.  lam(eps) is the whole
    polynomial: every coefficient the table holds enters it.
    """

    coeff_table: dict

    def __post_init__(self):
        for name, seq in self.coeff_table.items():
            if name not in _PARAMS:
                raise ValueError(f"unknown parameter {name!r}")
            if seq and seq[0] != 0.0:
                raise ValueError("arc must pass through lam = 0 at eps = 0")

    def _coeff(self, name: str, k: int) -> float:
        seq = self.coeff_table.get(name, ())
        return float(seq[k]) if k < len(seq) else 0.0

    def params_at(self, eps: float) -> tuple:
        """(lam1, lam2, lam3, lam4) at eps."""
        vals = []
        for name in _PARAMS:
            acc = 0.0
            for c in reversed(self.coeff_table.get(name, ())[1:]):
                acc = (acc + float(c)) * eps
            vals.append(acc)
        return tuple(vals)

    def melnikov_spec(self, k: int) -> MelnikovSpec:
        pad = lambda name: tuple(self._coeff(name, i) for i in range(k + 1))  # noqa: E731
        return MelnikovSpec(
            k=k,
            lam1k=self._coeff("lam1", k),
            lam4k=self._coeff("lam4", k),
            lam2=pad("lam2"),
            lam3=pad("lam3"),
        )

    def leading_order(self):
        """Lowest k with a nonzero M_k, or None; M_k vanishes for k beyond the table's total length."""
        for k in range(1, sum(map(len, self.coeff_table.values())) + 1):
            if not self.melnikov_spec(k).vanishes:
                return k
        return None


# --------------------------------------------------------------------------
# Flow
# --------------------------------------------------------------------------

# scipy's step-control constants for DOP853
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # the embedded error estimators are of order 7


def _sparse(weights) -> tuple:
    return tuple((j, float(w)) for j, w in enumerate(weights) if w)


# scipy's DOP853 tableau with its zero entries dropped: per stage after
# the first, its node and the (j, a_ij) it sums; then the weights of the
# solution and of the two error estimators, whose last (FSAL) entries are 0
_STAGES = tuple((float(DOP853.C[i]), _sparse(DOP853.A[i, :i])) for i in range(1, DOP853.n_stages))
_WEIGHTS = tuple(_sparse(w) for w in (DOP853.B, DOP853.E5, DOP853.E3))


def _field_source() -> tuple:
    """geometry.vector_field's (x', y') expressions as source, in u, v for x, y and l1..l4 for lam."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(vector_field)))
    pair = next(node for node in ast.walk(tree) if isinstance(node, ast.Return)).value
    for node in ast.walk(pair):
        if isinstance(node, ast.Name):
            node.id = {"x": "u", "y": "v"}.get(node.id, node.id)
    return tuple(ast.unparse(component) for component in pair.elts)


def _unrolled_dop853_steps():
    """The flow's _accepted_step and _crossing's _step_in_y, unrolled from the tableau above.

        _accepted_step(t, u0, v0, k0u, k0v, h_abs, lam, t_bound, cfg)
            -> (t_new, u, v, u', v', h_next)

    is one step of the flow (x, y) = (u, v) from t, with (k0u, k0v) the
    slope there and h_abs the step size to try, under scipy's step control
    and error norm, retried until accepted; the step ends at t_bound if it
    would pass it.  It returns the end of the step, the slope there and the
    step size to try next, and raises StepFailure once the step falls below
    _min_step(t).  The slope at each stage and at the step's end is
    geometry.vector_field's own expression, read from its source and
    written out over local floats (the field does not depend on time, so no
    stage node is computed); nothing is called per stage.

        _step_in_y(s, u0, v0, k0u, k0v, h, lam, cfg) -> (u, v, err)

    is one DOP853 step of (u, v)' = _in_y(s, (u, v), lam) from s to s + h,
    with its error norm (below 1 the step is accepted).

    The stage sums live in local variables and the coefficients' reprs
    round-trip, so the arithmetic is that of loops over the tableau.
    """
    fu, fv = _field_source()

    def combination(row, component):
        return " + ".join(f"{a!r} * k{j}{component}" for j, a in row)

    # per stage: its index, node and state
    states = [
        (i, c, f"u0 + h * ({combination(row, 'u')})", f"v0 + h * ({combination(row, 'v')})")
        for i, (c, row) in enumerate(_STAGES, 1)
    ]
    flow_stages = [
        line for i, _, u, v in states for line in (f"u = {u}", f"v = {v}", f"k{i}u = {fu}", f"k{i}v = {fv}")
    ]
    y_stages = [f"k{i}u, k{i}v = _in_y(s + {c!r} * h, ({u}, {v}), lam)" for i, c, u, v in states]
    b, e5, e3 = _WEIGHTS
    solution_and_error = [
        f"u = u0 + h * ({combination(b, 'u')})",
        f"v = v0 + h * ({combination(b, 'v')})",
        "su = atol + max(abs(u0), abs(u)) * rtol",
        "sv = atol + max(abs(v0), abs(v)) * rtol",
        *(f"{e} = (({combination(w, 'u')}) / su) ** 2 + (({combination(w, 'v')}) / sv) ** 2"
          for e, w in (("e5", e5), ("e3", e3))),
        "err = 0.0 if e5 == 0.0 and e3 == 0.0 else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0)",
    ]
    loop = [
        "t_new = min(t + h_abs, t_bound)",
        "h = t_new - t",
        *flow_stages,
        *solution_and_error,
        "if err < 1.0:",
        "    factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)",
        f"    return t_new, u, v, {fu}, {fv}, h * (min(1.0, factor) if rejected else factor)",
        "h_abs = h * max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)",
        "rejected = True",
    ]
    source = [
        "def _accepted_step(t, u0, v0, k0u, k0v, h_abs, lam, t_bound, cfg):",
        "    l1, l2, l3, l4 = lam",
        "    rtol, atol = cfg.rel_tol, cfg.abs_tol",
        "    min_step = _min_step(t)",
        "    h_abs = max(h_abs, min_step)",
        "    rejected = False",
        "    while h_abs >= min_step:",
        *(f"        {line}" for line in loop),
        '    raise StepFailure(f"step size {h_abs:.3g} below {min_step:.3g} at t={t:.6g}")',
        "def _step_in_y(s, u0, v0, k0u, k0v, h, lam, cfg):",
        "    rtol, atol = cfg.rel_tol, cfg.abs_tol",
        *(f"    {line}" for line in y_stages + solution_and_error),
        "    return u, v, err",
    ]
    steps: dict = {}
    exec(compile("\n".join(source), "<DOP853 steps>", "exec"), globals(), steps)
    return steps["_accepted_step"], steps["_step_in_y"]


_accepted_step, _step_in_y = _unrolled_dop853_steps()


def _initial_step(x, y, fx, fy, lam, t_bound: float, cfg: IntegratorConfig) -> float:
    """scipy's select_initial_step for the flow from (x, y) at t = 0 to t_bound > 0."""
    sx = cfg.abs_tol + abs(x) * cfg.rel_tol
    sy = cfg.abs_tol + abs(y) * cfg.rel_tol
    d0 = math.hypot(x / sx, y / sy) / SQRT2
    d1 = math.hypot(fx / sx, fy / sy) / SQRT2
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    if not h0 > 0.0:  # the slope is infinite or NaN
        raise StepFailure(f"no initial step for the slope ({fx:.3g}, {fy:.3g}) at t=0")
    gx, gy = vector_field(h0, (x + h0 * fx, y + h0 * fy), lam)
    d2 = math.hypot((gx - fx) / sx, (gy - fy) / sy) / SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t_bound)


def _min_step(t: float) -> float:
    return 10.0 * (math.nextafter(t, math.inf) - t)


def integrate(p0, lam, ts, cfg: IntegratorConfig | None = None) -> np.ndarray:
    """States (x, y) of the flow from p0 at the times ts, as an array of shape (len(ts), 2).

    ts must be non-decreasing and start at or after t = 0: the flow is
    stepped forward only, and a step ends exactly at each output time.
    Negative, decreasing or NaN times and a last time beyond cfg.max_time
    are out-of-range arguments and raise ValueError up front; EscapedRegion
    if a step ends outside the working box, as in return_map; StepFailure
    if the step size collapses.
    """
    cfg = cfg or IntegratorConfig()
    ts = np.asarray(ts, dtype=float)
    if not (np.all(ts >= 0.0) and np.all(np.diff(ts) >= 0.0)):
        raise ValueError("output times must be non-negative and non-decreasing")
    t_end = float(ts[-1]) if len(ts) else 0.0
    if t_end > cfg.max_time:
        raise ValueError(f"requested t_end={t_end} exceeds max_time={cfg.max_time}")
    lam = tuple(lam)
    t, x, y = 0.0, float(p0[0]), float(p0[1])
    fx, fy = vector_field(t, (x, y), lam)
    h_abs = _initial_step(x, y, fx, fy, lam, t_end, cfg) if t_end > 0.0 else 0.0
    states = np.empty((len(ts), 2))
    for i, t_out in enumerate(ts.tolist()):  # Python floats keep the step arithmetic off numpy scalars
        while t < t_out:
            t, x, y, fx, fy, h_abs = _accepted_step(t, x, y, fx, fy, h_abs, lam, t_out, cfg)
            if max(abs(x), abs(y)) >= ESCAPE_BOUND:
                raise _escaped(t)
        states[i] = x, y
    return states


def _escaped(t: float) -> EscapedRegion:
    return EscapedRegion(f"orbit left |x|,|y| < {ESCAPE_BOUND} at t={t:.3f}")


def _in_y(y, state, lam):
    """(t, x) as functions of y along the flow: dt/dy = 1/y', dx/dy = x'/y' = y/y'."""
    t, x = state
    dy = vector_field(t, (x, y), lam)[1]
    return 1.0 / dy, y / dy


def _crossing(t, x, y, fy, t_new, lam, cfg: IntegratorConfig):
    """(t, x) where the flow from (x, y > 0) at t, with y' = fy, meets y = 0 before t_new, or None.

    One DOP853 step in the independent variable y, from y to 0 (Henon's
    trick).  That needs y to fall monotonically over the step and the step
    in y to pass the flow's error test, so a step that starts with y
    rising, meets y' = 0 at a stage, fails the test or lands outside
    [t, t_new] gives None.
    """
    if fy >= 0.0:
        return None
    try:
        t_cross, x_cross, err = _step_in_y(y, t, x, 1.0 / fy, y / fy, -y, lam, cfg)
    except ZeroDivisionError:
        return None
    if not t <= t_cross <= t_new or err >= 1.0:
        return None
    return t_cross, x_cross


def return_map(h_in: float, lam, cfg: IntegratorConfig | None = None) -> ReturnMapSample:
    """First return to Sigma = {y = 0, x >= sqrt(2)} in the energy chart.

    Launches from (x_plus(h_in), 0) and steps with DOP853 under scipy's
    step control.  A step that takes y from positive to non-positive holds
    a downward crossing, located by one DOP853 step in y from the step's
    start to y = 0 (Henon's trick); where that step is not valid (see
    _crossing), the flow step is retried at half the length.  The first
    crossing with x > sqrt(2) is the return; crossings inside the lobes are
    counted and discarded, and stepping goes on.  TimeCap if the time
    budget or the MAX_DISCARD budget runs out; EscapedRegion if the orbit
    leaves the working box; StepFailure if the step size collapses.
    """
    cfg = cfg or IntegratorConfig()
    if h_in < H_FLOOR:
        raise ValueError(f"h_in below section floor {H_FLOOR}")
    lam = tuple(lam)
    t, x, y = 0.0, x_plus(h_in), 0.0
    fx, fy = vector_field(t, (x, y), lam)
    h_abs = _initial_step(x, y, fx, fy, lam, cfg.max_time, cfg)
    discarded = 0
    while t < cfg.max_time:
        t_new, x_new, y_new, fx_new, fy_new, h_next = _accepted_step(t, x, y, fx, fy, h_abs, lam, cfg.max_time, cfg)
        if y > 0.0 >= y_new:
            crossing = _crossing(t, x, y, fy, t_new, lam, cfg)
            if crossing is None:
                # a shorter step ends before the crossing or brings it
                # within reach of an accurate step in y
                h_abs = 0.5 * (t_new - t)
                if h_abs < _min_step(t):
                    raise StepFailure(f"crossing of y = 0 not resolved at t={t:.6g} (h_in={h_in})")
                continue
            t_cross, x_cross = crossing
            if x_cross > SQRT2:
                return ReturnMapSample(
                    h_in=float(h_in), h_out=energy((x_cross, 0.0)), flow_time=t_cross, crossings=discarded
                )
            discarded += 1
            if discarded >= MAX_DISCARD:
                raise TimeCap(
                    f"orbit absorbed: {discarded} off-section crossings without a return (h_in={h_in}, lam={lam})"
                )
        t, x, y, fx, fy, h_abs = t_new, x_new, y_new, fx_new, fy_new, h_next
        if max(abs(x), abs(y)) >= ESCAPE_BOUND:
            raise _escaped(t)
    raise TimeCap(f"no return within max_time={cfg.max_time} (h_in={h_in}, discarded={discarded})")


def displacement(h_in: float, lam, cfg: IntegratorConfig | None = None) -> float:
    """P(h_in) - h_in for the first return map."""
    return return_map(h_in, lam, cfg).h_out - h_in


# --------------------------------------------------------------------------
# Limit-cycle detection
# --------------------------------------------------------------------------


def find_limit_cycles(
    lam,
    h_range,
    grid_n: int = 32,
    cfg: IntegratorConfig | None = None,
    refine_tol: float = 1e-4,
    epsilon: float = float("nan"),
) -> list:
    """Sign-change fixed points of the return map on a geometric h-grid.

    The grid is read by count_zeros' rule (melnikov._sign_changes): a grid
    point where the return map fails (a NumericalFailure, logged, is NaN)
    or the displacement is exactly 0.0 has no sign and drops out; if the
    map fails at every grid point, the last failure is raised.  Each
    bracket is bisected to a width below refine_tol, stopping where the
    return map fails, and carries the secant-slope stability sign.
    epsilon is carried through to the records for bookkeeping only.
    """
    failures = []

    def disp(h):
        try:
            return displacement(h, lam, cfg)
        except NumericalFailure as exc:
            logger.info("return map at h=%.6g skipped: %s", h, exc)
            failures.append(exc)
            return math.nan

    samples = [(h, disp(h)) for h in np.geomspace(float(h_range[0]), float(h_range[1]), grid_n)]
    if failures and len(failures) == len(samples):
        raise failures[-1]  # an arc with no return map on its grid has no count, not a count of 0
    return [
        LimitCycleRecord(
            h_star=float(0.5 * (lo + hi)),
            bracket=(float(lo), float(hi)),
            stability=int(math.copysign(1.0, (dhi - dlo) / (hi - lo))),
            epsilon=epsilon,
        )
        for lo, hi, dlo, dhi in _sign_changes(disp, samples, refine_tol)
    ]


# --------------------------------------------------------------------------
# Displacement-vs-bifurcation-function comparisons
# --------------------------------------------------------------------------

class ConvergenceRow(NamedTuple):
    eps: float
    h: float
    scaled_displacement: float  # displacement / eps^k
    m_k: float  # KAPPA * M_k(h), the predicted limit
    ratio: float


def melnikov_convergence(
    arc: ArcSpec,
    h_probe,
    eps_seq,
    cfg: IntegratorConfig | None = None,
) -> list:
    """Table of displacement/eps^k against KAPPA * M_k(h) over an eps ladder.

    The displacement is taken over the full contour and M_k per lobe, so
    displacement = eps^k KAPPA M_k + O(eps^(k+1)) with the exact KAPPA = 2.
    k is the lowest order with a nonzero bifurcation function along the
    arc; for arcs with none (center variety) k = 1 is used and the ratio
    column is NaN — the scaled-displacement column is the story there.
    M_k takes the quadrature backend (exact closed-form moments, any h > 0),
    once per probe energy.  eps may be negative (the expansion holds on
    both sides of the arc's origin); eps = 0 is a ValueError, raised
    before anything is integrated.
    """
    if 0.0 in eps_seq:
        raise ValueError("eps = 0 is the unperturbed system, whose displacement/eps^k is undefined")
    k = arc.leading_order() or 1
    spec = arc.melnikov_spec(k)
    m_probe = [KAPPA * mk(h, spec, backend="quadrature") for h in h_probe]
    rows = []
    for eps in eps_seq:
        lam = arc.params_at(eps)
        for h, m in zip(h_probe, m_probe):
            d = displacement(h, lam, cfg)
            scaled = d / eps**k
            ratio = scaled / m if abs(m) > 1e-12 else float("nan")
            rows.append(ConvergenceRow(eps=eps, h=h, scaled_displacement=scaled, m_k=m, ratio=ratio))
    return rows


# --------------------------------------------------------------------------
# Cyclicity sweeps
# --------------------------------------------------------------------------


def _uniform_arc(rng: np.random.Generator, orders) -> ArcSpec:
    """Arc with each lam_i = u_i eps^orders[i], the four u_i drawn uniform in [-1, 1]."""
    u = rng.uniform(-1.0, 1.0, size=4)
    return ArcSpec(coeff_table={name: (0.0,) * k + (float(c),) for name, k, c in zip(_PARAMS, orders, u)})


def arc_sampler_general(rng: np.random.Generator) -> ArcSpec:
    """First-order arc with all four coefficients uniform in [-1, 1]."""
    return _uniform_arc(rng, (1, 1, 1, 1))


def arc_sampler_no_first_order(rng: np.random.Generator) -> ArcSpec:
    """Arc with M_1 identically zero: lam1, lam4 enter at order two.

    lam2, lam3 stay first-order so the cross term makes M_2 generically
    nonzero alongside the second-order lam1, lam4 contributions.
    """
    return _uniform_arc(rng, (2, 1, 1, 2))


@dataclass(frozen=True)
class SweepSample:
    index: int
    arc: ArcSpec
    count: int
    bound: int
    failed: bool = False

    @property
    def anomaly(self) -> bool:
        return not self.failed and self.count > self.bound


@dataclass(frozen=True)
class SweepResult:
    eps: float
    h_window: tuple
    seed: int
    samples: tuple

    @property
    def histogram(self) -> dict:
        """Number of unfailed samples per limit-cycle count."""
        return dict(Counter(s.count for s in self.samples if not s.failed))

    @property
    def max_count(self) -> int:
        counts = [s.count for s in self.samples if not s.failed]
        return max(counts) if counts else 0

    @property
    def anomalies(self) -> tuple:
        return tuple(s for s in self.samples if s.anomaly)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _sweep_one(sampler, seed, eps, h_window, grid_n, cfg, refine_tol, index) -> SweepSample:
    arc = sampler(_sample_rng(seed, index))
    bound = 2 if arc.leading_order() == 1 else 5
    try:
        records = find_limit_cycles(
            arc.params_at(eps), h_window, grid_n=grid_n, cfg=cfg, refine_tol=refine_tol, epsilon=eps
        )
    except NumericalFailure as exc:  # per-sample failure, logged, never aborts the sweep
        logger.warning("sweep sample %d failed: %s", index, exc)
        return SweepSample(index=index, arc=arc, count=0, bound=bound, failed=True)
    return SweepSample(index=index, arc=arc, count=len(records), bound=bound)


def cyclicity_sweep(
    arc_family,
    eps: float,
    h_window,
    n_samples: int,
    cfg: IntegratorConfig | None = None,
    seed: int = 0,
    grid_n: int = 24,
    refine_tol: float = 1e-4,
    threads: int = 1,
) -> SweepResult:
    """Histogram of limit-cycle counts over random arcs from arc_family.

    Each sample gets its own counter-keyed generator, so results do not
    depend on worker scheduling.  threads > 1 distributes samples over
    processes (the stepper is pure Python, so threads would serialize),
    at most one per sample and one per CPU.
    """
    one = functools.partial(_sweep_one, arc_family, seed, eps, tuple(h_window), grid_n, cfg, refine_tol)
    workers = min(threads, n_samples, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(one, range(n_samples), chunksize=max(1, n_samples // (4 * workers))))
    else:
        samples = list(map(one, range(n_samples)))
    return SweepResult(eps=eps, h_window=tuple(h_window), seed=seed, samples=tuple(samples))

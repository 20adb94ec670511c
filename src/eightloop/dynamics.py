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

One ODE driver serves both integrate and the return map: the DOP853 flow
loop of the package's compiled C library (native), entered by one call
(_flows: launch points in, one row per flow out), with DOP853's tableau
(scipy's coefficients, written into native), scipy's initial step, step
control and error norm, and geometry.vector_field's return expression
written out at every stage.  It returns what the same loop on Python
floats returns, bit for bit, where that loop squares by products and takes
its norms from libm's hypot, as the tests' oracle does.  Python keeps the
argument checks and builds the exceptions and their messages from the
library's status (_failure).  integrate ends a step exactly at each output
time, so no interpolant is needed.
find_limit_cycles samples its whole grid in one library call
(_return_maps, from x_plus(h) for each energy h, of which return_map is the
one-energy case), which steps four of its energies at a time; a row depends
only on its energy, lam and cfg, never on its neighbours on the grid or on
the number of lanes, so results do not depend on that scheduling.  It
reads its cycles off the grid by the scan that count_zeros uses
(melnikov._sign_changes); each bisection midpoint is one return_map.

Random arcs use a counter-based generator keyed on (seed, sample index),
so sample i is reproducible in isolation and sweeps can be distributed
across worker processes without coordinating generator state.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .geometry import NumericalFailure, geomspace, x_plus
from .melnikov import MelnikovSpec, _sign_changes, _two_ends, mk
from .native import _STATUS, ESCAPE_BOUND, _kernel, _Row
from .series import KAPPA

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

H_FLOOR = 1e-3
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
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.max_time < math.inf:
            raise ValueError("max_time must be positive and finite")


_DEFAULT_CONFIG = IntegratorConfig()  # what a None cfg stands for, built once rather than per return map


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


def _params(lam, cfg: IntegratorConfig):
    """The library's parameter block (lam1, lam2, lam3, lam4, rel_tol, abs_tol, max_time); ValueError unless len(lam) is 4."""
    l1, l2, l3, l4 = lam
    return (ctypes.c_double * 7)(l1, l2, l3, l4, cfg.rel_tol, cfg.abs_tol, cfg.max_time)


def _failure(row: _Row, cfg: IntegratorConfig, h_in=None) -> NumericalFailure | None:
    """The NumericalFailure of the flow that ended in row, or None where it ended OK.

    h_in is the energy of a return map, named by the two failures only a
    return map has, UNRESOLVED and TIME_CAP.
    """
    status = _STATUS[int(row.status)]
    if status == "OK":
        return None
    if status == "NO_INITIAL_STEP":
        return StepFailure(f"no initial step for the slope ({row.fx:.3g}, {row.fy:.3g}) at t=0")
    if status == "STEP_FAILURE":
        return StepFailure(f"step size {row.h_abs:.3g} below {row.min_h:.3g} at t={row.t:.6g}")
    if status == "NON_FINITE_ERROR":
        return StepFailure(f"non-finite error estimate at t={row.t:.6g}")
    if status == "ESCAPED":
        return EscapedRegion(f"orbit left |x|,|y| < {ESCAPE_BOUND} at t={row.t:.3f}")
    if status == "UNRESOLVED":
        return StepFailure(f"crossing of y = 0 not resolved at t={row.t:.6g} (h_in={h_in})")
    return TimeCap(f"no return within max_time={cfg.max_time} (h_in={h_in}, discarded={int(row.discarded)})")


def _flows(points, lam, cfg: IntegratorConfig, ts=None) -> tuple:
    """The library's flows from the launch points (x, y) at t = 0, in one call: (one _Row each, the states).

    With ts None, each flow goes to its first return to the section.  With
    ts, a buffer of output times as integrate checks them, each goes to
    each time, and the states (a ctypes array) hold flow r's (x, y) at ts[i]
    from index 2 (len(ts) r + i); an empty ts is still an array, not NULL.
    """
    n, width, m = len(points), len(_Row._fields), 0 if ts is None else len(ts)
    rows = (ctypes.c_double * (width * n))()
    rows[2::width] = [x for x, _ in points]
    rows[3::width] = [y for _, y in points]
    times = None if ts is None else (ctypes.c_double * m).from_buffer_copy(ts)
    states = (ctypes.c_double * (2 * n * m))()
    _kernel().flows(_params(lam, cfg), rows, n, times, m, states)
    return list(map(_Row._make, zip(*[iter(rows[:])] * width))), states  # the values, width at a time


def integrate(p0, lam, ts, cfg: IntegratorConfig | None = None) -> np.ndarray:
    """States (x, y) of the flow from p0 at the times ts, as an array of shape (len(ts), 2).

    ts must be non-decreasing and start at or after t = 0: the flow is
    stepped forward only, and a step ends exactly at each output time.
    Negative, decreasing or NaN times and a last time beyond cfg.max_time
    are out-of-range arguments and raise ValueError up front; EscapedRegion
    if a step ends outside the working box, as in return_map; StepFailure
    if the step size collapses, a step's error estimate is not finite or
    the slope at p0 leaves no initial step.
    """
    import numpy as np  # imported here: only integrate's array output needs it

    cfg = cfg or _DEFAULT_CONFIG
    ts = np.ascontiguousarray(ts, dtype=float)
    if not (np.all(ts >= 0.0) and np.all(np.diff(ts) >= 0.0)):
        raise ValueError("output times must be non-negative and non-decreasing")
    t_end = float(ts[-1]) if len(ts) else 0.0
    if t_end > cfg.max_time:
        raise ValueError(f"requested t_end={t_end} exceeds max_time={cfg.max_time}")
    [row], states = _flows([(float(p0[0]), float(p0[1]))], lam, cfg, ts)
    failure = _failure(row, cfg)
    if failure is not None:
        raise failure
    return np.array(states).reshape(len(ts), 2)


def _return_maps(hs, lam, cfg: IntegratorConfig) -> list:
    """The first returns to the section from (x_plus(h), 0), one _Row per energy of hs; ValueError for a non-finite h."""
    return _flows([(x_plus(h), 0.0) for h in hs], lam, cfg)[0]


def return_map(h_in: float, lam, cfg: IntegratorConfig | None = None) -> ReturnMapSample:
    """First return to Sigma = {y = 0, x >= sqrt(2)} in the energy chart.

    Launches from (x_plus(h_in), 0) and steps with DOP853 under scipy's
    step control.  A step that takes y from positive to non-positive holds
    a downward crossing, located by one DOP853 step in y from the step's
    start to y = 0 (Henon's trick); where that step is not valid, the flow
    step is retried at half the length.  The first crossing with
    x > sqrt(2) is the return; crossings inside the lobes are counted and
    discarded, and stepping goes on.  TimeCap if the time budget runs out;
    EscapedRegion if the orbit leaves the working box; StepFailure if the
    step size collapses, a step's error estimate is not finite or the
    slope at the launch point leaves no initial step.  This is _return_maps
    at the one energy h_in, the call that find_limit_cycles makes once for
    its whole grid.  That call steps four energies at a time, each on a
    lane of its own, so the sample depends only on h_in, lam and cfg: it is
    the same alone and anywhere on a grid, whatever the number of lanes.
    """
    cfg = cfg or _DEFAULT_CONFIG
    if h_in < H_FLOOR:
        raise ValueError(f"h_in below section floor {H_FLOOR}")
    [row] = _return_maps((h_in,), lam, cfg)
    failure = _failure(row, cfg, h_in)
    if failure is not None:
        raise failure
    return ReturnMapSample(h_in=float(h_in), h_out=row.h_out, flow_time=row.t_cross, crossings=int(row.discarded))


def _displacements(hs, lam, cfg: IntegratorConfig) -> list:
    """displacement at each energy of hs (each finite and at least H_FLOOR) from one library call.

    Each entry is P(h) - h, or the NumericalFailure return_map raises at h.
    """
    values = []
    for h, row in zip(hs, _return_maps(hs, lam, cfg)):
        failure = _failure(row, cfg, h)
        values.append(row.h_out - h if failure is None else failure)
    return values


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

    The grid's return maps are one library call.  The grid is read by count_zeros' rule (melnikov._sign_changes): a grid
    point where the return map fails (a NumericalFailure, logged, is NaN)
    or the displacement is exactly 0.0 has no sign and drops out; if the
    map fails at every grid point, the last failure is raised.  Each
    bracket is bisected to a width below refine_tol, stopping where the
    return map fails, and carries the secant-slope stability sign.
    epsilon is carried through to the records for bookkeeping only.
    ValueError for a grid_n below 2, an h_range without two ends, one that
    is not increasing or one that starts below H_FLOOR.
    """
    h_min, h_max = map(float, _two_ends("h_range", h_range))
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    if not h_min < h_max:
        raise ValueError(f"h_range must be increasing, got ({h_min!r}, {h_max!r})")
    hs = geomspace(h_min, h_max, grid_n)
    if h_min < H_FLOOR:
        raise ValueError(f"h_in below section floor {H_FLOOR}")
    cfg = cfg or _DEFAULT_CONFIG
    failures = []

    def skipped(h, exc):
        logger.info("return map at h=%.6g skipped: %s", h, exc)
        failures.append(exc)
        return math.nan

    def disp(h):
        try:
            return displacement(h, lam, cfg)
        except NumericalFailure as exc:
            return skipped(h, exc)

    samples = [
        (h, skipped(h, d) if isinstance(d, NumericalFailure) else d) for h, d in zip(hs, _displacements(hs, lam, cfg))
    ]
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
    both sides of the arc's origin); eps = 0, and an eps whose eps^k
    underflows to 0.0 or overflows, is a ValueError, raised before anything
    is integrated.
    """
    if 0.0 in eps_seq:
        raise ValueError("eps = 0 is the unperturbed system, whose displacement/eps^k is undefined")
    k = arc.leading_order() or 1
    for eps in eps_seq:
        try:
            in_range = eps**k != 0.0
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(f"eps = {eps!r} has no float eps^{k} (0.0 or an overflow), so displacement/eps^k is undefined")
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
    count: int | None  # None for a failed sample: an arc with no return map on its grid has no count
    bound: int

    @property
    def failed(self) -> bool:
        return self.count is None

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
    import numpy as np  # imported here: only a sweep's arc sampling needs it

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
        return SweepSample(index=index, arc=arc, count=None, bound=bound)
    return SweepSample(index=index, arc=arc, count=len(records), bound=bound)


def cyclicity_sweep(
    arc_family,
    eps: float,
    h_window,
    n_samples: int,
    cfg: IntegratorConfig | None = None,
    seed: int = 0,
    *,
    grid_n: int,
    refine_tol: float,
    threads: int = 1,
) -> SweepResult:
    """Histogram of limit-cycle counts over random arcs from arc_family.

    Each sample gets its own counter-keyed generator, so results do not
    depend on worker scheduling.  threads > 1 distributes samples over
    processes, each loading the compiled library from its cache, at
    most one per sample and one per CPU.  ValueError, before any sample
    runs, for a seed outside [0, 2**64), the Philox key's range, a negative
    n_samples or an h_window without two ends.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    h_window = _two_ends("h_window", h_window)
    one = functools.partial(_sweep_one, arc_family, seed, eps, h_window, grid_n, cfg, refine_tol)
    workers = min(threads, n_samples, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: a one-process sweep never loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(one, range(n_samples), chunksize=max(1, n_samples // (4 * workers))))
    else:
        samples = list(map(one, range(n_samples)))
    return SweepResult(eps=eps, h_window=h_window, seed=seed, samples=tuple(samples))

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
therefore counted and discarded (the crossings field of the sample), and a
run that only produces such crossings ends in TimeCap: the return map is
genuinely undefined there, which the callers record rather than hide.

Random arcs use a counter-based generator keyed on (seed, sample index),
so sample i is reproducible in isolation and sweeps can be distributed
across worker processes without coordinating generator state.
"""

from __future__ import annotations

import functools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .geometry import SQRT2, PerturbationParams, energy, vector_field, x_plus
from .melnikov import MelnikovSpec, mk

logger = logging.getLogger(__name__)

H_FLOOR = 1e-3
ESCAPE_BOUND = 10.0
MAX_DISCARD = 64  # off-section crossings a return map may discard before TimeCap
MAX_LEADING_ORDER = 4  # highest arc order ArcSpec.leading_order inspects


class TimeCap(RuntimeError):
    """Flow-time budget exhausted without a completed return."""


class EscapedRegion(RuntimeError):
    """Trajectory left the working box |x|, |y| < 10."""


class StepFailure(RuntimeError):
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
    missing parameters are identically zero.  order is the truncation
    order in eps.
    """

    coeff_table: dict
    order: int = 2

    def __post_init__(self):
        for name, seq in self.coeff_table.items():
            if name not in ("lam1", "lam2", "lam3", "lam4"):
                raise ValueError(f"unknown parameter {name!r}")
            if seq and seq[0] != 0.0:
                raise ValueError("arc must pass through lam = 0 at eps = 0")

    def _coeff(self, name: str, k: int) -> float:
        seq = self.coeff_table.get(name, ())
        return float(seq[k]) if k < len(seq) else 0.0

    def params_at(self, eps: float) -> PerturbationParams:
        vals = []
        for name in ("lam1", "lam2", "lam3", "lam4"):
            acc = 0.0
            for k in range(self.order, 0, -1):
                acc = (acc + self._coeff(name, k)) * eps
            vals.append(acc)
        return PerturbationParams(*vals)

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
        """Lowest k <= MAX_LEADING_ORDER with a nonzero bifurcation function, or None."""
        for k in range(1, MAX_LEADING_ORDER + 1):
            s = self.melnikov_spec(k)
            if s.lam1k != 0.0 or s.lam4k != 0.0 or s.cross_coefficient != 0.0:
                return k
        return None


# --------------------------------------------------------------------------
# Flow
# --------------------------------------------------------------------------


def _solve(t_span, state, lam: tuple, cfg: IntegratorConfig, **kwargs):
    """The one solver set-up both integrators use: DOP853 at cfg's tolerances."""
    return solve_ivp(
        vector_field,
        t_span,
        state,
        args=(lam,),
        method="DOP853",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        **kwargs,
    )


def _ev_down(t, state, lam):
    return state[1]


_ev_down.direction = -1
# terminal=2: launching from the section means y = 0 at t = 0, which the
# event machinery reports as a crossing; the second event is the real one.
_ev_down.terminal = 2


def _ev_escape(t, state, lam):
    return max(abs(state[0]), abs(state[1])) - ESCAPE_BOUND


_ev_escape.terminal = True


class Trajectory(NamedTuple):
    """Dense-output trajectory: t, states, and a queryable interpolant."""

    t: np.ndarray
    states: np.ndarray  # shape (n, 2)
    interpolant: Callable  # t -> (x, y), vectorized in t


def integrate(p0, lam, t_end: float, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Flow from p0 for time t_end with dense output.

    t_end beyond cfg.max_time raises TimeCap up front; a solver breakdown
    raises StepFailure.
    """
    cfg = cfg or IntegratorConfig()
    if t_end > cfg.max_time:
        raise TimeCap(f"requested t_end={t_end} exceeds max_time={cfg.max_time}")
    sol = _solve((0.0, t_end), (float(p0[0]), float(p0[1])), tuple(lam), cfg, dense_output=True)
    if sol.status != 0:
        raise StepFailure(sol.message)
    return Trajectory(t=sol.t, states=sol.y.T, interpolant=sol.sol)


def return_map(h_in: float, lam, cfg: IntegratorConfig | None = None) -> ReturnMapSample:
    """First return to Sigma = {y = 0, x >= sqrt(2)} in the energy chart.

    Launches from (x_plus(h_in), 0); accepts the first downward crossing of
    y = 0 with x > sqrt(2), discarding (and counting) crossings inside the
    lobes.  TimeCap if the time budget or the MAX_DISCARD budget runs out;
    EscapedRegion if the orbit leaves the working box.
    """
    cfg = cfg or IntegratorConfig()
    if h_in < H_FLOOR:
        raise ValueError(f"h_in below section floor {H_FLOOR}")
    state = (x_plus(h_in), 0.0)
    lam = tuple(lam)
    t0 = 0.0
    discarded = 0
    while t0 < cfg.max_time and discarded < MAX_DISCARD:
        sol = _solve((t0, cfg.max_time), state, lam, cfg, events=(_ev_down, _ev_escape))
        if sol.t_events[1].size:
            raise EscapedRegion(f"orbit left |x|,|y| < {ESCAPE_BOUND} at t={sol.t_events[1][0]:.3f}")
        if sol.status == -1:
            raise StepFailure(sol.message)
        # drop the event the launch itself triggers (y = 0 at departure)
        hits = [
            (float(te), float(xy[0]), float(xy[1]))
            for te, xy in zip(sol.t_events[0], sol.y_events[0])
            if te > t0 + 1e-12
        ]
        if not hits:
            raise TimeCap(f"no return within max_time={cfg.max_time} (h_in={h_in}, discarded={discarded})")
        for te, xe, ye in hits:
            if xe > SQRT2:
                return ReturnMapSample(
                    h_in=float(h_in), h_out=energy((xe, ye)), flow_time=te, crossings=discarded
                )
            discarded += 1
            state = (xe, ye)
            t0 = te
        if sol.status == 0:
            break  # time budget spent entirely on off-section crossings
    raise TimeCap(
        f"orbit absorbed: {discarded} off-section crossings without a return (h_in={h_in}, lam={lam})"
    )


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

    Per-sample failures (TimeCap and friends) are logged and skipped; each
    bracket is refined by bisection until its width is below refine_tol and
    carries the secant-slope stability sign.  epsilon is carried through to
    the records for bookkeeping only.
    """
    cfg = cfg or IntegratorConfig()
    h_lo, h_hi = float(h_range[0]), float(h_range[1])
    if h_lo < H_FLOOR:
        raise ValueError(f"h_range must start at or above h_floor={H_FLOOR}")
    grid = np.geomspace(h_lo, h_hi, grid_n)
    disp = {}
    for h in grid:
        try:
            disp[h] = displacement(h, lam, cfg)
        except (TimeCap, EscapedRegion, StepFailure) as exc:
            logger.info("sample h=%.6g skipped: %s", h, exc)
    records = []
    hs = [h for h in grid if h in disp]
    for h0, h1 in zip(hs[:-1], hs[1:]):
        d0, d1 = disp[h0], disp[h1]
        if d0 == 0.0 or d0 * d1 >= 0.0:
            continue
        lo, hi, dlo, dhi = h0, h1, d0, d1
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            try:
                dm = displacement(mid, lam, cfg)
            except (TimeCap, EscapedRegion, StepFailure) as exc:
                logger.info("refinement at h=%.6g abandoned: %s", mid, exc)
                break
            if dlo * dm <= 0.0:
                hi, dhi = mid, dm
            else:
                lo, dlo = mid, dm
        slope = (dhi - dlo) / (hi - lo)
        records.append(
            LimitCycleRecord(
                h_star=float(0.5 * (lo + hi)),
                bracket=(float(lo), float(hi)),
                stability=int(math.copysign(1.0, slope)),
                epsilon=epsilon,
            )
        )
    return records


# --------------------------------------------------------------------------
# Displacement-vs-bifurcation-function comparisons
# --------------------------------------------------------------------------

def measure_displacement_scale(cfg: IntegratorConfig | None = None) -> float:
    """Global scale s with displacement ~ eps^k * s * M_k, measured once per config.

    The per-lobe normalization of the integrals differs from the
    full-contour displacement by the contour constant, so s is expected to
    land on kappa; it is measured from the arc eps*(1,0,0,0) at h = 0.2,
    eps = 1e-4, and cached for the process, one value per IntegratorConfig.
    """
    return _displacement_scale(cfg or IntegratorConfig())


@functools.cache
def _displacement_scale(cfg: IntegratorConfig) -> float:
    eps = 1e-4
    d = displacement(0.2, (eps, 0.0, 0.0, 0.0), cfg)
    m = mk(0.2, MelnikovSpec(k=1, lam1k=1.0, lam4k=0.0), backend="quadrature")
    return d / (eps * m)


class ConvergenceRow(NamedTuple):
    eps: float
    h: float
    scaled_displacement: float  # displacement / eps^k
    m_k: float  # s * M_k(h), the predicted limit
    ratio: float


def melnikov_convergence(
    arc: ArcSpec,
    h_probe,
    eps_seq,
    cfg: IntegratorConfig | None = None,
) -> list:
    """Table of displacement/eps^k against s*M_k(h) over an eps ladder.

    k is the lowest order with a nonzero bifurcation function along the
    arc; for arcs with none (center variety) k = 1 is used and the ratio
    column is NaN — the scaled-displacement column is the story there.
    The quadrature backend is used for M_k so probes beyond the series
    trust region are fine.
    """
    cfg = cfg or IntegratorConfig()
    k = arc.leading_order() or 1
    spec = arc.melnikov_spec(k)
    s = measure_displacement_scale(cfg)
    rows = []
    for eps in eps_seq:
        lam = arc.params_at(eps)
        for h in h_probe:
            d = displacement(h, lam, cfg)
            m = s * mk(h, spec, backend="quadrature")
            scaled = d / eps**k
            ratio = scaled / m if abs(m) > 1e-12 else float("nan")
            rows.append(ConvergenceRow(eps=eps, h=h, scaled_displacement=scaled, m_k=m, ratio=ratio))
    return rows


# --------------------------------------------------------------------------
# Cyclicity sweeps
# --------------------------------------------------------------------------


def arc_sampler_general(rng: np.random.Generator) -> ArcSpec:
    """First-order arc with all four coefficients uniform in [-1, 1]."""
    u = rng.uniform(-1.0, 1.0, size=4)
    return ArcSpec(
        coeff_table={
            "lam1": (0.0, float(u[0])),
            "lam2": (0.0, float(u[1])),
            "lam3": (0.0, float(u[2])),
            "lam4": (0.0, float(u[3])),
        },
        order=2,
    )


def arc_sampler_no_first_order(rng: np.random.Generator) -> ArcSpec:
    """Arc with M_1 identically zero: lam1, lam4 enter at order two.

    lam2, lam3 stay first-order so the cross term makes M_2 generically
    nonzero alongside the second-order lam1, lam4 contributions.
    """
    u = rng.uniform(-1.0, 1.0, size=4)
    return ArcSpec(
        coeff_table={
            "lam1": (0.0, 0.0, float(u[0])),
            "lam2": (0.0, float(u[1])),
            "lam3": (0.0, float(u[2])),
            "lam4": (0.0, 0.0, float(u[3])),
        },
        order=2,
    )


@dataclass(frozen=True)
class SweepSample:
    index: int
    arc: ArcSpec
    count: int
    bound: int
    records: tuple
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
    histogram: dict = field(default_factory=dict)

    @property
    def max_count(self) -> int:
        counts = [s.count for s in self.samples if not s.failed]
        return max(counts) if counts else 0

    @property
    def anomalies(self) -> tuple:
        return tuple(s for s in self.samples if s.anomaly)


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _sweep_one(args) -> SweepSample:
    sampler, seed, index, eps, h_window, grid_n, cfg, refine_tol = args
    arc = sampler(_sample_rng(seed, index))
    spec1 = arc.melnikov_spec(1)
    bound = 2 if (spec1.lam1k != 0.0 or spec1.lam4k != 0.0) else 5
    try:
        records = find_limit_cycles(
            arc.params_at(eps), h_window, grid_n=grid_n, cfg=cfg, refine_tol=refine_tol, epsilon=eps
        )
    except (TimeCap, EscapedRegion, StepFailure) as exc:  # per-sample failure, logged, never aborts the sweep
        logger.warning("sweep sample %d failed: %s", index, exc)
        return SweepSample(index=index, arc=arc, count=0, bound=bound, records=(), failed=True)
    return SweepSample(index=index, arc=arc, count=len(records), bound=bound, records=tuple(records))


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
    processes (the stepper is pure Python, so threads would serialize).
    """
    cfg = cfg or IntegratorConfig()
    jobs = [
        (arc_family, seed, i, eps, tuple(h_window), grid_n, cfg, refine_tol)
        for i in range(n_samples)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            samples = list(pool.map(_sweep_one, jobs, chunksize=max(1, n_samples // (4 * threads))))
    else:
        samples = [_sweep_one(j) for j in jobs]
    hist: dict = {}
    for s in samples:
        if not s.failed:
            hist[s.count] = hist.get(s.count, 0) + 1
    return SweepResult(eps=eps, h_window=tuple(h_window), seed=seed, samples=tuple(samples), histogram=hist)

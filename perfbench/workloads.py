"""The benchmark's workloads: inputs made from a seed, one timed round, and its gates.

Each workload builds its inputs and references once, untimed.  ``run_round``
is the timed section: it only calls the program, times each operation and
returns the outcome with the operations' times.  ``check`` reads what the
round produced, applies the workload's correctness gate and tallies the
operations attempted and failed.

Every workload keeps its per-round cost nearly independent of the seed, so
that runs with different seeds measure the same amount of work:

* ``sweep`` runs one sweep per family and picks its scenario seed so that the
  sweep's arcs fall one into each of equal strata of the quantity that
  decides whether orbits near the loop are captured by a lobe (a captured
  orbit costs a whole TimeCap, ~15 ordinary return maps);
* ``cycle-search`` plants one arc with a single zero of M_1 in the window and
  one with two zeros, so every round refines the same number of brackets;
* ``moments`` gives every M_k two zeros inside both backends' intervals.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import eightloop as el
from eightloop import cli

EPS = 1e-3
DEFAULT_SEED = 6  # sweep results at this seed, which finds cycles, are recorded in sweep_reference.json


@dataclass
class Tally:
    """Operations attempted and failed, by cause; gate violations are kept verbatim."""

    attempted: int = 0
    failed_samples: int = 0
    nonzero_exits: int = 0
    violations: list = field(default_factory=list)
    bytes_written: int = 0  # by the most recent round

    @property
    def failed(self) -> int:
        return self.failed_samples + self.nonzero_exits + len(self.violations)

    def gate(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.violations.append(message)

    def exit_status(self, status: int) -> bool:
        """Count one scenario run; a non-zero exit is a failure."""
        self.attempted += 1
        if status != 0:
            self.nonzero_exits += 1
            return False
        return True


def _timed(times: list, fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    times.append(perf_counter() - start)
    return result


def _scenario(command: str, params: dict, seed: int, out: Path):
    return cli.parse_scenario({"command": command, "parameters": params, "seed": seed}, out_override=str(out))


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _csv_rows(path: Path) -> list:
    with open(path) as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _quad_moments(h: float) -> tuple:
    """Full-contour (I0, I2, I4') by quadrature; ratios equal the per-lobe ones."""
    return (
        el.integral_xiy(h, 0)[0],
        el.integral_xiy(h, 2)[0],
        el.integral_xi_over_y(h, 4)[0],
    )


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

SWEEP_WINDOW = (1e-3, 0.2)
RECORDED = Path(__file__).with_name("sweep_reference.json")
EDGE_POOL = 4096  # arcs per family that fix the strata edges
EDGE_POOL_SEED = 2**40  # scenario seeds of the edge pool, apart from any a run draws

# family -> (sampler, stratification key).  For general arcs the loop value
# c0 = M_1(0+) decides whether orbits near the loop lose energy and fall into
# a lobe; without first-order dissipation the conservative lam2 x^2 term
# decides it.
SWEEP_FAMILIES = {
    "general": (el.arc_sampler_general, lambda arc: el.leading_coeffs(arc.melnikov_spec(1)).c0),
    "no-first-order": (el.arc_sampler_no_first_order, lambda arc: arc.coeff_table["lam2"][1]),
}


def _sweep_arc(sampler, scenario_seed: int, index: int):
    """The arc the CLI draws as sample ``index`` of a sweep with this seed (generator keyed on (seed, index))."""
    key = np.array([scenario_seed, index], dtype=np.uint64)
    return sampler(np.random.Generator(np.random.Philox(key=key)))


def _arc_doc(arc) -> dict:
    return {k: [float(c) for c in v] for k, v in sorted(arc.coeff_table.items())}


def _stratified_seed(sampler, key, first_seed: int, n: int) -> tuple:
    """The first scenario seed from ``first_seed`` on whose n arcs fall one into each of n fixed strata.

    The strata are the n quantile ranges of the key over a fixed pool of
    arcs, so every run sweeps arcs spread alike over the key.  About one
    seed in n^n / n! qualifies; a seed is dropped at its first arc that lands
    in a stratum already taken.  Returns the seed and its arcs by index.
    """
    pool = [key(_sweep_arc(sampler, EDGE_POOL_SEED + i, 0)) for i in range(EDGE_POOL)]
    edges = np.quantile(pool, np.arange(1, n) / n)
    seed = first_seed
    while True:
        taken, arcs = set(), []
        for index in range(n):
            arc = _sweep_arc(sampler, seed, index)
            stratum = int(np.searchsorted(edges, key(arc)))
            if stratum in taken:
                break
            taken.add(stratum)
            arcs.append(arc)
        else:
            return seed, arcs
        seed += 1


class Sweep:
    """One ``cyclicity-sweep`` scenario per family through ``cli.run``, each over all of the family's arcs."""

    name = "sweep"

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.per_family = {"full": 8, "tiny": 1}[size]
        # per-family histogram and failed count recorded at the default seed
        recorded = json.loads(RECORDED.read_text())
        self.reference = recorded.get(size) if seed == recorded["seed"] else None
        self.jobs = []  # (family, expected arc documents by index, scenario)
        for f_index, (family, (sampler, key)) in enumerate(SWEEP_FAMILIES.items()):
            s, arcs = _stratified_seed(sampler, key, seed * 2**20 + f_index * 2**19, self.per_family)
            params = {"family": family, "eps": EPS, "h_window": list(SWEEP_WINDOW), "n_samples": self.per_family}
            scenario = _scenario("cyclicity-sweep", params, s, out_dir / "sweep" / family)
            self.jobs.append((family, [_arc_doc(arc) for arc in arcs], scenario))
        self.arcs = self.per_family * len(self.jobs)
        self.first_counts = None

    def run_round(self) -> tuple:
        times = []
        return [_timed(times, cli.run, scenario, threads=1) for *_, scenario in self.jobs], times

    def check(self, statuses: list, tally: Tally) -> None:
        self.histograms = {}
        counts = []
        tally.bytes_written = 0
        for (family, arc_docs, scenario), status in zip(self.jobs, statuses):
            out = scenario.output_dir
            tally.bytes_written += _bytes_under(out)
            if not tally.exit_status(status):
                counts.append(None)
                continue
            docs = [json.loads(line) for line in (out / "sweep.jsonl").read_text().splitlines()]
            summary = json.loads((out / "sweep_summary.json").read_text())
            tally.gate(
                [d["index"] for d in docs] == list(range(self.per_family))
                and [d["arc"] for d in docs] == arc_docs,
                f"sweep: {family} seed {scenario.seed} did not sample the arcs keyed on (seed, index)",
            )
            n_counted = sum(summary["histogram"].values())
            tally.gate(
                n_counted + summary["n_failed"] == self.per_family,
                f"sweep: {family} seed {scenario.seed}: {n_counted} counted + {summary['n_failed']} failed "
                f"!= {self.per_family} attempted",
            )
            tally.attempted += len(docs)  # the samples; a failed one counts as a failure
            tally.failed_samples += summary["n_failed"]
            self.histograms[family] = {"histogram": summary["histogram"], "failed": summary["n_failed"]}
            counts.append([(d["count"], d["failed"]) for d in docs])
        if self.first_counts is None:
            self.first_counts = counts
        tally.gate(counts == self.first_counts, "sweep: counts changed between rounds on identical inputs")
        if self.reference is not None:
            for family, want in self.reference.items():
                got = self.histograms.get(family)
                tally.gate(got == want, f"sweep: {family} histogram {got} != recorded {want}")


# --------------------------------------------------------------------------
# cycle-search
# --------------------------------------------------------------------------

SEARCH_WINDOW = (0.02, 0.4)
STRICT = el.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
SEARCH_GRID_N = 48
SEARCH_REFINE_TOL = 1e-5
EPS_LADDER = (EPS, EPS / 3.0, EPS / 10.0)

# I0/I2 rises from 1.255 at the loop to a maximum near h = 0.09 and falls
# after it, so M_1 = lam1 (I0 - r I2) vanishes where I0/I2 = r.  A zero planted
# in the first range has its partner below the window; one planted in the
# second has its partner inside it, near h = 0.13-0.17.
PLANT_RANGES = ((0.24, 0.34), (0.035, 0.055))


class CycleSearch:
    """``find_limit_cycles`` with the anomaly-investigation settings on planted arcs, plus two scenarios."""

    name = "cycle-search"

    def __init__(self, seed: int, size: str, out_dir: Path):
        rng = np.random.default_rng([seed, 2])
        self.planted = []  # (h0, lam1, lam4)
        for lo, hi in PLANT_RANGES[: {"full": 2, "tiny": 1}[size]]:
            h0 = float(rng.uniform(lo, hi))
            lam1 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
            i0, i2, _ = _quad_moments(h0)
            self.planted.append((h0, lam1, -lam1 * i0 / i2))
        # the reference: zeros of M_1 on the same window, found by count_zeros
        self.reference = [
            [z for z, _ in el.count_zeros(
                lambda h, a=lam1, b=lam4: el.m1(h, a, b, backend="quadrature"),
                SEARCH_WINDOW, grid_n=128, refine_tol=1e-9,
            ).zeros]
            for _, lam1, lam4 in self.planted
        ]
        self.arcs = len(self.planted)
        self.convergence = _scenario(
            "convergence",
            {"coeff_table": {"lam1": [0.0, 1.0], "lam4": [0.0, float(rng.uniform(-0.5, 0.5))]}},
            seed,
            out_dir / "convergence",
        )
        self.h0_simulate = float(rng.uniform(0.05, 1.0))
        self.simulate = _scenario("simulate", {"h0": self.h0_simulate, "t_end": 20.0}, seed, out_dir / "simulate")

    def run_round(self) -> tuple:
        times = []
        records = [
            [
                _timed(
                    times, el.find_limit_cycles, (eps * lam1, 0.0, 0.0, eps * lam4), SEARCH_WINDOW,
                    grid_n=SEARCH_GRID_N, cfg=STRICT, refine_tol=SEARCH_REFINE_TOL, epsilon=eps,
                )
                for eps in EPS_LADDER
            ]
            for _, lam1, lam4 in self.planted
        ]
        statuses = [_timed(times, cli.run, s, threads=1) for s in (self.convergence, self.simulate)]
        return (records, *statuses), times

    def check(self, outcome: tuple, tally: Tally) -> None:
        records, conv_status, sim_status = outcome
        for (h0, _, _), zeros, ladder in zip(self.planted, self.reference, records):
            tally.gate(
                any(abs(z - h0) < 1e-6 for z in zeros),
                f"cycle-search: reference misses the planted zero {h0} (zeros {zeros})",
            )
            for eps, recs in zip(EPS_LADDER, ladder):
                tally.attempted += 1  # the search itself
                found = sorted(r.h_star for r in recs)
                tol = SEARCH_REFINE_TOL + eps
                tally.gate(
                    len(found) == len(zeros) and all(abs(a - b) <= tol for a, b in zip(found, zeros)),
                    f"cycle-search: eps={eps:g} cycles {found} != M_1 zeros {zeros} within {tol:g}",
                )
        tally.bytes_written = 0
        for scenario, status in ((self.convergence, conv_status), (self.simulate, sim_status)):
            tally.bytes_written += _bytes_under(scenario.output_dir)
            if not tally.exit_status(status):
                return
        rows = _csv_rows(self.convergence.output_dir / "convergence.csv")
        eps_min = min(float(r["eps"]) for r in rows)
        worst = max(abs(float(r["ratio"]) - 1.0) for r in rows if float(r["eps"]) == eps_min)
        tally.gate(worst < 0.05, f"cycle-search: convergence ratio off by {worst:.3g} at eps={eps_min:g}")
        rows = _csv_rows(self.simulate.output_dir / "trajectory.csv")
        drift = max(abs(float(r["H"]) - self.h0_simulate) for r in rows)
        tally.gate(
            len(rows) == 2001 and drift < 1e-8,
            f"cycle-search: simulate wrote {len(rows)} rows with energy drift {drift:.3g}",
        )


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------

BACKEND_INTERVALS = {"quadrature": (1e-3, 0.3), "series": (1e-3, 0.2)}
PF_RANGE, PF_N = (1e-4, 3.0), 50
FIT_RANGE, FIT_N = (0.01, 0.15), 24
AGREEMENT_WINDOW = (0.02, 0.1)
REFERENCE_GRID = np.geomspace(1e-3, 0.3, 400)


def _log_grid(rng, lo: float, hi: float, n: int) -> dict:
    """Parameters of an n-point log grid whose ends sit up to 20% inside [lo, hi]."""
    return {"h_min": lo * float(rng.uniform(1.0, 1.2)), "h_max": hi / float(rng.uniform(1.0, 1.2)), "n": n}


class Moments:
    """``pf-check``, ``series-fit`` and ``melnikov-zeros`` through ``cli.run`` with both backends."""

    name = "moments"

    def __init__(self, seed: int, size: str, out_dir: Path):
        rng = np.random.default_rng([seed, 3])
        n_per_k = {"full": 3, "tiny": 1}[size]
        self.pf = _scenario("pf-check", _log_grid(rng, *PF_RANGE, PF_N), seed, out_dir / "pf")
        self.fit = _scenario("series-fit", _log_grid(rng, *FIT_RANGE, FIT_N), seed, out_dir / "fit")
        specs = []  # (params, planted zeros)
        for _ in range(n_per_k):
            h0 = float(rng.uniform(0.035, 0.055))  # partner zero near h = 0.13-0.17, see PLANT_RANGES
            lam1 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
            i0, i2, _ = _quad_moments(h0)
            specs.append(({"k": 1, "lam1k": lam1, "lam4k": -lam1 * i0 / i2}, [h0]))
        for _ in range(n_per_k):
            ha, hb = float(rng.uniform(0.02, 0.06)), float(rng.uniform(0.12, 0.18))
            lam1 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
            (a0, a2, a4), (b0, b2, b4) = _quad_moments(ha), _quad_moments(hb)
            lam4, cross = np.linalg.solve([[a2, a4], [b2, b4]], [-lam1 * a0, -lam1 * b0])
            p = float(rng.uniform(0.5, 1.5))
            params = {"k": 2, "lam1k": lam1, "lam4k": float(lam4), "lam2": [0.0, p], "lam3": [0.0, 3.0 * float(cross) / p]}
            specs.append((params, [ha, hb]))
        self.arcs = len(specs)
        # reference zero counts: sign changes of M_k sampled on a fine grid of quadrature moments
        grid = np.array([_quad_moments(h) for h in REFERENCE_GRID])
        self.zero_jobs = []  # (backend, planted zeros, scenario)
        self.reference = []  # zero count per job
        for i, (params, planted) in enumerate(specs):
            spec = el.MelnikovSpec(params["k"], params["lam1k"], params["lam4k"],
                                   tuple(params.get("lam2", ())), tuple(params.get("lam3", ())))
            values = grid @ np.array([spec.lam1k, spec.lam4k, spec.cross_coefficient])
            for backend, (lo, hi) in BACKEND_INTERVALS.items():
                inside = (REFERENCE_GRID >= lo) & (REFERENCE_GRID <= hi)
                v = values[inside]
                self.reference.append(int(np.sum(v[:-1] * v[1:] < 0.0)))
                scenario = _scenario(
                    "melnikov-zeros", {**params, "interval": [lo, hi], "backend": backend},
                    seed, out_dir / f"zeros-{i}-{backend}",
                )
                self.zero_jobs.append((backend, planted, scenario))
        self.consts = el.default_constants()
        self.agreement = self._backend_agreement()

    @staticmethod
    def _backend_agreement() -> float:
        """Largest relative gap between the two backends' per-lobe moments on the overlap window."""
        unit = (
            el.MelnikovSpec(1, 1.0, 0.0),
            el.MelnikovSpec(1, 0.0, 1.0),
            el.MelnikovSpec(2, 0.0, 0.0, (0.0, 1.0), (0.0, 3.0)),
        )
        worst = 0.0
        for h in np.linspace(*AGREEMENT_WINDOW, 9):
            for spec in unit:
                q = el.mk(float(h), spec, backend="quadrature")
                s = el.mk(float(h), spec, backend="series")
                worst = max(worst, abs(s - q) / abs(q))
        return worst

    def run_round(self) -> tuple:
        times = []
        statuses = [_timed(times, cli.run, s, threads=1) for s in (self.pf, self.fit)]
        statuses.append([_timed(times, cli.run, job[-1], threads=1) for job in self.zero_jobs])
        return tuple(statuses), times

    def check(self, outcome: tuple, tally: Tally) -> None:
        pf_status, fit_status, zero_statuses = outcome
        tally.gate(self.agreement < 2e-3, f"moments: backends differ by {self.agreement:.3g} on {AGREEMENT_WINDOW}")
        tally.bytes_written = sum(
            _bytes_under(s.output_dir) for s in (self.pf, self.fit, *(job[-1] for job in self.zero_jobs))
        )
        if tally.exit_status(pf_status):
            rows = _csv_rows(self.pf.output_dir / "pf_residuals.csv")
            worst = max(float(r[k]) for r in rows for k in ("r1", "r2", "r3", "r4"))
            tally.gate(len(rows) == PF_N and worst < 1e-7, f"moments: PF residual {worst:.3g} over {len(rows)} energies")
        if tally.exit_status(fit_status):
            fit = json.loads((self.fit.output_dir / "fit_report.json").read_text())
            c = self.consts
            tally.gate(
                fit["residual"] < 1e-8
                and abs(fit["kappa"] - c.kappa) < 1e-9
                and abs(fit["a1"] - c.a1) < 1e-6 * abs(c.a1)
                and abs(fit["b2"] - c.b2) < 1e-4 * abs(c.b2),
                f"moments: series-fit {fit} disagrees with the standard fit {c}",
            )
        for (backend, planted, scenario), count, status in zip(self.zero_jobs, self.reference, zero_statuses):
            if not tally.exit_status(status):
                continue
            doc = json.loads((scenario.output_dir / "zero_count.json").read_text())
            zeros = [z for z, _ in doc["zeros"]]
            near = 1e-6 if backend == "quadrature" else 2e-3
            tally.gate(
                doc["count"] == count and all(any(abs(z - h) < near for z in zeros) for h in planted),
                f"moments: {backend} M_{doc['spec']['k']} zeros {zeros} (count {doc['count']}); "
                f"reference count {count}, planted {planted}",
            )


WORKLOADS = {w.name: w for w in (Sweep, CycleSearch, Moments)}

"""Command-line front end: scenario configs, orchestration, reproducible outputs.

A run is described by a JSON scenario file:

    {"command": "pf-check", "parameters": {...}, "seed": 7, "output_dir": "out"}

Commands: integrals, pf-check, series-fit, melnikov-zeros, simulate,
convergence, cyclicity-sweep.  One table (COMMANDS) gives each command's
handler, whether it needs the fitted constants, and a converter and default
for each of its parameters.  Parsing is strict — unknown top-level or
parameter keys, wrongly typed values and non-finite numbers are rejected
(exit 2) rather than ignored, so a typo cannot silently change a run;
arguments the library rejects as out of range exit 2 as well.  Numerical
failures exit 3 with partial outputs retained.  Every run, a rejected
scenario included, writes manifest.json recording the scenario hash, tool
version, the fitted-constants provenance, the seed, and wall time; every
numeric table starts with a seed-stamped comment and a header row.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .dynamics import (
    ArcSpec,
    EscapedRegion,
    IntegratorConfig,
    StepFailure,
    TimeCap,
    arc_sampler_general,
    arc_sampler_no_first_order,
    cyclicity_sweep,
    integrate,
    melnikov_convergence,
)
from .geometry import energy, x_plus
from .integrals import QuadratureConfig, ToleranceNotMet, integral_triple
from .melnikov import MelnikovSpec, count_zeros, mk
from .series import (
    FittedConstants,
    IllConditionedFit,
    default_constants,
    fit_quadrature,
    load_constants,
    pf_residuals,
    save_constants,
)

_NUMERICAL = (ToleranceNotMet, IllConditionedFit, TimeCap, EscapedRegion, StepFailure)


class ConfigError(ValueError):
    """Scenario file or flags unusable; exit status 2."""


class NumericalFailure(RuntimeError):
    """A computation missed its accuracy contract; exit status 3."""


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: ``parameters`` as written, ``args`` converted with every default filled in."""

    command: str
    parameters: dict
    seed: int
    output_dir: Path
    args: dict


@dataclass(frozen=True)
class RunManifest:
    scenario_sha256: str
    tool_version: str
    constants: dict | None  # kappa/a1/a2/b2 + source file hash, or None if unused
    wall_time_s: float
    seed: int  # as written (possibly not an int, or None) when the scenario was rejected
    command: str
    status: str


# --------------------------------------------------------------------------
# Scenario parsing
# --------------------------------------------------------------------------


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _numbers(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(_number(v) for v in value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _coeff_table(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object of coefficient lists, got {value!r}")
    return {name: _numbers(seq) for name, seq in value.items()}


def parse_scenario(doc: dict, seed_override=None, out_override=None) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    unknown = set(doc) - {"command", "parameters", "seed", "output_dir"}
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {tuple(COMMANDS)}, got {command!r}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object")
    table = COMMANDS[command].params
    bad = set(params) - set(table)
    if bad:
        raise ConfigError(f"unknown parameters for {command}: {sorted(bad)}")
    args = {}
    for name, (convert, default) in table.items():
        if name not in params:
            args[name] = default
            continue
        try:
            args[name] = convert(params[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"parameter {name!r} of {command}: {exc}") from None
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    out = out_override if out_override is not None else doc.get("output_dir", "out")
    return Scenario(command=command, parameters=dict(params), seed=seed, output_dir=Path(out), args=args)


def _document_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _scenario_hash(s: Scenario) -> str:
    return _document_hash(
        {
            "command": s.command,
            "parameters": s.parameters,
            "seed": s.seed,
            "output_dir": str(s.output_dir),
        }
    )


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _write_rows(path: Path, rows, sep: str = " ", head=()) -> None:
    """Write the head lines, then one line per row: floats as %.17g, anything else via str.

    With the default separator this is a plot-ready file of whitespace-separated
    columns (no plotting in-process).
    """
    with open(path, "w") as f:
        for line in head:
            f.write(line + "\n")
        for row in rows:
            f.write(sep.join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_csv(path: Path, header, rows, seed: int, command: str) -> None:
    _write_rows(path, rows, ",", (f"# command={command} seed={seed}", ",".join(header)))


def _write_json(path: Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Command handlers
# --------------------------------------------------------------------------


def _h_grid(p: dict):
    if p.get("h_grid") is not None:
        return list(p["h_grid"])
    return list(np.geomspace(p["h_min"], p["h_max"], p["n"]))


def _run_integrals(s: Scenario, ctx: dict) -> None:
    cfg = QuadratureConfig()
    samples = [integral_triple(h, cfg) for h in _h_grid(s.args)]
    _write_csv(
        s.output_dir / "integrals.csv",
        ("h", "I0", "I1", "I2", "I0p", "I2p", "I4p", "I0pp", "err_max"),
        [
            (t.h, t.I0, t.I1, t.I2, t.I0p, t.I2p, t.I4p, t.I0pp, max(t.err.values()))
            for t in samples
        ],
        s.seed,
        s.command,
    )
    _write_rows(s.output_dir / "plot_integrals.txt", [(t.h, t.I0, t.I2, t.I4p) for t in samples])


def _run_pf_check(s: Scenario, ctx: dict) -> None:
    cfg = QuadratureConfig()
    threshold = s.args["threshold"]
    rows = []
    worst = 0.0
    for h in _h_grid(s.args):
        r = pf_residuals(integral_triple(h, cfg))
        rows.append((h, r.r1, r.r2, r.r3, r.r4))
        worst = max(worst, r.r1, r.r2, r.r3, r.r4)
    _write_csv(s.output_dir / "pf_residuals.csv", ("h", "r1", "r2", "r3", "r4"), rows, s.seed, s.command)
    if worst >= threshold:
        raise NumericalFailure(f"max relative residual {worst:.3e} >= {threshold:g}")


def _run_series_fit(s: Scenario, ctx: dict) -> None:
    hs = _h_grid(s.args)
    consts = fit_quadrature(hs, s.args["degree"])
    save_constants(consts, s.output_dir / "constants.json")
    _write_json(
        s.output_dir / "fit_report.json",
        {
            "a1": consts.a1,
            "a2": consts.a2,
            "b2": consts.b2,
            "kappa": consts.kappa,
            "residual": consts.residual,
            "window": list(consts.window),
            "n_samples": len(hs),
            "seed": s.seed,
        },
    )


def _run_melnikov_zeros(s: Scenario, ctx: dict) -> None:
    p = s.args
    spec = MelnikovSpec(
        k=p["k"],
        lam1k=p["lam1k"],
        lam4k=p["lam4k"],
        lam2=p["lam2"],
        lam3=p["lam3"],
    )
    interval = p["interval"]
    grid_n = p["grid_n"]
    backend = p["backend"]
    consts = ctx["consts"]()
    f = lambda h: mk(h, spec, backend=backend, consts=consts)  # noqa: E731
    zc = count_zeros(f, interval, grid_n=grid_n)
    doc = zc.to_json_dict()
    doc.update(
        {
            "seed": s.seed,
            "spec": {
                "k": spec.k,
                "lam1k": spec.lam1k,
                "lam4k": spec.lam4k,
                "lam2": list(spec.lam2),
                "lam3": list(spec.lam3),
            },
            "backend": backend,
        }
    )
    _write_json(s.output_dir / "zero_count.json", doc)
    hs = np.geomspace(interval[0], interval[1], grid_n)
    _write_rows(s.output_dir / "plot_melnikov.txt", [(h, f(h)) for h in hs])


def _run_simulate(s: Scenario, ctx: dict) -> None:
    p = s.args
    if p["h0"] is not None:
        p0 = (x_plus(p["h0"]), 0.0)
    else:
        p0 = (p["x0"], p["y0"])
    if len(p["lam"]) != 4:
        raise ConfigError("lam must have four entries")
    traj = integrate(p0, p["lam"], p["t_end"], IntegratorConfig())
    ts = np.linspace(0.0, p["t_end"], p["n_points"])
    states = traj.interpolant(ts)
    rows = [
        (float(t), float(x), float(y), energy((x, y)))
        for t, x, y in zip(ts, states[0], states[1])
    ]
    _write_csv(s.output_dir / "trajectory.csv", ("t", "x", "y", "H"), rows, s.seed, s.command)


def _run_convergence(s: Scenario, ctx: dict) -> None:
    p = s.args
    arc = ArcSpec(
        coeff_table=dict(p["coeff_table"]),
        order=p["order"],
    )
    rows = melnikov_convergence(
        arc,
        list(p["h_probe"]),
        list(p["eps_seq"]),
        IntegratorConfig(),
    )
    _write_csv(
        s.output_dir / "convergence.csv",
        ("eps", "h", "scaled_displacement", "m_k", "ratio"),
        rows,
        s.seed,
        s.command,
    )
    eps_min = min((r.eps for r in rows), default=None)
    _write_rows(
        s.output_dir / "plot_displacement.txt",
        [(r.h, r.scaled_displacement, r.m_k) for r in rows if r.eps == eps_min],
    )


_FAMILIES = {"general": arc_sampler_general, "no-first-order": arc_sampler_no_first_order}


def _run_cyclicity_sweep(s: Scenario, ctx: dict) -> None:
    p = s.args
    family = p["family"]
    if family not in _FAMILIES:
        raise ConfigError(f"family must be one of {sorted(_FAMILIES)}")
    result = cyclicity_sweep(
        _FAMILIES[family],
        eps=p["eps"],
        h_window=p["h_window"],
        n_samples=p["n_samples"],
        cfg=IntegratorConfig(),
        seed=s.seed,
        grid_n=p["grid_n"],
        refine_tol=p["refine_tol"],
        threads=ctx["threads"],
    )
    with open(s.output_dir / "sweep.jsonl", "w") as f:
        for sample in result.samples:
            f.write(
                json.dumps(
                    {
                        "index": sample.index,
                        "arc": {k: list(v) for k, v in sample.arc.coeff_table.items()},
                        "eps": result.eps,
                        "count": sample.count,
                        "bound": sample.bound,
                        "anomaly": sample.anomaly,
                        "failed": sample.failed,
                        "seed": result.seed,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    _write_json(
        s.output_dir / "sweep_summary.json",
        {
            "family": family,
            "eps": result.eps,
            "h_window": list(result.h_window),
            "histogram": {str(k): v for k, v in sorted(result.histogram.items())},
            "max_count": result.max_count,
            "n_anomalies": len(result.anomalies),
            "n_failed": sum(1 for x in result.samples if x.failed),
            "seed": result.seed,
        },
    )
    _write_rows(s.output_dir / "plot_sweep_histogram.txt", sorted(result.histogram.items()))


# --------------------------------------------------------------------------
# Command table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """A command's handler, whether it needs the fitted constants, and its parameters.

    params maps each parameter name to (converter, default).  A converter
    raises TypeError or ValueError on a value it cannot accept; a default of
    None means the parameter is simply absent.
    """

    handler: Callable
    params: dict
    needs_constants: bool = False


def _grid_params(h_min: float, h_max: float, n: int) -> dict:
    return {"h_min": (_number, h_min), "h_max": (_number, h_max), "n": (_integer, n)}


COMMANDS = {
    "integrals": Command(_run_integrals, {**_grid_params(1e-4, 3.0, 50), "h_grid": (_numbers, None)}),
    "pf-check": Command(_run_pf_check, {**_grid_params(1e-4, 3.0, 50), "threshold": (_number, 1e-7)}),
    "series-fit": Command(_run_series_fit, {**_grid_params(0.01, 0.15, 24), "degree": (_integer, 8)}),
    "melnikov-zeros": Command(
        _run_melnikov_zeros,
        {
            "k": (_integer, 1),
            "lam1k": (_number, 0.0),
            "lam4k": (_number, 0.0),
            "lam2": (_numbers, ()),
            "lam3": (_numbers, ()),
            "interval": (_numbers, (1e-3, 0.3)),
            "grid_n": (_integer, 160),
            "backend": (_text, "quadrature"),
        },
        needs_constants=True,
    ),
    "simulate": Command(
        _run_simulate,
        {
            "x0": (_number, 2.0),
            "y0": (_number, 0.0),
            "h0": (_number, None),
            "lam": (_numbers, (0.0, 0.0, 0.0, 0.0)),
            "t_end": (_number, 20.0),
            "n_points": (_integer, 2001),
        },
    ),
    "convergence": Command(
        _run_convergence,
        {
            "coeff_table": (_coeff_table, {"lam1": (0.0, 1.0)}),
            "order": (_integer, 2),
            "h_probe": (_numbers, (0.1, 0.2, 0.4)),
            "eps_seq": (_numbers, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)),
        },
        needs_constants=True,
    ),
    "cyclicity-sweep": Command(
        _run_cyclicity_sweep,
        {
            "family": (_text, "general"),
            "eps": (_number, 1e-3),
            "h_window": (_numbers, (1e-3, 0.2)),
            "n_samples": (_integer, 200),
            "grid_n": (_integer, 24),
            "refine_tol": (_number, 1e-4),
        },
    ),
}


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


def run(scenario: Scenario, threads: int = 1, constants_path=None) -> int:
    """Execute a scenario; returns the process exit status (0, 2, or 3)."""
    t_start = time.monotonic()
    scenario.output_dir.mkdir(parents=True, exist_ok=True)

    consts_holder: dict = {}

    def resolve_consts() -> FittedConstants:
        if "value" not in consts_holder:
            if constants_path is not None:
                path = Path(constants_path)
                if not path.exists():
                    raise ConfigError(f"constants file not found: {path}")
                consts_holder["value"] = load_constants(path)
                consts_holder["hash"] = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                consts_holder["value"] = default_constants()
                consts_holder["hash"] = None
        return consts_holder["value"]

    status = 0
    error = None
    command = COMMANDS[scenario.command]
    try:
        if command.needs_constants:
            resolve_consts()  # fail early if the file is missing
        command.handler(scenario, {"consts": resolve_consts, "threads": threads})
    except ValueError as exc:  # ConfigError, OutOfTrustRegion, or an argument the library rejects
        status, error = 2, str(exc)
    except (NumericalFailure, *_NUMERICAL) as exc:
        status, error = 3, str(exc)

    consts = consts_holder.get("value")
    _write_manifest(
        scenario.output_dir,
        t_start,
        error,
        scenario_sha256=_scenario_hash(scenario),
        command=scenario.command,
        seed=scenario.seed,
        constants=None
        if consts is None
        else {
            "kappa": consts.kappa,
            "a1": consts.a1,
            "a2": consts.a2,
            "b2": consts.b2,
            "file_sha256": consts_holder.get("hash"),
        },
    )
    if error is not None:
        print(f"{scenario.command}: {error}", file=sys.stderr)
    return status


def _write_manifest(out_dir: Path, t_start: float, error, **fields) -> None:
    """Write out_dir/manifest.json from the other RunManifest fields; status "ok" when error is None."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        tool_version=__version__,
        wall_time_s=time.monotonic() - t_start,
        status="ok" if error is None else f"error: {error}",
        **fields,
    )
    _write_json(out_dir / "manifest.json", asdict(manifest))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eightloop",
        description="Limit-cycle laboratory for the perturbed figure-eight oscillator.",
    )
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", default=None, help="override the scenario output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker processes for sweeps")
    parser.add_argument("--constants", default=None, help="fitted-constants JSON to use")
    args = parser.parse_args(argv)
    t_start = time.monotonic()
    try:
        doc = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(doc, seed_override=args.seed, out_override=args.out)
    except ConfigError as exc:
        # a rejected scenario still gets a manifest, with its fields as written
        print(f"config error: {exc}", file=sys.stderr)
        fields = doc if isinstance(doc, dict) else {}
        out = args.out if args.out is not None else fields.get("output_dir")
        _write_manifest(
            Path(out if isinstance(out, str) else "out"),
            t_start,
            exc,
            scenario_sha256=_document_hash(doc),
            command=fields.get("command"),
            seed=args.seed if args.seed is not None else fields.get("seed"),
            constants=None,
        )
        return 2
    return run(scenario, threads=args.threads, constants_path=args.constants)


if __name__ == "__main__":
    sys.exit(main())

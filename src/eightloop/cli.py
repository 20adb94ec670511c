"""Command-line front end: scenario configs, orchestration, reproducible outputs.

A run is described by a JSON scenario file:

    {"command": "pf-check", "parameters": {...}, "seed": 7, "output_dir": "out"}

Commands: integrals, pf-check, series-fit, melnikov-zeros, simulate,
convergence, cyclicity-sweep.  One table (COMMANDS) gives each command's
handler and a converter and default for each of its parameters.  Parsing
is strict — unknown flags, unknown top-level or parameter keys, wrongly
typed values and non-finite numbers are rejected (exit 2) rather than
ignored, so a typo cannot silently change a run; arguments the library
rejects as out of range exit 2 as well.  Numerical failures (any
NumericalFailure) exit 3 with partial outputs retained.  Every run, a
rejected scenario or command line included, writes manifest.json
recording the scenario hash, tool version, the seed, and wall time; every
numeric table starts with a seed-stamped comment and a header row.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
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
    arc_sampler_general,
    arc_sampler_no_first_order,
    cyclicity_sweep,
    integrate,
    melnikov_convergence,
)
from .geometry import NumericalFailure, energy, x_plus
from .integrals import integral_triple
from .melnikov import MelnikovSpec, count_zeros, mk
from .series import fit_quadrature, pf_residuals


class ConfigError(ValueError):
    """Scenario file or flags unusable; exit status 2."""


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: ``args`` converted with every default filled in, ``sha256`` the manifest's hash.

    The hash covers the command, the parameters as written, and the seed and
    output directory after any command-line override.
    """

    command: str
    seed: int
    output_dir: Path
    args: dict
    sha256: str


@dataclass(frozen=True)
class RunManifest:
    scenario_sha256: str | None  # None when the config file could not be read
    tool_version: str
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
    out = doc.get("output_dir", "out")
    if not isinstance(out, str):
        raise ConfigError("output_dir must be a string")
    if out_override is not None:
        out = out_override
    sha256 = _document_hash({"command": command, "parameters": params, "seed": seed, "output_dir": str(Path(out))})
    return Scenario(command=command, seed=seed, output_dir=Path(out), args=args, sha256=sha256)


def _document_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


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


def _write_csv(s: Scenario, name: str, header, rows) -> None:
    _write_rows(s.output_dir / name, rows, ",", (f"# command={s.command} seed={s.seed}", ",".join(header)))


def _write_json(path: Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Command handlers
# --------------------------------------------------------------------------


def _h_grid(p: dict):
    return list(np.geomspace(p["h_min"], p["h_max"], p["n"]))


def _run_integrals(s: Scenario, threads: int) -> None:
    samples = [integral_triple(h) for h in _h_grid(s.args)]
    _write_csv(
        s,
        "integrals.csv",
        ("h", "I0", "I1", "I2", "I0p", "I2p", "I4p", "I0pp", "err_max"),
        [(t.h, t.I0, t.I1, t.I2, t.I0p, t.I2p, t.I4p, t.I0pp, max(t.err.values())) for t in samples],
    )
    _write_rows(s.output_dir / "plot_integrals.txt", [(t.h, t.I0, t.I2, t.I4p) for t in samples])


def _run_pf_check(s: Scenario, threads: int) -> None:
    threshold = s.args["threshold"]
    rows = []
    worst = 0.0
    for h in _h_grid(s.args):
        r = pf_residuals(integral_triple(h))
        rows.append((h, r.r1, r.r2, r.r3, r.r4))
        worst = max(worst, r.r1, r.r2, r.r3, r.r4)
    _write_csv(s, "pf_residuals.csv", ("h", "r1", "r2", "r3", "r4"), rows)
    if worst >= threshold:
        raise NumericalFailure(f"max relative residual {worst:.3e} >= {threshold:g}")


def _run_series_fit(s: Scenario, threads: int) -> None:
    hs = _h_grid(s.args)
    consts = fit_quadrature(hs, s.args["degree"])
    _write_json(s.output_dir / "fit_report.json", {**asdict(consts), "n_samples": len(hs), "seed": s.seed})


def _run_melnikov_zeros(s: Scenario, threads: int) -> None:
    p = s.args
    spec = MelnikovSpec(
        k=p["k"],
        lam1k=p["lam1k"],
        lam4k=p["lam4k"],
        lam2=p["lam2"],
        lam3=p["lam3"],
    )
    if spec.vanishes:
        raise ConfigError("M_k is identically zero: lam1k, lam4k and the cross coefficient c_k all vanish")
    backend = p["backend"]
    zc = count_zeros(lambda h: mk(h, spec, backend=backend), p["interval"], grid_n=p["grid_n"])
    doc = {**zc.to_json_dict(), "seed": s.seed, "spec": asdict(spec), "backend": backend}
    _write_json(s.output_dir / "zero_count.json", doc)
    _write_rows(s.output_dir / "plot_melnikov.txt", zc.samples)


def _run_simulate(s: Scenario, threads: int) -> None:
    p = s.args
    if p["h0"] is not None:
        p0 = (x_plus(p["h0"]), 0.0)
    else:
        p0 = (p["x0"], p["y0"])
    if len(p["lam"]) != 4:
        raise ConfigError("lam must have four entries")
    if p["t_end"] < 0.0:  # a grid of one point or none holds no negative time for integrate to reject
        raise ConfigError(f"output times must be non-negative and non-decreasing, got t_end={p['t_end']:g}")
    ts = np.linspace(0.0, p["t_end"], p["n_points"])
    states = integrate(p0, p["lam"], ts)
    rows = [(t, x, y, energy((x, y))) for t, (x, y) in zip(ts.tolist(), states.tolist())]
    _write_csv(s, "trajectory.csv", ("t", "x", "y", "H"), rows)


def _run_convergence(s: Scenario, threads: int) -> None:
    p = s.args
    rows = melnikov_convergence(ArcSpec(coeff_table=dict(p["coeff_table"])), list(p["h_probe"]), list(p["eps_seq"]))
    _write_csv(s, "convergence.csv", ("eps", "h", "scaled_displacement", "m_k", "ratio"), rows)
    eps_min = min((r.eps for r in rows), default=None)
    _write_rows(
        s.output_dir / "plot_displacement.txt",
        [(r.h, r.scaled_displacement, r.m_k) for r in rows if r.eps == eps_min],
    )


_FAMILIES = {"general": arc_sampler_general, "no-first-order": arc_sampler_no_first_order}


def _run_cyclicity_sweep(s: Scenario, threads: int) -> None:
    p = s.args
    family = p["family"]
    if family not in _FAMILIES:
        raise ConfigError(f"family must be one of {sorted(_FAMILIES)}")
    result = cyclicity_sweep(
        _FAMILIES[family],
        eps=p["eps"],
        h_window=p["h_window"],
        n_samples=p["n_samples"],
        seed=s.seed,
        grid_n=p["grid_n"],
        refine_tol=p["refine_tol"],
        threads=threads,
    )
    docs = [
        {
            "index": sample.index,
            "arc": {k: list(v) for k, v in sample.arc.coeff_table.items()},
            "eps": result.eps,
            "count": None if sample.failed else sample.count,  # a failed arc has no count, not a count of 0
            "bound": sample.bound,
            "anomaly": sample.anomaly,
            "failed": sample.failed,
            "seed": result.seed,
        }
        for sample in result.samples
    ]
    _write_rows(s.output_dir / "sweep.jsonl", [(json.dumps(doc, sort_keys=True),) for doc in docs])
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
    """A command's handler, called as handler(scenario, threads), and its parameters.

    params maps each parameter name to (converter, default).  A converter
    raises TypeError or ValueError on a value it cannot accept; a default of
    None means the parameter is simply absent.
    """

    handler: Callable
    params: dict


def _grid_params(h_min: float, h_max: float, n: int) -> dict:
    return {"h_min": (_number, h_min), "h_max": (_number, h_max), "n": (_integer, n)}


COMMANDS = {
    "integrals": Command(_run_integrals, _grid_params(1e-4, 3.0, 50)),
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
            "h_probe": (_numbers, (0.1, 0.2, 0.4)),
            "eps_seq": (_numbers, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)),
        },
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


def run(scenario: Scenario, threads: int = 1) -> int:
    """Execute a scenario; returns the process exit status (0, 2, or 3)."""
    t_start = time.monotonic()
    scenario.output_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    error = None
    try:
        COMMANDS[scenario.command].handler(scenario, threads)
    except ValueError as exc:  # ConfigError, OutOfTrustRegion, or an argument the library rejects
        status, error = 2, str(exc)
    except NumericalFailure as exc:  # TimeCap, ToleranceNotMet, ... and pf-check's residual test
        status, error = 3, str(exc)
    _write_manifest(
        scenario.output_dir,
        t_start,
        error,
        scenario_sha256=scenario.sha256,
        command=scenario.command,
        seed=scenario.seed,
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


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, so that a bad command line gets a manifest."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="eightloop",
        description="Limit-cycle laboratory for the perturbed figure-eight oscillator.",
    )
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", default=None, help="override the scenario output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker processes for sweeps")
    parser.add_argument("--log-level", default="warning", choices=("debug", "info", "warning", "error"))
    t_start = time.monotonic()
    args = argparse.Namespace()  # filled as parsing goes: a rejection sees the flags read before the error
    try:
        parser.parse_args(argv, args)
    except ConfigError as exc:
        return _reject(args, t_start, str(exc), None)
    logging.basicConfig(level=args.log_level.upper())
    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        return _reject(args, t_start, f"config not readable: {exc}", None)
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        return _reject(args, t_start, f"config is not valid JSON: {exc}", hashlib.sha256(raw).hexdigest())
    try:
        scenario = parse_scenario(doc, seed_override=args.seed, out_override=args.out)
    except ConfigError as exc:
        return _reject(args, t_start, str(exc), _document_hash(doc), doc)
    return run(scenario, threads=args.threads)


def _reject(args, t_start: float, error: str, sha256, doc=None) -> int:
    """Exit status 2 with a manifest, for a bad command line or a config that is unreadable, not JSON or rejected.

    The manifest carries what is known of the document as written: its
    hash, command and seed, and it goes to --out, else the document's
    output_dir when that is a string, else out.  A command line rejected
    while parsing has no document; its manifest goes to --out when that
    flag was read before the error, else to out.
    """
    print(f"config error: {error}", file=sys.stderr)
    fields = doc if isinstance(doc, dict) else {}
    out = args.out if args.out is not None else fields.get("output_dir")
    _write_manifest(
        Path(out if isinstance(out, str) else "out"),
        t_start,
        error,
        scenario_sha256=sha256,
        command=fields.get("command"),
        seed=args.seed if args.seed is not None else fields.get("seed"),
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())

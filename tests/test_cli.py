"""Scenario parsing, command execution, exit codes, and output determinism."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import eightloop as el
import eightloop.cli as cli


def _scenario(command, params=None, seed=0, out="out"):
    return cli.parse_scenario(
        {
            "command": command,
            "parameters": params or {},
            "seed": seed,
            "output_dir": str(out),
        }
    )


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# command=")
    header = lines[1].split(",")
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
    return header, rows


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_scenario_defaults():
    s = cli.parse_scenario({"command": "integrals"})
    assert s.command == "integrals"
    assert s.seed == 0
    assert s.output_dir == Path("out")


def test_parse_scenario_rejects_malformed_documents():
    with pytest.raises(cli.ConfigError):
        cli.parse_scenario(["not", "an", "object"])
    with pytest.raises(cli.ConfigError):
        cli.parse_scenario({"command": "integrals", "extra": 1})
    with pytest.raises(cli.ConfigError):
        cli.parse_scenario({"command": "make-coffee"})
    with pytest.raises(cli.ConfigError):
        cli.parse_scenario({"command": "integrals", "parameters": {"nope": 1}})
    with pytest.raises(cli.ConfigError):
        cli.parse_scenario({"command": "integrals", "seed": "7"})
    with pytest.raises(cli.ConfigError):
        cli.parse_scenario({"command": "integrals", "parameters": [1, 2]})


def test_parse_scenario_applies_overrides(tmp_path):
    doc = {"command": "pf-check", "seed": 1, "output_dir": "x"}
    s = cli.parse_scenario(doc, seed_override=9, out_override=str(tmp_path))
    assert s.seed == 9
    assert s.output_dir == tmp_path


# Wrong values for each kind of parameter: wrong types, and non-finite numbers
_BAD_VALUES = {
    cli._number: ["abc", None, True, [1.0], math.nan, math.inf, -math.inf],
    cli._integer: ["abc", 2.5, True, [1]],
    cli._numbers: ["abc", 5, [0.1, "abc"], [math.nan], [math.inf]],
    cli._text: [5, ["general"]],
    cli._coeff_table: ["abc", 5, {"lam1": 1.0}, {"lam1": [0.0, math.nan]}],
}


@pytest.mark.parametrize(
    "command,name", [(command, name) for command, spec in cli.COMMANDS.items() for name in spec.params]
)
def test_bad_parameter_values_exit_2(command, name, tmp_path):
    convert = cli.COMMANDS[command].params[name][0]
    for i, value in enumerate(_BAD_VALUES[convert]):
        config = tmp_path / f"bad{i}.json"
        doc = {"command": command, "parameters": {name: value}}
        config.write_text(json.dumps(doc))
        out = tmp_path / f"out{i}"
        assert cli.main(["--config", str(config), "--out", str(out)]) == 2, value
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith("error:"), value
        assert manifest["command"] == command
        assert manifest["scenario_sha256"] == cli._document_hash(json.loads(config.read_text()))


def test_rejected_scenario_manifest_goes_to_its_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"command": "pf-check", "seed": 4, "output_dir": "doc", "extra": 1}))
    assert cli.main(["--config", str(config)]) == 2
    manifest = json.loads((tmp_path / "doc" / "manifest.json").read_text())
    assert manifest["seed"] == 4 and "unknown scenario keys" in manifest["status"]
    # without a usable output_dir the manifest goes to the default directory
    config.write_text(json.dumps(["not", "an", "object"]))
    assert cli.main(["--config", str(config)]) == 2
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["command"] is None


def test_scenario_hash_is_stable():
    # the manifest's scenario_sha256 hashes the parameters as written
    s = cli.parse_scenario({"command": "pf-check", "parameters": {"h_min": 1e-4, "h_max": 3.0, "n": 50}})
    assert s.sha256 == "43e1ecf4976519179c6ee30b8f95fe6e8aa0bb61e1c33e67116d73336d7c87cf"


def test_manifest_hash_covers_the_overridden_seed_and_output_dir(tmp_path):
    params = {"h_min": 0.1, "h_max": 0.1, "n": 1}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "pf-check", "parameters": params, "seed": 1, "output_dir": "doc"}))
    out = tmp_path / "run"
    assert cli.main(["--config", str(config), "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {"command": "pf-check", "parameters": params, "seed": 9, "output_dir": str(out)}
    assert manifest["scenario_sha256"] == cli._document_hash(expected)


# ---------------------------------------------------------------------------
# Commands through run()
# ---------------------------------------------------------------------------


def test_pf_check_runs_clean(tmp_path):
    s = _scenario("pf-check", {"h_min": 0.05, "h_max": 1.0, "n": 3}, out=tmp_path)
    assert cli.run(s) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["command"] == "pf-check"
    assert manifest["seed"] == 0
    assert len(manifest["scenario_sha256"]) == 64
    header, rows = _read_csv(tmp_path / "pf_residuals.csv")
    assert header == ["h", "r1", "r2", "r3", "r4"]
    assert all(max(r[1:]) < 1e-7 for r in rows)


def test_pf_check_numerical_failure_exit_code(tmp_path):
    s = _scenario("pf-check", {"h_min": 0.05, "h_max": 0.05, "n": 1, "threshold": 1e-18}, out=tmp_path)
    assert cli.run(s) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"].startswith("error:")
    # the residual table is still written for inspection
    assert (tmp_path / "pf_residuals.csv").exists()


def test_integrals_outputs_are_deterministic(tmp_path):
    params = {"h_min": 0.05, "h_max": 0.2, "n": 2}
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(_scenario("integrals", params, seed=3, out=a)) == 0
    assert cli.run(_scenario("integrals", params, seed=3, out=b)) == 0
    for name in ("integrals.csv", "plot_integrals.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    header, rows = _read_csv(a / "integrals.csv")
    assert header[:4] == ["h", "I0", "I1", "I2"]
    assert (a / "integrals.csv").read_text().splitlines()[0] == "# command=integrals seed=3"


def test_melnikov_zeros_positive_combination(tmp_path):
    params = {
        "k": 2,
        "lam4k": 5.0,
        "lam2": [0.0, 1.0],
        "lam3": [0.0, -3.0],
        "interval": [1e-3, 0.3],
        "grid_n": 48,
        "backend": "quadrature",
    }
    s = _scenario("melnikov-zeros", params, out=tmp_path)
    assert cli.run(s) == 0
    doc = json.loads((tmp_path / "zero_count.json").read_text())
    assert doc["count"] == 0 and doc["zeros"] == []
    assert doc["spec"]["lam4k"] == 5.0
    assert doc["backend"] == "quadrature"
    assert len((tmp_path / "plot_melnikov.txt").read_text().splitlines()) == 48


def test_quadrature_melnikov_zeros_evaluates_each_sample_once(quadpack_calls, closed_form_calls, tmp_path):
    # M_1 = I0 > 0 has no zeros, so the count evaluates M_1 at its 160 grid points and nowhere else
    s = _scenario("melnikov-zeros", {"k": 1, "lam1k": 1.0}, out=tmp_path)
    assert cli.run(s) == 0
    assert json.loads((tmp_path / "zero_count.json").read_text())["count"] == 0
    assert len(closed_form_calls) == 160  # one closed-form (I0, I2, I4') per sample
    assert len(quadpack_calls) == 0


def test_plot_melnikov_holds_the_samples_of_the_count(tmp_path):
    params = {"k": 1, "lam1k": 1.0, "lam4k": -1.3, "interval": [1e-3, 0.2], "grid_n": 64, "backend": "series"}
    assert cli.run(_scenario("melnikov-zeros", params, out=tmp_path)) == 0
    lines = (tmp_path / "plot_melnikov.txt").read_text().splitlines()
    assert [ln.split()[0] for ln in lines] == [f"{h:.17g}" for h in np.linspace(1e-3, 0.2, 64)]
    zc = cli.count_zeros(lambda h: cli.mk(h, cli.MelnikovSpec(1, 1.0, -1.3), "series"), (1e-3, 0.2), grid_n=64)
    assert zc.count == json.loads((tmp_path / "zero_count.json").read_text())["count"] == 1
    assert lines == [f"{h:.17g} {v:.17g}" for h, v in zc.samples]


def test_melnikov_zeros_series_beyond_trust_region_is_config_error(tmp_path):
    params = {"k": 1, "lam1k": 1.0, "interval": [0.01, 0.3], "backend": "series", "grid_n": 32}
    s = _scenario("melnikov-zeros", params, out=tmp_path)
    assert cli.run(s) == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"].startswith("error:")


def test_simulate_conserves_energy_in_output(tmp_path):
    s = _scenario("simulate", {"h0": 1.0, "t_end": 20.0, "n_points": 501}, out=tmp_path)
    assert cli.run(s) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "x", "y", "H"]
    assert len(rows) == 501
    assert max(abs(r[3] - 1.0) for r in rows) < 1e-9


def test_simulate_rejects_malformed_lam(tmp_path):
    s = _scenario("simulate", {"lam": [0.1, 0.2, 0.3]}, out=tmp_path)
    assert cli.run(s) == 2


def test_simulate_beyond_the_time_budget_is_config_error(tmp_path):
    s = _scenario("simulate", {"t_end": 250.0}, out=tmp_path)
    assert cli.run(s) == 2
    assert "max_time" in json.loads((tmp_path / "manifest.json").read_text())["status"]


def test_simulate_without_points_writes_only_the_header(tmp_path):
    assert cli.run(_scenario("simulate", {"h0": 1.0, "n_points": 0}, out=tmp_path)) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "x", "y", "H"] and rows == []


def test_simulate_backward_in_time_is_config_error(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "simulate", "parameters": {"h0": 1.0, "t_end": -5.0}}))
    out = tmp_path / "run"
    assert cli.main(["--config", str(config), "--out", str(out)]) == 2
    assert "non-decreasing" in json.loads((out / "manifest.json").read_text())["status"]
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("n_points", [1, 0])
def test_simulate_backward_in_time_is_config_error_at_any_point_count(n_points, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps({"command": "simulate", "parameters": {"h0": 1.0, "t_end": -5.0, "n_points": n_points}})
    )
    out = tmp_path / "run"
    assert cli.main(["--config", str(config), "--out", str(out)]) == 2
    assert "t_end=-5" in json.loads((out / "manifest.json").read_text())["status"]
    assert not (out / "trajectory.csv").exists()


class _OwnFailure(el.NumericalFailure):
    """A numerical failure the CLI has never heard of."""


@pytest.mark.parametrize(
    "failure",
    [
        el.ToleranceNotMet("tolerance not met", value=1.0, err=1e-3),
        el.IllConditionedFit("normal system singular"),
        el.TimeCap("no return"),
        el.EscapedRegion("orbit left"),
        el.StepFailure("step collapsed"),
        _OwnFailure("something new"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_every_numerical_failure_exits_3_with_a_manifest(failure, tmp_path, monkeypatch):
    def handler(scenario, threads):
        raise failure

    monkeypatch.setitem(cli.COMMANDS, "integrals", cli.Command(handler, cli.COMMANDS["integrals"].params))
    assert cli.run(_scenario("integrals", out=tmp_path)) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == f"error: {failure}"


def test_simulate_leaving_the_working_box_is_a_numerical_failure(tmp_path):
    # the orbit from x0 = 1e10 has a period of ~7e-10, so without the box it would take ~3e10 turns
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "simulate", "parameters": {"x0": 1e10}}))
    out = tmp_path / "run"
    assert cli.main(["--config", str(config), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"].startswith("error: orbit left |x|,|y| < 10")
    assert manifest["wall_time_s"] < 30.0


def test_series_fit_then_reuse_constants(tmp_path):
    s = _scenario("series-fit", {"h_min": 0.01, "h_max": 0.15, "n": 12}, out=tmp_path)
    assert cli.run(s) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["n_samples"] == 12
    assert abs(report["kappa"] - 2.0) < 1e-6
    # the report is the fit's only output: evaluation uses the exact constants
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fit_report.json", "manifest.json"]


def test_convergence_outputs(tmp_path):
    params = {
        "coeff_table": {"lam1": [0.0, 1.0]},
        "h_probe": [0.2],
        "eps_seq": [1e-2, 1e-3],
    }
    s = _scenario("convergence", params, out=tmp_path)
    assert cli.run(s) == 0
    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["eps", "h", "scaled_displacement", "m_k", "ratio"]
    assert len(rows) == 2
    assert rows[0][4] > rows[1][4] > 1.0
    # the plot file carries the smallest-eps slice
    assert len((tmp_path / "plot_displacement.txt").read_text().splitlines()) == 1


def test_convergence_of_a_third_order_arc(tmp_path):
    # M_1 = M_2 = 0 and M_3 = I0 - 1.25 I2: the displacement is the eps^3 terms, which the arc must keep
    params = {
        "coeff_table": {"lam1": [0.0, 0.0, 0.0, 1.0], "lam4": [0.0, 0.0, 0.0, -1.25]},
        "h_probe": [0.2],
        "eps_seq": [0.1, 0.05],
    }
    assert cli.run(_scenario("convergence", params, out=tmp_path)) == 0
    _, rows = _read_csv(tmp_path / "convergence.csv")
    assert len(rows) == 2 and all(abs(r[4] - 1.0) < 1e-2 for r in rows)


def _main_on(doc, tmp_path):
    """cli.main on the scenario doc: the exit status and the manifest's status."""
    config, out = tmp_path / "scenario.json", tmp_path / "run"
    config.write_text(json.dumps(doc))
    status = cli.main(["--config", str(config), "--out", str(out)])
    return status, json.loads((out / "manifest.json").read_text())["status"]


def test_convergence_at_eps_zero_is_config_error(tmp_path):
    status, manifest = _main_on({"command": "convergence", "parameters": {"eps_seq": [0.0]}}, tmp_path)
    assert status == 2 and manifest.startswith("error: eps = 0")
    assert not (tmp_path / "run" / "convergence.csv").exists()


def test_melnikov_zeros_of_an_identically_zero_function_is_config_error(tmp_path):
    status, manifest = _main_on({"command": "melnikov-zeros"}, tmp_path)
    assert status == 2 and manifest.startswith("error: M_k is identically zero")
    assert not (tmp_path / "run" / "zero_count.json").exists()


@pytest.mark.parametrize("scale", [1.0, 1e-170])
def test_melnikov_zeros_of_a_tiny_M_k_are_those_of_its_unit_scale(scale, tmp_path):
    params = {"k": 1, "lam1k": scale, "lam4k": -1.3 * scale, "interval": [1e-3, 0.2], "backend": "series"}
    status, manifest = _main_on({"command": "melnikov-zeros", "parameters": params}, tmp_path)
    assert status == 0 and manifest == "ok"
    doc = json.loads((tmp_path / "run" / "zero_count.json").read_text())
    assert doc["count"] == 1 and doc["zeros"][0][0] == 0.022121527600025982


def test_cyclicity_sweep_outputs(tmp_path):
    params = {
        "family": "general",
        "eps": 1e-3,
        "h_window": [0.05, 0.2],
        "n_samples": 2,
        "grid_n": 12,
        "refine_tol": 1e-3,
    }
    s = _scenario("cyclicity-sweep", params, seed=42, out=tmp_path)
    assert cli.run(s) == 0
    lines = (tmp_path / "sweep.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        doc = json.loads(line)
        assert doc["index"] == i
        assert doc["seed"] == 42
        assert doc["bound"] in (2, 5)
        assert set(doc) == {"index", "arc", "eps", "count", "bound", "anomaly", "failed", "seed"}
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["family"] == "general"
    assert sum(summary["histogram"].values()) == 2
    # plot columns: count and number of samples, as plain integers
    expected = "".join(f"{count} {n}\n" for count, n in summary["histogram"].items())
    assert (tmp_path / "plot_sweep_histogram.txt").read_text() == expected


def test_a_failed_sweep_sample_has_no_count(tmp_path):
    # at eps = 0.5 arcs 1, 2, 4 and 5 of the seed-6 sweep lose every grid return map to TimeCap
    s = _scenario("cyclicity-sweep", {"eps": 0.5, "n_samples": 6}, seed=6, out=tmp_path)
    assert cli.run(s) == 0
    docs = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    assert [(d["count"], d["failed"]) for d in docs if d["failed"]] == [(None, True)] * 4
    assert [(d["count"], d["failed"]) for d in docs if not d["failed"]] == [(0, False)] * 2


def test_unknown_sweep_family_is_config_error(tmp_path):
    s = _scenario("cyclicity-sweep", {"family": "exotic", "n_samples": 1}, out=tmp_path)
    assert cli.run(s) == 2


@pytest.mark.parametrize(
    "command,params",
    [
        ("cyclicity-sweep", {"h_window": [1e-4, 0.2], "n_samples": 1}),
        ("simulate", {"h0": -1.0}),
        ("melnikov-zeros", {"k": 0, "lam1k": 1.0}),
    ],
)
def test_arguments_the_library_rejects_are_config_errors(command, params, tmp_path):
    assert cli.run(_scenario(command, params, out=tmp_path)) == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"].startswith("error:")


# ---------------------------------------------------------------------------
# Plot emission
# ---------------------------------------------------------------------------


def test_plot_files_format_columns(tmp_path):
    assert cli.run(_scenario("integrals", {"h_min": 0.1, "h_max": 0.2, "n": 2}, out=tmp_path)) == 0
    lines = (tmp_path / "plot_integrals.txt").read_text().splitlines()
    # h I0 I2 I4p, space-separated, each float with 17 significant digits
    csv_rows = [ln.split(",") for ln in (tmp_path / "integrals.csv").read_text().splitlines()[2:]]
    assert lines == [" ".join((r[0], r[1], r[3], r[6])) for r in csv_rows]
    assert lines[0].split()[0] == "0.10000000000000001"
    assert all(v == f"{float(v):.17g}" for ln in lines for v in ln.split())


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def test_main_end_to_end(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "pf-check", "parameters": {"h_min": 0.1, "h_max": 0.1, "n": 1}}))
    out = tmp_path / "run"
    assert cli.main(["--config", str(config), "--out", str(out), "--seed", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_main_missing_or_invalid_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a missing file: the manifest goes to the default directory, without a hash
    assert cli.main(["--config", str(tmp_path / "absent.json")]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"].startswith("error: config not readable")
    assert manifest["scenario_sha256"] is None
    assert manifest["command"] is None and manifest["seed"] is None
    # a file that is not JSON: the manifest goes to --out and hashes the bytes
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad), "--out", str(tmp_path / "run")]) == 2
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"].startswith("error: config is not valid JSON")
    assert manifest["scenario_sha256"] == hashlib.sha256(b"{not json").hexdigest()
    assert manifest["command"] is None and manifest["seed"] is None


@pytest.mark.parametrize("level", ["debug", "info", "warning", "error", None])
def test_log_level_configures_logging_once(level, tmp_path, monkeypatch):
    configured = []
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kwargs: configured.append(kwargs))
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "pf-check", "parameters": {"h_min": 0.1, "h_max": 0.1, "n": 1}}))
    flags = [] if level is None else ["--log-level", level]
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "run"), *flags]) == 0
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["status"] == "ok"
    assert configured == [{"level": (level or "warning").upper()}]


def test_unknown_log_level_exits_2_with_a_manifest(tmp_path, monkeypatch):
    configured = []
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kwargs: configured.append(kwargs))
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "pf-check"}))
    out = tmp_path / "run"
    assert cli.main(["--config", str(config), "--out", str(out), "--log-level", "loud"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"].startswith("error: argument --log-level: invalid choice: 'loud'")
    assert configured == [] and not (out / "pf_residuals.csv").exists()


def test_output_dir_must_be_a_string(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "pf-check", "output_dir": 5}))
    assert cli.main(["--config", str(config)]) == 2
    assert "output_dir" in json.loads((tmp_path / "out" / "manifest.json").read_text())["status"]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--constants", "x.json"], "unrecognized arguments: --constants x.json"),
        (["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    ],
    ids=["unknown-flag", "bad-seed"],
)
def test_bad_flags_exit_2_with_a_manifest(flags, message, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"command": "pf-check"}))
    out = tmp_path / "run"
    assert cli.main(["--config", str(config), "--out", str(out), *flags]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == f"error: {message}"
    assert manifest["scenario_sha256"] is None and manifest["command"] is None
    assert not (out / "pf_residuals.csv").exists()

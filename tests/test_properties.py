"""Property tests at the API boundary: bad input is rejected, never computed with."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eightloop as el
import eightloop.cli as cli
from eightloop.geometry import x_plus

# few examples each: the properties are cheap, and tier-1 stays fast
_SETTINGS = settings(max_examples=25, deadline=None)

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# every number-typed parameter of every command; list-valued ones get the bad value as an element
_NUMERIC_PARAMS = [
    (command, name, convert is cli._numbers)
    for command, spec in cli.COMMANDS.items()
    for name, (convert, _) in spec.params.items()
    if convert in (cli._number, cli._integer, cli._numbers)
]

_BAD_NUMBER = st.one_of(_NON_FINITE, st.booleans(), st.text())


@pytest.mark.parametrize("command,name,in_list", _NUMERIC_PARAMS)
@_SETTINGS
@given(value=_BAD_NUMBER)
def test_number_parameters_reject_non_finite_bool_and_text(command, name, in_list, value):
    params = {name: [0.1, value] if in_list else value}
    with pytest.raises(cli.ConfigError, match=name):
        cli.parse_scenario({"command": command, "parameters": params})


@_SETTINGS
@given(param=st.sampled_from(_NUMERIC_PARAMS), value=_BAD_NUMBER, seed=st.integers(0, 2**31))
def test_main_exits_2_with_a_manifest_on_a_bad_parameter(param, value, seed):
    """Through cli.main: a wrongly typed or non-finite parameter of any command is a configuration error."""
    command, name, in_list = param
    doc = {"command": command, "parameters": {name: [0.1, value] if in_list else value}, "seed": seed}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "scenario.json", Path(tmp) / "run"
        config.write_text(json.dumps(doc))
        assert cli.main(["--config", str(config), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith(f"error: parameter {name!r} of {command}: ")
        assert (manifest["command"], manifest["seed"]) == (command, seed)
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


@_SETTINGS
@given(h=st.one_of(_NON_FINITE, st.floats(max_value=0.0)))
def test_x_plus_rejects_non_finite_and_non_positive_energy(h):
    if math.isfinite(h):
        with pytest.raises(el.NonPositiveEnergy):
            x_plus(h)
    else:
        with pytest.raises(ValueError, match="finite") as info:
            x_plus(h)
        assert not isinstance(info.value, el.NonPositiveEnergy)


@_SETTINGS
@given(h=st.one_of(_NON_FINITE, st.floats(max_value=0.0)), i=st.sampled_from([0, 1, 2]))
def test_integral_xiy_rejects_non_finite_and_non_positive_energy(h, i):
    with pytest.raises(ValueError):
        el.integral_xiy(h, i)


@_SETTINGS
@given(
    h=st.one_of(
        st.floats(max_value=0.0, exclude_max=True),
        st.floats(min_value=0.2, exclude_min=True),
        st.just(math.nan),
    )
)
def test_series_eval_refuses_energies_outside_its_trust_region(h):
    with pytest.raises(el.OutOfTrustRegion):
        el.series_eval(h)

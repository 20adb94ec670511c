"""Property tests at the API boundary: bad input is rejected, never computed with."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eightloop as el
import eightloop.cli as cli

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


@pytest.mark.parametrize("command,name,in_list", _NUMERIC_PARAMS)
@_SETTINGS
@given(value=st.one_of(_NON_FINITE, st.booleans(), st.text()))
def test_number_parameters_reject_non_finite_bool_and_text(command, name, in_list, value):
    params = {name: [0.1, value] if in_list else value}
    with pytest.raises(cli.ConfigError, match=name):
        cli.parse_scenario({"command": command, "parameters": params})


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

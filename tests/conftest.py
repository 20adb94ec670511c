import pytest

import eightloop as el
from eightloop import integrals, melnikov


@pytest.fixture(scope="session")
def quad_cfg():
    return el.QuadratureConfig()


@pytest.fixture(scope="session")
def consts():
    """Fitted analytic constants (one fit for the whole session)."""
    return el.default_constants()


@pytest.fixture(scope="session")
def integ_cfg():
    return el.IntegratorConfig()


@pytest.fixture
def quadpack_calls(monkeypatch):
    """A list that gains one entry per QUADPACK call made during the test."""
    calls = []
    quad = integrals.quad

    def counting(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrals, "quad", counting)
    return calls


@pytest.fixture
def closed_form_calls(monkeypatch):
    """A list that gains one entry, its h, per call of the closed-form moments behind mk."""
    calls = []
    closed_form = melnikov._exterior_moments

    def counting(h):
        calls.append(h)
        return closed_form(h)

    monkeypatch.setattr(melnikov, "_exterior_moments", counting)
    return calls

import pytest

import eightloop as el
from eightloop import integrals


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

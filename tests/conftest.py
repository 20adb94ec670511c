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
    """A list that gains one entry per QUADPACK call made during the test.

    It counts at integrals._oval_quad, the one Python call into the library's QUADPACK.
    """
    calls = []
    oval_quad = integrals._oval_quad

    def counting(*args):
        calls.append(args)
        return oval_quad(*args)

    monkeypatch.setattr(integrals, "_oval_quad", counting)
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

import ctypes

import pytest

import eightloop as el
from eightloop import integrals, native


def moments(evaluator, h):
    """The per-lobe (I0, I2, I4') at h by the library's evaluator named evaluator in native._MOMENTS.

    One call of the library's moments, which melnikov.mk's mk_value makes
    too; h is not checked, so it must lie in the evaluator's domain.
    """
    out = (ctypes.c_double * 3)()
    native._kernel().moments(native._MOMENTS.index(evaluator), h, out)
    return tuple(out)


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
    """A list that gains one entry, its h, per closed-form evaluation of (I0, I2, I4') in the library.

    It counts the library's two entries to its closed forms, each with the
    exterior evaluator: mk_value (behind mk, the package's one way in) and
    moments (behind the tests' moments helper above).
    """
    calls = []
    kernel = native._kernel()
    exterior = native._MOMENTS.index("exterior")

    def counting(entry):
        def call(evaluator, h, *args):
            if evaluator == exterior:
                calls.append(h)
            return entry(evaluator, h, *args)

        return call

    for name in ("mk_value", "moments"):
        monkeypatch.setattr(kernel, name, counting(getattr(kernel, name)))
    return calls


@pytest.fixture
def return_maps_calls(monkeypatch):
    """A list that gains one entry, its number of rows, per call of the library's flows."""
    calls = []
    kernel = native._kernel()
    flows = kernel.flows

    def counting(p, rows, n, *args):
        calls.append(n)
        return flows(p, rows, n, *args)

    monkeypatch.setattr(kernel, "flows", counting)
    return calls

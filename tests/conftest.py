import sys

import numpy as np
import pytest
import scipy.linalg

from qpendulum import mathieu

pytest_plugins = ["pytester"]


def clear_caches():
    """Empty every ``cache_clear``-able attribute, found by attribute, of
    every loaded ``qpendulum`` module."""
    for name, module in list(sys.modules.items()):
        if name == "qpendulum" or name.startswith("qpendulum."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts from empty caches and leaves none behind. A test
    that patches the solver, such as its first matrix size, would
    otherwise hand the next test grids solved at other sizes, with other
    bits."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record (kernel, diag, off, outputs) of every direct LAPACK call
    (dstebz, dsterf, dstein) from cold caches; a scipy ``eigh_tridiagonal``
    call records as one more. The caches are cleared again here, after
    any fixture that warmed them: a cached solve or grid would make a
    cold count read from a warm cache."""
    calls = []

    def spy(name, real):
        def recorded(diag, off, *args, **kwargs):
            out = real(diag, off, *args, **kwargs)
            calls.append((name, np.copy(diag), np.copy(off), out))
            return out
        return recorded

    for name in ("dstebz", "dsterf", "dstein"):
        monkeypatch.setattr(mathieu, name, spy(name, getattr(mathieu, name)))
    for module in (scipy.linalg, mathieu):
        if hasattr(module, "eigh_tridiagonal"):
            monkeypatch.setattr(module, "eigh_tridiagonal",
                                spy("eigh_tridiagonal", module.eigh_tridiagonal))
    clear_caches()
    return calls

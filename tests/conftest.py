import numpy as np
import pytest
import scipy.linalg

from qpendulum import mathieu, symmetry


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record (kernel, diag, off, outputs) of every direct LAPACK call
    (dstebz, dsterf, dstein) from cold caches; a scipy ``eigh_tridiagonal``
    call records as one more. Every ``cache_clear``-able attribute of
    ``mathieu`` and ``symmetry`` is cleared first, found by attribute: a
    cached solve or grid would make a cold count read from a warm cache."""
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
    for module in (mathieu, symmetry):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    return calls

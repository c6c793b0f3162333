import ctypes

import pytest

from squeezed_lasing.scenarios import _BLAS_THREAD_SYMBOLS, _one_blas_thread


@pytest.fixture(scope="session")
def scipy_blas_controls() -> list[tuple]:
    """The ``(get, set)`` pair of thread-count functions of scipy's own
    OpenBLAS, which scipy.linalg loads; empty for a BLAS without them.
    The package pins numpy's library alone (``_one_blas_thread``), since
    it runs on numpy alone."""
    import scipy.linalg._fblas as fblas

    lib = ctypes.CDLL(fblas.__file__)
    for pattern in _BLAS_THREAD_SYMBOLS:
        get = getattr(lib, pattern.format("get"), None)
        set_ = getattr(lib, pattern.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return [(get, set_)]
    return []


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread(scipy_blas_controls):
    """Run every test's numerics on one BLAS thread, as ``simulate`` runs a
    scenario's: library calls made outside ``run_scenario`` would otherwise
    wake OpenBLAS's default thread pool for small dense products.  The
    package pins numpy's OpenBLAS; the tests' references (SuperLU,
    ``expm``) use scipy's own, which is pinned here."""
    saved = [get() for get, _ in scipy_blas_controls]
    for _, set_ in scipy_blas_controls:
        set_(1)
    try:
        with _one_blas_thread():
            yield
    finally:
        for (_, set_), count in zip(scipy_blas_controls, saved):
            set_(count)

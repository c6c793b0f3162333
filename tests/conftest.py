import pytest

from squeezed_lasing.scenarios import _one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run every test's numerics on one BLAS thread, as ``simulate`` runs a
    scenario's: library calls made outside ``run_scenario`` would otherwise
    wake OpenBLAS's default thread pool for small dense products.  The
    package runs on numpy alone, but the tests' references (SuperLU,
    ``expm``) use scipy's own OpenBLAS, so that library is loaded first
    and its threads are pinned as well."""
    import scipy.linalg  # noqa: F401

    with _one_blas_thread():
        yield

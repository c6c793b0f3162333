import math
from fractions import Fraction

import numpy as np
import pytest

from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    annihilation,
    expectation,
)
from squeezed_lasing.gaussian import (
    GaussianDecomposition,
    GaussianState,
    compose,
    from_moments,
    symplectic_change_to_a_basis,
    to_fock,
)
from squeezed_lasing.lindblad import partial_trace, steady_state
from squeezed_lasing.lindblad import model_squeezed_laser_effective
from squeezed_lasing.dressing import DressedCoupling
from squeezed_lasing.meanfield import gaussian_mf_solution
from squeezed_lasing.wigner import (
    GridCoverageError,
    ModeBasis,
    PhaseGrid,
    WignerField,
    gaussian_wigner,
    grid_for_density,
    grid_for_gaussian,
    laguerre,
    wigner_basis,
    wigner_change_basis,
    wigner_from_density,
)


def laguerre_series_exact(n, p, x):
    # plain series with exact rationals, small enough to stay honest
    return sum(Fraction((-1) ** k * math.comb(n + p, n - k),
                        math.factorial(k)) * x**k
               for k in range(n + 1))


def symmetric_grid(half_width, points=33):
    return PhaseGrid(x_min=-half_width, x_max=half_width,
                     p_min=-half_width, p_max=half_width,
                     nx=points, np=points)


def fock_state(space, n):
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[n, n] = 1.0
    return DensityMatrix(space, m)


def test_laguerre_low_orders():
    xs = np.linspace(-2.0, 6.0, 9)
    for p in (0, 3):
        np.testing.assert_allclose(laguerre(0, p, xs), 1.0)
        np.testing.assert_allclose(laguerre(1, p, xs), p + 1 - xs, rtol=1e-14)
    assert laguerre(5, 2, 0.0) == pytest.approx(math.comb(7, 5), rel=1e-13)


def test_laguerre_matches_exact_series():
    got = laguerre(25, 10, 3.7)
    exact = laguerre_series_exact(25, 10, Fraction(37, 10))
    assert got == pytest.approx(float(exact), rel=1e-9)


def test_laguerre_rejects_negative_orders():
    with pytest.raises(ValueError):
        laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -3, 1.0)


def test_kernel_vacuum_term():
    grid = symmetric_grid(8.0, 200)
    x, p = grid.mesh()
    w00 = wigner_basis(0, 0, x, p)
    np.testing.assert_allclose(
        w00, np.exp(-(x**2 + p**2) / 2) / (2 * math.pi), atol=1e-15)
    assert np.sum(w00) * grid.cell_area == pytest.approx(1.0, abs=1e-6)


def test_kernel_single_photon_negative_at_origin():
    val = wigner_basis(1, 1, 0.0, 0.0)
    assert val == pytest.approx(-1 / (2 * math.pi), rel=1e-13)


def test_kernel_conjugation_symmetry():
    xs = np.array([0.3, -1.2, 2.0])
    ps = np.array([0.5, 0.1, -0.7])
    np.testing.assert_allclose(wigner_basis(1, 4, xs, ps),
                               np.conjugate(wigner_basis(4, 1, xs, ps)),
                               atol=1e-15)
    one = wigner_basis(3, 1, 0.4, -0.2)
    assert isinstance(one, complex)


def test_vacuum_density_reconstruction():
    space = HilbertSpace(n_qubits=0, field_dim=10)
    w = wigner_from_density(fock_state(space, 0), symmetric_grid(6.0, 33))
    assert w.basis_tag is ModeBasis.MODE_A
    assert w.mass == pytest.approx(1.0, abs=1e-6)
    # odd point count puts a sample exactly at the origin
    assert w.values[16, 16] == pytest.approx(1 / (2 * math.pi), abs=1e-12)


def test_single_photon_matches_hand_formula():
    space = HilbertSpace(n_qubits=0, field_dim=10)
    grid = symmetric_grid(7.0, 41)
    w = wigner_from_density(fock_state(space, 1), grid)
    x, p = grid.mesh()
    r2 = x**2 + p**2
    expected = -(1 - r2) * np.exp(-r2 / 2) / (2 * math.pi)
    np.testing.assert_allclose(w.values, expected, atol=1e-12)
    assert w.values.min() < -0.05


def test_coherent_state_is_displaced_vacuum_gaussian():
    space = HilbertSpace(n_qubits=0, field_dim=25)
    alpha = 0.8 - 0.3j
    gs = from_moments(alpha, abs(alpha) ** 2, alpha**2)
    rho = to_fock(gs, space)
    grid = grid_for_density(rho)
    w = wigner_from_density(rho, grid)
    ref = gaussian_wigner(gs, grid)
    np.testing.assert_allclose(w.values, ref.values, atol=1e-8)
    i, j = np.unravel_index(np.argmax(w.values), w.values.shape)
    assert grid.x_centers[i] == pytest.approx(2 * alpha.real, abs=grid.dx)
    assert grid.p_centers[j] == pytest.approx(2 * alpha.imag, abs=grid.dp)


def test_moments_match_operator_expectations():
    space = HilbertSpace(n_qubits=0, field_dim=25)
    alpha = 0.8 - 0.3j
    gs = from_moments(alpha, abs(alpha) ** 2, alpha**2)
    rho = to_fock(gs, space)
    w = wigner_from_density(rho, grid_for_density(rho))
    a = annihilation(space)
    x_op = a + a.dag()
    assert w.moment(lambda x, p: x) == pytest.approx(
        expectation(x_op, rho).real, abs=1e-3)
    assert w.moment(lambda x, p: x**2) == pytest.approx(
        expectation(x_op @ x_op, rho).real, abs=1e-3)


def test_undersized_grid_reports_suggestion():
    space = HilbertSpace(n_qubits=0, field_dim=60)
    alpha = 2.5
    gs = from_moments(alpha, abs(alpha) ** 2, alpha**2)
    rho = to_fock(gs, space)
    with pytest.raises(GridCoverageError, match="suggest extents"):
        wigner_from_density(rho, symmetric_grid(3.0))


def test_rejects_states_with_qubits():
    space = HilbertSpace(n_qubits=1, field_dim=4)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(ValueError):
        wigner_from_density(DensityMatrix(space, m), symmetric_grid(6.0))


def test_gaussian_wigner_vacuum():
    w = gaussian_wigner(GaussianState.vacuum(), symmetric_grid(6.0, 33))
    assert w.values[16, 16] == pytest.approx(1 / (2 * math.pi), rel=1e-12)
    assert w.mass == pytest.approx(1.0, abs=1e-6)


def test_gaussian_wigner_cross_path_oracle():
    # the Fock reconstruction and the closed-form Gaussian must agree
    space = HilbertSpace(n_qubits=0, field_dim=140)
    dec = GaussianDecomposition(alpha=0.5 + 0.4j, phi=0.3,
                                r_tilde=1.2, n_tilde=0.5)
    gs = compose(dec)
    grid = grid_for_gaussian(gs)
    direct = gaussian_wigner(gs, grid)
    via_fock = wigner_from_density(to_fock(gs, space), grid)
    assert float(np.max(np.abs(direct.values - via_fock.values))) < 1e-5


def test_gaussian_wigner_near_isotropic_at_strong_engineered_damping():
    gs = gaussian_mf_solution(0j, 10.0, 1.15)
    w = gaussian_wigner(gs, grid_for_gaussian(gs))
    var_x = w.moment(lambda x, p: x**2)
    var_p = w.moment(lambda x, p: p**2)
    expected = (10 + math.exp(2.3)) / (10 + math.exp(-2.3))
    assert var_x / var_p == pytest.approx(expected, rel=1e-3)


def test_change_basis_identity_at_zero():
    w = gaussian_wigner(GaussianState.vacuum(), symmetric_grid(6.0, 33))
    out = wigner_change_basis(w, 0.0)
    assert out.basis_tag is ModeBasis.MODE_a
    assert out.squeeze_r == 0.0
    np.testing.assert_allclose(out.values, w.values, atol=1e-15)
    assert out.grid == w.grid


def test_change_basis_vacuum_becomes_squeezed():
    r = 0.7
    space = HilbertSpace(n_qubits=0, field_dim=10)
    w_a_mode = wigner_from_density(fock_state(space, 0),
                                   symmetric_grid(6.0, 129))
    out = wigner_change_basis(w_a_mode, r)
    assert out.mass == pytest.approx(1.0, abs=1e-6)
    assert out.moment(lambda x, p: x**2) == pytest.approx(math.exp(-2 * r),
                                                          rel=1e-3)
    assert out.moment(lambda x, p: p**2) == pytest.approx(math.exp(2 * r),
                                                          rel=1e-3)
    ref = gaussian_wigner(
        symplectic_change_to_a_basis(GaussianState.vacuum(), r), out.grid)
    np.testing.assert_allclose(out.values, ref.values, atol=1e-10)


def test_change_basis_errors():
    w = gaussian_wigner(GaussianState.vacuum(), symmetric_grid(6.0, 33))
    out = wigner_change_basis(w, 0.3)
    with pytest.raises(ValueError):
        wigner_change_basis(out, 0.3)


def test_squeezed_laser_steady_state_stays_positive():
    space = HilbertSpace(n_qubits=1, field_dim=30)
    dressed = DressedCoupling.from_r(1.15,
                                     g_tilde=math.sqrt(5 * 0.02 * 11))
    me = model_squeezed_laser_effective(dressed, gamma=1.0, kappa=0.02,
                                        c_prime=10.0, space=space)
    rho = steady_state(me)
    field = partial_trace(rho, keep=[1])
    w = wigner_from_density(field, grid_for_density(field))
    assert w.values.min() >= -1e-6
    assert w.mass == pytest.approx(1.0, abs=1e-3)


def test_field_validation():
    grid = symmetric_grid(6.0, 33)
    flat = np.full((33, 33), 1.0)
    with pytest.raises(GridCoverageError):
        WignerField(grid=grid, values=flat, basis_tag=ModeBasis.MODE_A)
    with pytest.raises(ValueError):
        WignerField(grid=grid, values=np.full((33, 32), 0.0),
                    basis_tag=ModeBasis.MODE_A)
    with pytest.raises(ValueError):
        PhaseGrid(x_min=-1.0, x_max=1.0, p_min=-1.0, p_max=1.0, nx=8, np=33)

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    annihilation,
    expectation,
    truncation_edge,
)
from squeezed_lasing.gaussian import GaussianDecomposition, to_fock
from squeezed_lasing.lindblad import partial_trace, steady_state
from squeezed_lasing.lindblad import model_squeezed_laser_effective
from squeezed_lasing.dressing import DressedCoupling
from squeezed_lasing import wigner
from squeezed_lasing.meanfield import gaussian_mf_solution
from oracles import (
    compose,
    from_moments,
    gaussian_wigner,
    grid_for_gaussian,
    symplectic_change_to_a_basis,
    vacuum,
    wigner_per_cell,
)
from squeezed_lasing.wigner import (
    MASS_TOL,
    GridCoverageError,
    ModeBasis,
    PhaseGrid,
    WignerField,
    grid_for_density,
    wigner_change_basis,
    wigner_from_density,
)


def moment(field: WignerField, fx) -> float:
    """Midpoint quadrature of fx(X, P) * W."""
    x, p = field.grid.mesh()
    return float(np.sum(fx(x, p) * field.values)) * field.grid.cell_area


def symmetric_grid(half_width, points=33):
    return PhaseGrid(x_min=-half_width, x_max=half_width,
                     p_min=-half_width, p_max=half_width,
                     nx=points, np=points)


def fock_state(space, n):
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[n, n] = 1.0
    return DensityMatrix(space, m)


def laguerre_series_exact(n, p, x):
    # plain series with exact rationals, small enough to stay honest
    return sum(Fraction((-1) ** k * math.comb(n + p, n - k),
                        math.factorial(k)) * x**k
               for k in range(n + 1))


def superposition(n, delta, phi=0.0):
    """(|n> + e^{i phi} |n + delta>)/sqrt 2 and its diagonal part."""
    space = HilbertSpace(n_qubits=0, field_dim=n + delta + 1)
    psi = np.zeros(space.dim, dtype=complex)
    psi[n] = 1 / math.sqrt(2)
    psi[n + delta] = np.exp(1j * phi) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    return DensityMatrix(space, rho), DensityMatrix(space, np.diag(np.diag(rho)))


def coherence_wigner(n, delta, grid):
    """Wigner term of the real coherence rho[n + delta, n] = rho[n, n + delta] = 1/2."""
    rho, diag = superposition(n, delta)
    return (wigner_from_density(rho, grid).values
            - wigner_from_density(diag, grid).values)


def kernel_envelope(n, delta, r2, theta):
    # 2 Re(rho[n + delta, n] e^{-i delta theta}) times the radial factor
    # (-1)^n / (2 pi) sqrt(n! / (n + delta)!) r^delta e^{-r^2 / 2}
    return ((-1) ** n / (2 * math.pi)
            * math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + delta + 1)))
            * r2 ** (delta / 2) * np.exp(-r2 / 2) * np.cos(delta * theta))


def test_laguerre_low_orders():
    # L_0^3 = 1 and L_1^3 = 4 - x enter the |n> <-> |n + 3> coherences
    grid = symmetric_grid(8.0, 65)
    x, p = grid.mesh()
    r2 = x**2 + p**2
    theta = np.arctan2(p, x)
    for n, lag in ((0, np.ones_like(r2)), (1, 4 - r2)):
        np.testing.assert_allclose(coherence_wigner(n, 3, grid),
                                   kernel_envelope(n, 3, r2, theta) * lag,
                                   atol=1e-14)


def test_laguerre_matches_exact_series():
    # the recurrence reaches L_25^10 for the |25> <-> |35> coherence, and
    # L_150^40 for |150> <-> |190> out to that ring's turning point
    for n, delta, half_width, points, columns in (
            (25, 10, 16.0, 129, (70, 76, 80, 90, 100, 110)),
            (150, 40, 34.0, 321, (169, 193, 221, 249, 277, 289))):
        grid = symmetric_grid(half_width, points)
        w = coherence_wigner(n, delta, grid)
        mid = points // 2
        p0 = grid.p_centers[mid]
        for i in columns:
            x0 = grid.x_centers[i]
            r2 = x0**2 + p0**2
            exact = float(laguerre_series_exact(n, delta, Fraction(r2)))
            expected = kernel_envelope(n, delta, r2,
                                       math.atan2(p0, x0)) * exact
            assert w[i, mid] == pytest.approx(expected, rel=1e-9)


def test_kernel_vacuum_term():
    grid = symmetric_grid(8.0, 200)
    space = HilbertSpace(n_qubits=0, field_dim=4)
    x, p = grid.mesh()
    w00 = wigner_from_density(fock_state(space, 0), grid)
    np.testing.assert_allclose(
        w00.values, np.exp(-(x**2 + p**2) / 2) / (2 * math.pi), atol=1e-15)
    assert w00.mass == pytest.approx(1.0, abs=1e-6)


def test_kernel_single_photon_negative_at_origin():
    # |n><n| takes the value (-1)^n / (2 pi) at the origin
    space = HilbertSpace(n_qubits=0, field_dim=6)
    grid = symmetric_grid(7.0, 41)
    for n in (1, 2, 3):
        val = wigner_from_density(fock_state(space, n), grid).values[20, 20]
        assert val == pytest.approx((-1) ** n / (2 * math.pi), rel=1e-13)


def test_kernel_conjugation_symmetry():
    # complex conjugation of rho in the Fock basis mirrors W in p
    grid = symmetric_grid(8.0, 65)
    rho, _ = superposition(1, 3, phi=0.7)
    rho_conj = DensityMatrix(rho.space, rho.matrix.conj())
    w = wigner_from_density(rho, grid).values
    w_conj = wigner_from_density(rho_conj, grid).values
    np.testing.assert_allclose(w_conj, w[:, ::-1], atol=1e-15)
    assert np.max(np.abs(w - w[:, ::-1])) > 1e-3


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
    assert moment(w, lambda x, p: x) == pytest.approx(
        expectation(x_op, rho).real, abs=1e-3)
    assert moment(w, lambda x, p: x**2) == pytest.approx(
        expectation(x_op @ x_op, rho).real, abs=1e-3)


@pytest.mark.parametrize("nbar, field_dim", [(100, 200), (200, 320)])
def test_large_lasing_ring_stays_finite(nbar, field_dim):
    # the phase-averaged Poisson ring of a laser far above threshold,
    # where L_n^delta(r^2) alone overflows and e^{-r^2/2} underflows
    space = HilbertSpace(n_qubits=0, field_dim=field_dim)
    levels = np.arange(field_dim)
    pops = np.exp(levels * math.log(nbar) - nbar - gammaln(levels + 1))
    pops /= pops.sum()
    rho = DensityMatrix(space, np.diag(pops).astype(complex))
    with np.errstate(over="raise", invalid="raise"):
        w = wigner_from_density(rho, symmetric_grid(40.0, 161))
    assert np.all(np.isfinite(w.values))
    assert w.mass == pytest.approx(1.0, abs=MASS_TOL)
    # <X^2 + P^2> = 4 <n> + 2
    assert moment(w, lambda x, p: x**2 + p**2) == pytest.approx(
        4 * float(levels @ pops) + 2, rel=1e-6)


def test_gaussian_wigner_oracle_at_large_amplitude():
    # |alpha|^2 = 104: the Fock reconstruction must follow the closed form
    # down to what the truncation cuts off.  At field_dim 200-260 the
    # deviation is 0.35-1.5 times the top-tenth population.
    space = HilbertSpace(n_qubits=0, field_dim=240)
    gs = compose(GaussianDecomposition(alpha=10 + 2j, phi=0.3,
                                       r_tilde=0.5, n_tilde=0.2))
    rho = to_fock(gs, space)
    grid = grid_for_gaussian(gs)
    with np.errstate(over="raise", invalid="raise"):
        via_fock = wigner_from_density(rho, grid)
    deviation = np.max(np.abs(via_fock.values
                              - gaussian_wigner(gs, grid).values))
    edge = truncation_edge(rho)
    assert edge < 1e-5
    assert deviation < 2 * edge


def test_undersized_grid_reports_suggestion():
    space = HilbertSpace(n_qubits=0, field_dim=60)
    alpha = 2.5
    gs = from_moments(alpha, abs(alpha) ** 2, alpha**2)
    rho = to_fock(gs, space)
    with pytest.raises(GridCoverageError, match="suggest extents"):
        wigner_from_density(rho, symmetric_grid(3.0))


def coherent_band(nbar, sigmas):
    """A coherent state of mean photon number nbar, its amplitudes kept
    within ``sigmas`` Poisson widths of nbar, on the smallest space that
    holds them."""
    n = np.arange(int(nbar + sigmas * math.sqrt(nbar)) + 2)
    amp = np.exp(0.5 * (n * math.log(nbar) - nbar - gammaln(n + 1)))
    amp[np.abs(n - nbar) > sigmas * math.sqrt(nbar)] = 0.0
    amp /= np.linalg.norm(amp)
    return DensityMatrix(HilbertSpace(n_qubits=0, field_dim=n.size),
                         np.outer(amp, amp))


def resolving_grid(rho):
    """The moment-sized grid with as many points as resolve the state."""
    coarse = grid_for_density(rho, points=16)
    points = wigner._resolving_points(coarse, wigner._reach(rho))
    return grid_for_density(rho, points=max(points, 16))


def test_a_state_reaching_past_radius_37_6_reconstructs():
    # |alpha|^2 = 330 sits at x = 36.3 with unit variance, so about 0.5%
    # of its mass lies past r = 37.6, where e^{-r^2/2} / (2 pi) is
    # subnormal; the Laguerre functions carry a power-of-2 scale there
    rho = coherent_band(330.0, 4.0)
    grid = resolving_grid(rho)
    w = wigner_from_density(rho, grid)
    assert w.mass == pytest.approx(1.0, abs=1e-4)
    x, p = grid.mesh()
    far = np.broadcast_to(x**2 + p**2 > 37.6**2, w.values.shape)
    assert float(w.values[far].sum()) * grid.cell_area > 4e-3


def displaced_squeezed(nbar, r, theta, phi):
    """D(alpha) S |0> with |alpha|^2 = nbar at phase theta, squeezed by r
    along phi, on the smallest of a few field_dims whose top tenth holds
    < 1e-16: at 1e-12, a squeezed vacuum's truncation alone moves its W
    by up to 5e-8 of the peak."""
    gs = compose(GaussianDecomposition(
        alpha=cmath.rect(math.sqrt(nbar), theta), phi=phi, r_tilde=r,
        n_tilde=0.0))
    field_dim = math.ceil((nbar + 8 * math.sqrt(nbar) + 10) / 0.9)
    while True:
        rho = to_fock(gs, HilbertSpace(n_qubits=0, field_dim=field_dim))
        if truncation_edge(rho) < 1e-16:
            return gs, rho
        field_dim = math.ceil(1.2 * field_dim)


@settings(max_examples=3, deadline=None)
@given(nbar=st.floats(0, 20), r=st.floats(0, 1),
       theta=st.floats(0, 2 * math.pi),
       phi=st.sampled_from([0.0, math.pi / 2]))
# centred at r = 34.6, with cells out to r = 40.6, past r = 37.6, where
# e^{-r^2/2} / (2 pi) is subnormal
@example(nbar=300.0, r=0.0, theta=0.0, phi=0.0)
@example(nbar=20.0, r=1.0, theta=0.0, phi=0.0)
def test_gaussians_match_their_closed_form_at_any_radius(nbar, r, theta,
                                                         phi):
    gs, rho = displaced_squeezed(nbar, r, theta, phi)
    # 6 standard deviations of each quadrature, the axes of the squeezing,
    # about the mean
    sx, sp = 6 * np.sqrt(np.diag(gs.cov))
    grid = PhaseGrid(x_min=gs.mean[0] - sx, x_max=gs.mean[0] + sx,
                     p_min=gs.mean[1] - sp, p_max=gs.mean[1] + sp,
                     nx=21, np=21)
    exact = gaussian_wigner(gs, grid).values
    error = np.max(np.abs(wigner_from_density(rho, grid).values - exact))
    assert error <= 1e-8 * exact.max()


def test_coverage_failure_of_a_heavy_tail_suggests_its_radius():
    # 0.5% of |20> beside the vacuum: the 6-sigma moment extents (about
    # +-6.6) miss the |20> ring at radius sqrt(82) ~ 9.1, however many
    # points the grid has
    space = HilbertSpace(n_qubits=0, field_dim=21)
    m = np.zeros((21, 21))
    m[0, 0], m[20, 20] = 0.995, 0.005
    rho = DensityMatrix(space, m)
    grid = resolving_grid(rho)
    # the same grid with each bound 4 ulps inward, as a grid built under
    # another BLAS thread count may be, still spans the extents
    lo = np.array([grid.x_min, grid.p_min])
    hi = np.array([grid.x_max, grid.p_max])
    for _ in range(4):
        lo, hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    inward = dataclasses.replace(grid, x_min=lo[0], p_min=lo[1],
                                 x_max=hi[0], p_max=hi[1])
    for g in (grid, inward):
        with pytest.raises(GridCoverageError,
                           match=r"suggest extents out to radius 9\.1$"):
            wigner_from_density(rho, g)


def test_rejects_states_with_qubits():
    space = HilbertSpace(n_qubits=1, field_dim=4)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(ValueError):
        wigner_from_density(DensityMatrix(space, m), symmetric_grid(6.0))


def test_rejects_an_operator_that_is_not_a_state():
    # the reconstruction reads rho as Hermitian, which only the type assures
    space = HilbertSpace(n_qubits=0, field_dim=4)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(TypeError):
        wigner_from_density(Operator(space, m), symmetric_grid(6.0))


def test_reads_each_diagonal_by_its_hermitian_part():
    # an anti-Hermitian part that DensityMatrix's 1e-10 check lets through
    # drops out of W
    space = HilbertSpace(n_qubits=0, field_dim=20)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix(space, np.outer(psi, psi.conj()))
    ones = np.ones((space.dim, space.dim))
    tilted = DensityMatrix(space, rho.matrix + 4e-11j * (ones - np.eye(space.dim)))
    grid = grid_for_density(rho)
    w = wigner_from_density(rho, grid).values
    w_tilted = wigner_from_density(tilted, grid).values
    assert np.max(np.abs(w_tilted - w)) <= 1e-15 * np.max(np.abs(w))


def test_empty_fock_levels_leave_the_grid_bit_identical():
    # the recurrence stops at each diagonal's last kept coefficient, so
    # levels past the state's add no step and no term
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi /= np.linalg.norm(psi)
    small = DensityMatrix(HilbertSpace(n_qubits=0, field_dim=12),
                          np.outer(psi, psi.conj()))
    padded = np.zeros((30, 30), dtype=complex)
    padded[:12, :12] = small.matrix
    large = DensityMatrix(HilbertSpace(n_qubits=0, field_dim=30), padded)
    grid = grid_for_density(small)
    assert (wigner_from_density(large, grid).values.tobytes()
            == wigner_from_density(small, grid).values.tobytes())


def random_state(field_dim, seed, real, near_cut):
    """A mixed state of rank up to 3; ``near_cut`` sets off-diagonal
    pairs to magnitudes just under, at and just over the 1e-18 cut."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 4))
    psi = rng.standard_normal((field_dim, rank))
    if not real:
        psi = psi + 1j * rng.standard_normal((field_dim, rank))
    m = (psi @ psi.conj().T).astype(complex)
    m /= np.trace(m).real
    if near_cut and field_dim > 1:
        pairs = []
        for scale in (1 - 1e-6, 1.0, 1 + 1e-6):
            n = int(rng.integers(0, field_dim - 1))
            delta = int(rng.integers(1, field_dim - n))
            phase = 1 if real else np.exp(1j * rng.uniform(0, 2 * math.pi))
            pairs.append((n, delta, 1e-18 * scale * phase))

        def set_pairs():
            for n, delta, v in pairs:
                m[n + delta, n] = v
                m[n, n + delta] = np.conj(v)

        # the entries replaced may leave m indefinite: lift its spectrum,
        # then set them again, which moves it by less than 1e-17
        set_pairs()
        m += (1e-3 - min(0.0, np.linalg.eigvalsh(m)[0])) * np.eye(field_dim)
        m /= np.trace(m).real
        set_pairs()
    return DensityMatrix(HilbertSpace(n_qubits=0, field_dim=field_dim), m)


@settings(max_examples=40, deadline=None)
@given(field_dim=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       real=st.booleans(), near_cut=st.booleans(), centred=st.booleans(),
       stretch=st.tuples(*[st.floats(1.0, 1.3)] * 4),
       extra=st.tuples(st.integers(0, 8), st.integers(0, 8)))
@example(field_dim=24, seed=1, real=False, near_cut=True, centred=True,
         stretch=(1.0, 1.0, 1.0, 1.0), extra=(0, 0))
@example(field_dim=1, seed=0, real=True, near_cut=False, centred=True,
         stretch=(1.0, 1.0, 1.0, 1.0), extra=(0, 0))
# corners out to r = 30.7, where g_0 < 2^-512 takes the scaled path
@example(field_dim=24, seed=2, real=False, near_cut=False, centred=False,
         stretch=(1.3, 1.3, 1.3, 1.3), extra=(0, 0))
def test_kernel_matches_the_per_cell_recurrence_bit_for_bit(
        field_dim, seed, real, near_cut, centred, stretch, extra):
    # the recurrence runs once per distinct radius; every value must be
    # the one the recurrence run on every cell gives
    rho = random_state(field_dim, seed, real, near_cut)
    # past the top level's turning radius, with a spacing that resolves it
    radius = math.sqrt(4 * field_dim - 2) + 7
    if centred:
        # odd axes at spacing 0.5: the centre cell sits at r = 0 exactly
        nx = 2 * math.ceil(2 * radius) + 1 + 2 * extra[0]
        grid = PhaseGrid(x_min=-nx / 4, x_max=nx / 4,
                         p_min=-(nx + 2) / 4, p_max=(nx + 2) / 4,
                         nx=nx, np=nx + 2)
        x, p = grid.mesh()
        assert np.count_nonzero(x**2 + p**2 == 0.0) == 1
    else:
        x_lo, x_hi, p_lo, p_hi = (-radius * stretch[0], radius * stretch[1],
                                  -radius * stretch[2], radius * stretch[3])
        grid = PhaseGrid(
            x_min=x_lo, x_max=x_hi, p_min=p_lo, p_max=p_hi,
            nx=math.ceil((x_hi - x_lo) * radius / (2 * math.pi)) + extra[0],
            np=math.ceil((p_hi - p_lo) * radius / (2 * math.pi)) + extra[1])
    assert (wigner_from_density(rho, grid).values.tobytes()
            == wigner_per_cell(rho, grid).tobytes())


def test_gaussian_wigner_vacuum():
    w = gaussian_wigner(vacuum(), symmetric_grid(6.0, 33))
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
    var_x = moment(w, lambda x, p: x**2)
    var_p = moment(w, lambda x, p: p**2)
    expected = (10 + math.exp(2.3)) / (10 + math.exp(-2.3))
    assert var_x / var_p == pytest.approx(expected, rel=1e-3)


def test_change_basis_identity_at_zero():
    w = gaussian_wigner(vacuum(), symmetric_grid(6.0, 33))
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
    assert moment(out, lambda x, p: x**2) == pytest.approx(math.exp(-2 * r),
                                                           rel=1e-3)
    assert moment(out, lambda x, p: p**2) == pytest.approx(math.exp(2 * r),
                                                           rel=1e-3)
    ref = gaussian_wigner(
        symplectic_change_to_a_basis(vacuum(), r), out.grid)
    np.testing.assert_allclose(out.values, ref.values, atol=1e-10)


def test_change_basis_shares_the_read_only_values():
    w = gaussian_wigner(vacuum(), symmetric_grid(6.0, 33))
    assert wigner_change_basis(w, 0.4).values is w.values


def test_field_copies_a_writable_array():
    w = gaussian_wigner(vacuum(), symmetric_grid(6.0, 33))
    values = w.values.copy()
    field = WignerField(grid=w.grid, values=values, basis_tag=ModeBasis.MODE_A)
    assert field.values is not values
    assert not field.values.flags.writeable
    values[16, 16] = 0.0
    assert field.values[16, 16] == w.values[16, 16]
    # a read-only view of a writable array is copied too
    view = w.values.copy()[:]
    view.setflags(write=False)
    assert WignerField(grid=w.grid, values=view,
                       basis_tag=ModeBasis.MODE_A).values is not view


def test_change_basis_errors():
    w = gaussian_wigner(vacuum(), symmetric_grid(6.0, 33))
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

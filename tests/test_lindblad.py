import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from squeezed_lasing.dressing import DressedCoupling, dress
from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    annihilation,
    expectation,
    qubit_ops,
)
import squeezed_lasing.lindblad as lindblad
from squeezed_lasing.lindblad import (
    DegenerateSteadyStateError,
    LindbladTerm,
    Liouvillian,
    MasterEquation,
    adiabatic_elimination_ok,
    dissipator,
    fidelity,
    liouvillian_matrix,
    model_single_qubit_laser,
    model_squeezed_laser_effective,
    model_two_qubit_full,
    partial_trace,
    rhs,
    schrodinger_evolve,
    steady_state,
    trace_distance,
)


def fock_projector(space, *labels):
    idx = space.basis_index(*labels)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[idx, idx] = 1.0
    return m


def random_density(space, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(space.dim, space.dim)) \
        + 1j * rng.normal(size=(space.dim, space.dim))
    m = m @ m.conj().T
    return DensityMatrix(space, m / np.trace(m).real)


def test_dissipator_vacuum_dark():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    term = LindbladTerm(annihilation(space), 0.7)
    out = dissipator(term, fock_projector(space, 0))
    np.testing.assert_allclose(out, 0, atol=1e-15)


def test_dissipator_single_photon():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    kappa = 0.31
    term = LindbladTerm(annihilation(space), kappa)
    out = dissipator(term, fock_projector(space, 1))
    expected = 2 * kappa * (fock_projector(space, 0) - fock_projector(space, 1))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_dissipator_qubit_decay_rate():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    sigma, sigma_z, _ = qubit_ops(space, 0)
    gamma = 0.85
    out = dissipator(LindbladTerm(sigma, gamma), fock_projector(space, 0, 0))
    assert np.trace(sigma_z.matrix @ out).real == pytest.approx(-4 * gamma,
                                                                rel=1e-12)


def test_dissipator_traceless_and_mismatch():
    space = HilbertSpace(n_qubits=1, field_dim=5)
    rho = random_density(space, 3)
    term = LindbladTerm(annihilation(space), 1.3)
    assert abs(np.trace(dissipator(term, rho))) < 1e-12
    other = HilbertSpace(n_qubits=0, field_dim=5)
    with pytest.raises(ValueError):
        dissipator(term, random_density(other, 4))


def test_rhs_zero_generator():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    me = MasterEquation(hamiltonian=0.0 * annihilation(space), terms=(),
                        space=space)
    out = rhs(me, random_density(space, 5))
    np.testing.assert_allclose(out, 0, atol=1e-15)


def test_rhs_traceless_and_matches_liouvillian():
    space = HilbertSpace(n_qubits=1, field_dim=6)
    me = model_single_qubit_laser(g=0.9, gamma=1.0, kappa=0.3, space=space)
    rho = random_density(space, 11)
    out = rhs(me, rho)
    assert abs(np.trace(out)) < 1e-12
    lmat = liouvillian_matrix(me).matrix
    via_matrix = (lmat @ rho.matrix.reshape(-1, order="F")).reshape(
        (space.dim, space.dim), order="F")
    np.testing.assert_allclose(out, via_matrix, atol=1e-12)


def test_rhs_rejects_nonfinite():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    me = MasterEquation(hamiltonian=0.0 * annihilation(space),
                        terms=(LindbladTerm(annihilation(space), 1.0),),
                        space=space)
    bad = np.full((3, 3), np.inf, dtype=complex)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        rhs(me, bad)


def test_master_equation_rejects_nonhermitian_h():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    with pytest.raises(ValueError):
        MasterEquation(hamiltonian=annihilation(space), terms=(), space=space)


def test_liouvillian_damped_oscillator_spectrum():
    space = HilbertSpace(n_qubits=0, field_dim=5)
    kappa = 0.37
    me = MasterEquation(hamiltonian=0.0 * annihilation(space),
                        terms=(LindbladTerm(annihilation(space), kappa),),
                        space=space)
    lmat = liouvillian_matrix(me)
    assert lmat.matrix.shape == (25, 25)
    eigs = np.linalg.eigvals(lmat.matrix.toarray())
    expected = sorted(-kappa * (m + n) for m in range(5) for n in range(5))
    np.testing.assert_allclose(np.sort(eigs.real), expected, atol=1e-8)
    np.testing.assert_allclose(eigs.imag, 0, atol=1e-8)


def test_master_equation_rejects_callable_hamiltonian():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    with pytest.raises(TypeError, match="Operator"):
        MasterEquation(hamiltonian=lambda t: 0.0 * annihilation(space),
                       terms=(), space=space)
    with pytest.raises(TypeError, match="ndarray"):
        MasterEquation(hamiltonian=np.zeros((3, 3)), terms=(), space=space)


def build_model(kind, g, gamma, kappa, c_prime, r, field_dim):
    """One of the three model constructors at the given rates."""
    if kind == "single_qubit_laser":
        return model_single_qubit_laser(
            g, gamma, kappa, HilbertSpace(n_qubits=1, field_dim=field_dim))
    dressed = DressedCoupling.from_r(r, g_tilde=g)
    if kind == "squeezed_laser_effective":
        return model_squeezed_laser_effective(
            dressed, gamma, kappa, c_prime,
            HilbertSpace(n_qubits=1, field_dim=field_dim))
    # exactly swapped drive depths put the auxiliary coupling on the
    # u^2 - v^2 = -1 branch
    aux = DressedCoupling(u=math.sinh(r), v=math.cosh(r), r=r,
                          g_tilde=c_prime * g, norm_N=1.0)
    return model_two_qubit_full(dressed, aux, gamma, c_prime * gamma, kappa,
                                HilbertSpace(n_qubits=2, field_dim=field_dim))


rates = st.floats(0.01, 5.0)


@pytest.mark.parametrize("kind", ["single_qubit_laser",
                                  "squeezed_laser_effective",
                                  "two_qubit_full"])
@settings(max_examples=25, deadline=None)
@given(g=rates, gamma=rates, kappa=rates, c_prime=rates,
       r=st.floats(0.0, 1.5), field_dim=st.integers(2, 7),
       seed=st.integers(0, 2**32 - 1))
def test_generator_preserves_trace_and_hermiticity(kind, g, gamma, kappa,
                                                   c_prime, r, field_dim,
                                                   seed):
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    lmat = liouvillian_matrix(me).matrix
    d = me.space.dim
    scale = abs(lmat).max()
    # the trace functional is a left null vector: d tr(rho)/dt = 0
    trace_vec = np.zeros(d * d)
    trace_vec[np.arange(d) * (d + 1)] = 1.0
    assert np.max(np.abs(lmat.T @ trace_vec)) <= 1e-12 * scale
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = m + m.conj().T
    out = (lmat @ herm.reshape(-1, order="F")).reshape((d, d), order="F")
    tol = 1e-12 * scale * np.max(np.abs(herm))
    assert np.max(np.abs(out - out.conj().T)) <= tol
    # the sparse matrix and the operator-level generator agree
    assert np.max(np.abs(out - rhs(me, herm))) <= tol


def charge_free(me):
    """The same master equation without its charge: one sector, all of rho."""
    return MasterEquation(hamiltonian=me.hamiltonian, terms=me.terms,
                          space=me.space)


def off_sector(me) -> np.ndarray:
    """Mask of the entries of rho that join states of unequal charge."""
    labels = me.charge % me.modulus if me.modulus else me.charge
    return labels[:, None] != labels[None, :]


MODELS = ["single_qubit_laser", "squeezed_laser_effective", "two_qubit_full"]


@pytest.mark.parametrize("kind", MODELS)
@settings(max_examples=15, deadline=None)
@given(g=rates, gamma=rates, kappa=rates, c_prime=rates,
       r=st.floats(0.0, 1.5), field_dim=st.integers(2, 7))
def test_sector_steady_state_matches_full_solve(kind, g, gamma, kappa,
                                                c_prime, r, field_dim):
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    full = steady_state(charge_free(me))
    assert trace_distance(steady_state(me), full) <= 1e-12
    # the full solve, which knows nothing of the charge, does not leak
    # out of the sector either
    assert np.max(np.abs(full.matrix[off_sector(me)]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("kind, unknowns", [
    ("single_qubit_laser", 4 * 10 - 2),     # U(1): 2x2 blocks, two 1x1 ends
    ("squeezed_laser_effective", 20 ** 2 // 2),  # Z2: half of rho
    ("two_qubit_full", 40 ** 2 // 2),
])
def test_direct_solve_factors_only_the_sector(monkeypatch, kind, unknowns):
    shapes = []
    real = lindblad.splu

    def recording(matrix):
        shapes.append(matrix.shape)
        return real(matrix)

    # the solve looks splu up on the module, where tracers patch it
    monkeypatch.setattr(lindblad, "splu", recording)
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 10)
    rho = steady_state(me)
    assert shapes == [(unknowns, unknowns)]
    assert np.all(rho.matrix[off_sector(me)] == 0)


@pytest.mark.parametrize("kind", MODELS)
def test_broken_charge_raises(kind):
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 5)
    a = annihilation(me.space)
    # a coherent drive changes the photon number by one either way
    with pytest.raises(ValueError, match="Hamiltonian does not conserve"):
        dataclasses.replace(me, hamiltonian=me.hamiltonian
                            + 0.4 * (a + a.dag()))
    # loss plus dephasing in one jump mixes a parity-odd and a parity-even
    # part, so it maps the sector onto its complement as well
    mixed = LindbladTerm(a + a.dag() @ a, 0.2)
    with pytest.raises(ValueError, match=f"jump operator {len(me.terms)}"):
        dataclasses.replace(me, terms=(*me.terms, mixed))
    with pytest.raises(ValueError, match="one integer per basis state"):
        dataclasses.replace(me, charge=me.charge[:-1])


@pytest.mark.parametrize("kind", MODELS)
def test_charge_preserving_dephasing_keeps_the_sector(kind):
    # pure dephasing shifts no charge, so the sector stays closed
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 6)
    a = annihilation(me.space)
    dephased = dataclasses.replace(
        me, terms=(*me.terms, LindbladTerm(a.dag() @ a, 0.3)))
    assert trace_distance(steady_state(dephased),
                          steady_state(charge_free(dephased))) <= 1e-12


def test_liouvillian_trace_null_enforced():
    import scipy.sparse as sp

    space = HilbertSpace(n_qubits=0, field_dim=2)
    with pytest.raises(ValueError):
        Liouvillian(matrix=sp.identity(4, format="csc"), space=space)


def test_pump_inversion_conjugation_spectrum():
    # relabeling sigma <-> sigma^dag maps the inverted-coupling laser onto
    # the co-rotating laser with pumped qubit; spectra must coincide
    space = HilbertSpace(n_qubits=1, field_dim=6)
    g, gamma, kappa = 0.8, 1.0, 0.25
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    inverted = model_single_qubit_laser(g, gamma, kappa, space)
    h = -g * (a.dag() @ sigma + a @ sigma.dag())
    pumped = MasterEquation(
        hamiltonian=h,
        terms=(LindbladTerm(sigma.dag(), gamma), LindbladTerm(a, kappa)),
        space=space)
    e1 = np.linalg.eigvals(liouvillian_matrix(inverted).matrix.toarray())
    e2 = np.linalg.eigvals(liouvillian_matrix(pumped).matrix.toarray())
    cost = np.abs(e1[:, None] - e2[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8


def test_evolve_zero_generator_and_store():
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 /= np.linalg.norm(psi0)
    times, psis = schrodinger_evolve(lambda t: np.zeros((3, 3)), psi0, 2.0,
                                     n_store=5)
    assert times.shape == (5,)
    np.testing.assert_allclose(times, np.linspace(0.0, 2.0, 5))
    assert psis.shape == (5, 3)
    for psi in psis:
        np.testing.assert_allclose(psi, psi0, atol=1e-9)


def test_evolve_coherence_rotation():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    omega = 1.3
    a = annihilation(space)
    h = omega * (a.dag() @ a)
    psi = np.zeros(4, dtype=complex)
    psi[:3] = 1 / math.sqrt(3)
    t = 0.7
    _, psis = schrodinger_evolve(lambda _: h.matrix, psi, t)
    final = np.outer(psis[-1], psis[-1].conj())
    levels = np.arange(4)
    expected = np.outer(psi, psi.conj()) * np.exp(
        -1j * omega * t * (levels[:, None] - levels[None, :]))
    np.testing.assert_allclose(final, expected, atol=1e-7)


def test_single_qubit_laser_steady_methods_agree():
    space = HilbertSpace(n_qubits=1, field_dim=14)
    me = model_single_qubit_laser(g=math.sqrt(0.8), gamma=1.0, kappa=0.2,
                                  space=space)
    direct = steady_state(me, "direct")
    relaxed = steady_state(me, "evolve")
    assert trace_distance(direct, relaxed) < 1e-6
    a = annihilation(space)
    n_direct = expectation(a.dag() @ a, direct).real
    n_relaxed = expectation(a.dag() @ a, relaxed).real
    assert n_direct == pytest.approx(n_relaxed, abs=1e-6)


def test_steady_state_pure_decay():
    space = HilbertSpace(n_qubits=0, field_dim=5)
    me = MasterEquation(hamiltonian=0.0 * annihilation(space),
                        terms=(LindbladTerm(annihilation(space), 0.4),),
                        space=space)
    rho = steady_state(me)
    np.testing.assert_allclose(rho.matrix, fock_projector(space, 0),
                               atol=1e-10)


def test_steady_state_dark_laser():
    space = HilbertSpace(n_qubits=1, field_dim=6)
    me = model_single_qubit_laser(g=0.0, gamma=1.0, kappa=0.3, space=space)
    rho = steady_state(me)
    np.testing.assert_allclose(rho.matrix, fock_projector(space, 1, 0),
                               atol=1e-10)


def test_steady_state_degeneracy_detected():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    _, sigma_z, _ = qubit_ops(space, 0)
    free = MasterEquation(hamiltonian=1.0 * sigma_z, terms=(), space=space)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(free)
    nothing = MasterEquation(hamiltonian=0.0 * sigma_z, terms=(), space=space)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(nothing)


def test_steady_state_unknown_method():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    me = MasterEquation(hamiltonian=0.0 * annihilation(space),
                        terms=(LindbladTerm(annihilation(space), 1.0),),
                        space=space)
    with pytest.raises(ValueError):
        steady_state(me, "magic")


def test_laser_cooperativity_scaling():
    # photon number approaches gamma/(2 kappa) from below as C grows
    gamma, kappa = 1.0, 0.1
    space = HilbertSpace(n_qubits=1, field_dim=24)
    numbers = {}
    for c in (3.0, 20.0):
        g = math.sqrt(c * gamma * kappa)
        rho = steady_state(model_single_qubit_laser(g, gamma, kappa, space))
        a = annihilation(space)
        numbers[c] = expectation(a.dag() @ a, rho).real
    assert numbers[20.0] > numbers[3.0]
    assert numbers[20.0] < gamma / (2 * kappa)
    pump = gamma * (20.0 - 1) / (2 * kappa * 20.0)
    assert numbers[20.0] == pytest.approx(pump, rel=0.15)


def test_laser_steady_field_is_number_diagonal():
    space = HilbertSpace(n_qubits=1, field_dim=16)
    me = model_single_qubit_laser(g=math.sqrt(0.5), gamma=1.0, kappa=0.1,
                                  space=space)
    rho_f = partial_trace(steady_state(me), keep=[1])
    off = rho_f.matrix - np.diag(np.diag(rho_f.matrix))
    assert np.max(np.abs(off)) < 1e-8


def test_squeezed_model_reduces_to_plain_laser():
    space = HilbertSpace(n_qubits=1, field_dim=7)
    plain = model_single_qubit_laser(g=0.83, gamma=1.0, kappa=0.2, space=space)
    dressed = DressedCoupling.from_r(0.0, g_tilde=0.83)
    squeezed = model_squeezed_laser_effective(dressed, 1.0, 0.2, 0.0, space)
    diff = (liouvillian_matrix(plain).matrix
            - liouvillian_matrix(squeezed).matrix)
    assert abs(diff).max() < 1e-15


def test_squeezed_model_rejects_swapped_branch():
    space = HilbertSpace(n_qubits=1, field_dim=7)
    with pytest.raises(ValueError):
        model_squeezed_laser_effective(dress(0.2, 0.16), 1.0, 0.2, 1.0, space)


@pytest.fixture(scope="module")
def squeezed_operating_point():
    gamma, kappa, c_prime, r = 1.0, 0.02, 10.0, 1.15
    g_tilde = math.sqrt(5 * gamma * kappa * (1 + c_prime))
    dressed = DressedCoupling.from_r(r, g_tilde=g_tilde)
    space = HilbertSpace(n_qubits=1, field_dim=30)
    me = model_squeezed_laser_effective(dressed, gamma, kappa, c_prime, space)
    return me, steady_state(me, "direct")


def test_squeezed_steady_photon_number(squeezed_operating_point):
    # cooperativity 5 at kappa/gamma = 0.02, r = 1.15, engineered-channel
    # cooperativity 10: the mean-field photon number is the coherent pump
    # gamma(C-1)/(2 kappa C (1+C')) plus the squeezed-ring width
    # sinh^2 r/(1+C'); the exact solve sits within the finite-size band
    me, rho = squeezed_operating_point
    a = annihilation(me.space)
    n_mode = expectation(a.dag() @ a, rho).real
    pump = 1.0 * (5 - 1) / (2 * 0.02 * 5 * (1 + 10.0))
    ring = math.sinh(1.15) ** 2 / (1 + 10.0)
    assert n_mode == pytest.approx(pump + ring, rel=0.25)


def test_squeezed_steady_parity_and_squeeze_axis(squeezed_operating_point):
    # the bare-mode decay channel mixes A and A^dag, which breaks the
    # phase symmetry of the plain laser down to photon-number parity:
    # odd coherences vanish identically and <A> = 0, but the squeeze
    # axis stays pinned and shows up as a Delta n = 2 coherence whose
    # size the Gaussian fluctuation ellipse predicts
    me, rho = squeezed_operating_point
    a = annihilation(me.space)
    assert abs(expectation(a, rho)) < 1e-8
    rho_f = partial_trace(rho, keep=[1])
    fd = me.space.field_dim
    m, n = np.meshgrid(np.arange(fd), np.arange(fd), indexing="ij")
    assert np.max(np.abs(rho_f.matrix[(m - n) % 2 == 1])) < 1e-10
    r, cp = 1.15, 10.0
    r_t = 0.25 * math.log((math.exp(2 * r) + cp) / (math.exp(-2 * r) + cp))
    n_t = (math.sqrt((math.exp(2 * r) + cp) * (math.exp(-2 * r) + cp))
           / (1 + cp) - 1) / 2
    predicted = (2 * n_t + 1) * math.sinh(2 * r_t) / 2
    mom2 = expectation(a @ a, rho)
    assert abs(mom2.imag) < 1e-10
    assert mom2.real == pytest.approx(predicted, rel=0.25)


def test_two_qubit_aux_coupling_is_rotating():
    # with exactly swapped drive depths the auxiliary mode is the adjoint
    # of the lasing mode, so its coupling term is a plain rotating one
    space = HilbertSpace(n_qubits=2, field_dim=6)
    dressed = dress(0.1, 0.2, g=1.7)
    dressed_aux = dress(0.2, 0.1, g=0.4)
    me = model_two_qubit_full(dressed, dressed_aux, 1.0, 0.8, 0.1, space)
    mode = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    sigma_aux, _, _ = qubit_ops(space, 1)
    expected = (-dressed.g_tilde * (mode.dag() @ sigma.dag() + mode @ sigma)
                - dressed_aux.g_tilde * (mode @ sigma_aux.dag()
                                         + mode.dag() @ sigma_aux))
    np.testing.assert_allclose(me.hamiltonian.matrix, expected.matrix,
                               atol=1e-12)


def test_two_qubit_decoupled_aux_traces_out():
    space2 = HilbertSpace(n_qubits=2, field_dim=8)
    space1 = HilbertSpace(n_qubits=1, field_dim=8)
    dressed = dress(0.1, 0.2, g=2.0)
    silent_aux = dress(0.2, 0.1, g=0.0)
    full = model_two_qubit_full(dressed, silent_aux, 1.0, 0.8, 0.1, space2)
    reduced = partial_trace(steady_state(full, "direct"), keep=[0, 2])
    effective = model_squeezed_laser_effective(dressed, 1.0, 0.1, 0.0, space1)
    assert trace_distance(reduced, steady_state(effective)) < 1e-6


def test_adiabatic_elimination_flag():
    assert adiabatic_elimination_ok(10.0, 0.1, 4.0)
    assert not adiabatic_elimination_ok(1.0, 0.1, 4.0)
    assert adiabatic_elimination_ok(0.0, 0.0, 0.0)


def test_partial_trace_product_state():
    qubit = HilbertSpace(n_qubits=1, field_dim=1)
    space = HilbertSpace(n_qubits=1, field_dim=4)
    rho_q = np.array([[0.7, 0.2j], [-0.2j, 0.3]], dtype=complex)
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_f = m @ m.conj().T
    rho_f /= np.trace(rho_f).real
    joint = DensityMatrix(space, np.kron(rho_q, rho_f))
    np.testing.assert_allclose(partial_trace(joint, [0]).matrix, rho_q,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, [1]).matrix, rho_f,
                               atol=1e-12)
    assert partial_trace(joint, [0]).space == qubit


def test_partial_trace_bell_pair():
    space = HilbertSpace(n_qubits=2, field_dim=1)
    psi = np.zeros(4, dtype=complex)
    psi[space.basis_index(0, 0, 0)] = 1 / math.sqrt(2)
    psi[space.basis_index(1, 1, 0)] = 1 / math.sqrt(2)
    rho = DensityMatrix(space, np.outer(psi, psi.conj()))
    for keep in ([0], [1]):
        red = partial_trace(rho, keep)
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
        assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bad_factors():
    space = HilbertSpace(n_qubits=1, field_dim=3)
    rho = random_density(space, 9)
    for keep in ([], [1, 0], [0, 0], [2]):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)


def test_fidelity_identity_and_pure_overlap():
    space = HilbertSpace(n_qubits=0, field_dim=5)
    rho = random_density(space, 21)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(22)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    p1 = DensityMatrix(space, np.outer(psi, psi.conj()))
    p2 = DensityMatrix(space, np.outer(phi, phi.conj()))
    overlap = abs(np.vdot(psi, phi)) ** 2
    assert fidelity(p1, p2) == pytest.approx(overlap, rel=1e-8)


def test_fidelity_symmetric_and_validates():
    space = HilbertSpace(n_qubits=0, field_dim=6)
    rho = random_density(space, 31)
    sigma = random_density(space, 32)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho),
                                                 abs=1e-8)
    assert 0.0 <= fidelity(rho, sigma) <= 1.0
    bad = np.eye(6, dtype=complex)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        fidelity(rho, Operator(space, bad))


def test_fidelity_rejects_deep_negativity():
    space = HilbertSpace(n_qubits=0, field_dim=2)
    m = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(InvalidStateError):
        fidelity(Operator(space, m), Operator(space, np.eye(2) / 2))


def test_trace_distance_basics():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    e = DensityMatrix(space, fock_projector(space, 0, 0))
    g = DensityMatrix(space, fock_projector(space, 1, 0))
    assert trace_distance(e, g) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(e, e) == pytest.approx(0.0, abs=1e-12)


def test_schrodinger_evolve_rabi():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    _, _, sigma_x = qubit_ops(space, 0)
    omega = 2.1
    h = 0.5 * omega * sigma_x

    times, psis = schrodinger_evolve(lambda t: h.matrix, np.array([0.0, 1.0]),
                                     3.0, n_store=7)
    for t, psi in zip(times, psis):
        u = expm(-1j * h.matrix * t)
        np.testing.assert_allclose(psi, u @ np.array([0, 1.0]), atol=1e-7)
    with pytest.raises(ValueError):
        schrodinger_evolve(lambda t: h.matrix, np.array([0.0, 2.0]), 1.0)
    with pytest.raises(ValueError, match="t_final"):
        schrodinger_evolve(lambda t: h.matrix, np.array([0.0, 1.0]), -3.0)

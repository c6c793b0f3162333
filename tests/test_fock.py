import numpy as np
import pytest

from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    adjoint_action,
    annihilation,
    commutator,
    displacement,
    expectation,
    fock_populations,
    identity,
    phase_rotation,
    qubit_ops,
    squeeze,
    tensor,
    truncation_edge,
)


def test_space_dims():
    space = HilbertSpace(n_qubits=2, field_dim=5)
    assert space.dim == 20
    assert space.factor_dims == (2, 2, 5)


def test_space_field_dim_one_allowed():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    assert space.dim == 2


def test_space_invalid():
    with pytest.raises(ValueError):
        HilbertSpace(n_qubits=-1, field_dim=4)
    with pytest.raises(ValueError):
        HilbertSpace(n_qubits=0, field_dim=0)


def test_basis_index_order():
    # |q1 q2 n> with the field index fastest.
    space = HilbertSpace(n_qubits=2, field_dim=3)
    assert space.basis_index(0, 0, 0) == 0
    assert space.basis_index(0, 0, 2) == 2
    assert space.basis_index(0, 1, 0) == 3
    assert space.basis_index(1, 0, 0) == 6
    assert space.basis_index(1, 1, 2) == 11


def test_annihilation_ladder():
    space = HilbertSpace(n_qubits=0, field_dim=6)
    a = annihilation(space)
    n_op = a.dag() @ a
    np.testing.assert_allclose(np.diag(n_op.matrix), np.arange(6), atol=1e-14)
    # truncated commutator: [a, a^dag] = 1 except in the top level,
    # where it is 1 - field_dim
    comm = commutator(a, a.dag()).matrix
    np.testing.assert_allclose(comm[:-1, :-1], np.eye(5), atol=1e-14)
    assert comm[-1, -1].real == pytest.approx(1 - 6, abs=1e-12)


def test_annihilation_requires_two_levels():
    with pytest.raises(ValueError):
        annihilation(HilbertSpace(n_qubits=0, field_dim=1))


def test_qubit_ops_convention():
    # index 0 is |e>, so sigma = |g><e| has its single entry at (1, 0)
    space = HilbertSpace(n_qubits=1, field_dim=1)
    sigma, sigma_z, sigma_x = qubit_ops(space, 0)
    np.testing.assert_array_equal(sigma.matrix, [[0, 0], [1, 0]])
    np.testing.assert_array_equal(sigma_z.matrix, [[1, 0], [0, -1]])
    np.testing.assert_array_equal(sigma_x.matrix, [[0, 1], [1, 0]])
    # sigma_z |e> = +|e>
    e = np.array([1.0, 0.0])
    np.testing.assert_array_equal(sigma_z.matrix @ e, e)


def test_qubit_ops_embedding():
    space = HilbertSpace(n_qubits=2, field_dim=3)
    s0, _, _ = qubit_ops(space, 0)
    s1, _, _ = qubit_ops(space, 1)
    # acting on different factors they commute exactly
    np.testing.assert_allclose(commutator(s0, s1).matrix, 0, atol=0)
    # sigma on qubit 0 maps |e g n> -> |g g n>
    src = space.basis_index(0, 1, 2)
    dst = space.basis_index(1, 1, 2)
    assert s0.matrix[dst, src] == 1.0
    assert np.count_nonzero(s0.matrix) == 6


def test_tensor_matches_embedding():
    qubit = HilbertSpace(n_qubits=1, field_dim=1)
    fld = HilbertSpace(n_qubits=0, field_dim=4)
    sigma, _, _ = qubit_ops(qubit, 0)
    a_local = annihilation(fld)
    joint = tensor(sigma, a_local)
    space = HilbertSpace(n_qubits=1, field_dim=4)
    sigma_full, _, _ = qubit_ops(space, 0)
    a_full = annihilation(space)
    np.testing.assert_allclose(joint.matrix, (sigma_full @ a_full).matrix, atol=1e-14)


def test_tensor_rejects_field_before_qubit():
    fld = identity(HilbertSpace(n_qubits=0, field_dim=3))
    qub = identity(HilbertSpace(n_qubits=1, field_dim=1))
    with pytest.raises(ValueError):
        tensor(fld, qub)


def test_operator_algebra():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    a = annihilation(space)
    x = a + a.dag()
    assert x.is_hermitian()
    assert not a.is_hermitian()
    y = 2.0 * x - x * 2.0
    np.testing.assert_allclose(y.matrix, 0, atol=0)
    np.testing.assert_allclose((-x).matrix, -x.matrix)


def test_operator_space_mismatch():
    a4 = annihilation(HilbertSpace(0, 4))
    a5 = annihilation(HilbertSpace(0, 5))
    with pytest.raises(ValueError):
        a4 @ a5


def test_operator_matrix_readonly():
    a = annihilation(HilbertSpace(0, 3))
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 1.0


def test_displacement_coherent_state():
    # D(alpha)|0> is the coherent state with Poisson populations
    space = HilbertSpace(n_qubits=0, field_dim=40)
    alpha = 1.3 - 0.4j
    d = displacement(space, alpha)
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    psi = d.matrix @ vac
    n = np.arange(space.dim)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, space.dim)))))
    expected = np.exp(-abs(alpha) ** 2 + 2 * n * np.log(abs(alpha)) - logfact)
    np.testing.assert_allclose(np.abs(psi) ** 2, expected, atol=1e-12)
    # unitarity on the truncated space holds away from the edge
    uu = d.dag().matrix @ d.matrix
    np.testing.assert_allclose(uu[:20, :20], np.eye(20), atol=1e-8)


def test_squeeze_quadrature_variances():
    # sign convention: x = a+a^dag is antisqueezed for r > 0
    space = HilbertSpace(n_qubits=0, field_dim=60)
    r = 0.7
    s = squeeze(space, r)
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    psi = s.matrix @ vac
    a = annihilation(space).matrix
    x = a + a.conj().T
    p = 1j * (a.conj().T - a)
    var_x = np.real(psi.conj() @ (x @ x) @ psi) - np.real(psi.conj() @ x @ psi) ** 2
    var_p = np.real(psi.conj() @ (p @ p) @ psi) - np.real(psi.conj() @ p @ psi) ** 2
    assert var_x == pytest.approx(np.exp(2 * r), rel=1e-6)
    assert var_p == pytest.approx(np.exp(-2 * r), rel=1e-6)


def test_squeeze_conjugation_bogoliubov():
    # S(r)^dag a S(r) = a cosh r + a^dag sinh r on low Fock levels;
    # the conjugation spreads weight to ~ n e^{2r}, so keep the block small
    space = HilbertSpace(n_qubits=0, field_dim=80)
    r = 0.6
    s = squeeze(space, r)
    a = annihilation(space)
    lhs = (s.dag() @ a @ s).matrix
    rhs = np.cosh(r) * a.matrix + np.sinh(r) * a.dag().matrix
    np.testing.assert_allclose(lhs[:8, :8], rhs[:8, :8], atol=1e-8)


def test_squeeze_inverse():
    space = HilbertSpace(n_qubits=0, field_dim=60)
    s = squeeze(space, 0.8)
    si = squeeze(space, -0.8)
    prod = (s @ si).matrix
    np.testing.assert_allclose(prod[:30, :30], np.eye(30), atol=1e-8)


def test_displacement_inverse():
    space = HilbertSpace(n_qubits=0, field_dim=30)
    alpha = 1.2 + 0.8j  # |alpha|^2 = 2.08 < field_dim/4
    prod = (displacement(space, alpha) @ displacement(space, -alpha)).matrix
    np.testing.assert_allclose(prod, np.eye(space.dim), atol=1e-8)


def test_matrix_exponential_antihermitian_unitary():
    from squeezed_lasing.fock import matrix_exponential

    rng = np.random.default_rng(7)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    anti = m - m.conj().T
    space = HilbertSpace(n_qubits=3, field_dim=1)
    u = matrix_exponential(Operator(space, anti))
    np.testing.assert_allclose((u.dag() @ u).matrix, np.eye(8), atol=1e-10)


def test_tensor_associativity():
    # sigma_z (x) I (x) a built in either association order
    qubit = HilbertSpace(n_qubits=1, field_dim=1)
    fld = HilbertSpace(n_qubits=0, field_dim=3)
    _, sz, _ = qubit_ops(qubit, 0)
    i2 = identity(qubit)
    a = annihilation(fld)
    left_first = tensor(tensor(sz, i2), a)
    right_first = tensor(sz, tensor(i2, a))
    np.testing.assert_array_equal(left_first.matrix, right_first.matrix)
    assert left_first.space == HilbertSpace(n_qubits=2, field_dim=3)


def test_phase_rotation_conjugates_a():
    space = HilbertSpace(n_qubits=0, field_dim=12)
    phi = 0.9
    u = phase_rotation(space, phi)
    a = annihilation(space)
    rotated = adjoint_action(u, a)
    np.testing.assert_allclose(rotated.matrix, np.exp(-1j * phi) * a.matrix, atol=1e-12)


def test_density_matrix_validation():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    good = np.diag([0.6, 0.3, 0.1])
    rho = DensityMatrix(space, good)
    assert expectation(identity(space), rho) == pytest.approx(1.0)

    with pytest.raises(InvalidStateError):
        DensityMatrix(space, np.diag([0.7, 0.3, 0.1]))  # trace 1.1
    bad_herm = np.diag([0.6, 0.3, 0.1]).astype(complex)
    bad_herm[0, 1] = 1e-3
    with pytest.raises(InvalidStateError):
        DensityMatrix(space, bad_herm)
    bad_pos = np.diag([1.1, -0.1, 0.0])
    with pytest.raises(InvalidStateError):
        DensityMatrix(space, bad_pos)


def test_truncation_edge_measures_top_tenth():
    space = HilbertSpace(n_qubits=0, field_dim=10)
    pops = np.zeros(10)
    pops[0] = 0.99
    pops[9] = 0.01
    assert truncation_edge(DensityMatrix(space, np.diag(pops))) == pytest.approx(0.01)
    # level 8 lies below the top tenth of 10 levels
    pops[8], pops[9] = 0.01, 0.0
    assert truncation_edge(DensityMatrix(space, np.diag(pops))) == 0.0
    # the edge sums the top field levels over the qubits
    space = HilbertSpace(n_qubits=1, field_dim=10)
    mat = np.zeros((20, 20))
    for labels, p in (((0, 0), 0.99), ((0, 9), 0.004), ((1, 9), 0.006)):
        mat[space.basis_index(*labels), space.basis_index(*labels)] = p
    assert truncation_edge(DensityMatrix(space, mat)) == pytest.approx(0.01)
    # a one-level ladder has no edge
    assert truncation_edge(DensityMatrix(HilbertSpace(0, 1), np.eye(1))) == 0.0


def test_fock_populations_traces_qubits():
    space = HilbertSpace(n_qubits=1, field_dim=3)
    mat = np.zeros((6, 6))
    mat[space.basis_index(0, 1), space.basis_index(0, 1)] = 0.25
    mat[space.basis_index(1, 1), space.basis_index(1, 1)] = 0.25
    mat[space.basis_index(1, 0), space.basis_index(1, 0)] = 0.5
    rho = DensityMatrix(space, mat)
    np.testing.assert_allclose(fock_populations(rho), [0.5, 0.5, 0.0], atol=1e-14)


def test_expectation_number():
    space = HilbertSpace(n_qubits=0, field_dim=5)
    a = annihilation(space)
    mat = np.zeros((5, 5))
    mat[2, 2] = 1.0
    rho = DensityMatrix(space, mat)
    assert expectation(a.dag() @ a, rho) == pytest.approx(2.0)

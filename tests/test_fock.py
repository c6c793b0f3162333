import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import commutator, displacement, identity, phase_rotation, squeeze

from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    annihilation,
    displacement_elements,
    expectation,
    fock_populations,
    qubit_ops,
    truncation_edge,
)


def negated(op: Operator) -> Operator:
    return Operator(op.space, -op.matrix)


def adjoint_action(u: Operator, op: Operator) -> Operator:
    """U op U^dag."""
    return Operator(op.space, u.matrix @ op.matrix @ u.matrix.conj().T)


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
    # operators on the joint space are Kronecker products, qubits first
    sigma_local, _, _ = qubit_ops(HilbertSpace(n_qubits=1, field_dim=1), 0)
    a_local = annihilation(HilbertSpace(n_qubits=0, field_dim=4))
    space = HilbertSpace(n_qubits=1, field_dim=4)
    sigma_full, _, _ = qubit_ops(space, 0)
    a_full = annihilation(space)
    np.testing.assert_allclose((sigma_full @ a_full).matrix,
                               np.kron(sigma_local.matrix, a_local.matrix),
                               atol=1e-14)


def test_tensor_associativity():
    # sigma_z on the second of two qubits is I (x) sigma_z (x) I in
    # either association order
    space = HilbertSpace(n_qubits=2, field_dim=3)
    _, sz, _ = qubit_ops(space, 1)
    sz_local = np.diag([1.0, -1.0])
    i2, i3 = np.eye(2), np.eye(3)
    np.testing.assert_array_equal(sz.matrix, np.kron(np.kron(i2, sz_local), i3))
    np.testing.assert_array_equal(sz.matrix, np.kron(i2, np.kron(sz_local, i3)))


def test_operator_algebra():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    a = annihilation(space)
    x = a + a.dag()
    assert x.is_hermitian()
    assert not a.is_hermitian()
    y = 2.0 * x - x * 2.0
    np.testing.assert_allclose(y.matrix, 0, atol=0)
    np.testing.assert_allclose(negated(x).matrix, -x.matrix)


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


def _resolved_field_dim(alpha: float) -> int:
    """The least field_dim whose levels below field_dim/2 an exponential
    on twice as many levels resolves: D(alpha)|n> for n < field_dim/2
    keeps its weight below (sqrt(n) + alpha)^2 plus 12 widths and 30."""
    fd = 2
    while 2 * fd < ((math.sqrt(fd / 2) + alpha) ** 2
                    + 12 * (math.sqrt(fd / 2) + alpha) + 30):
        fd += 1
    return fd


@settings(max_examples=12, deadline=None)
@given(x=st.floats(0.0, 60.0))
@example(x=0.0)
@example(x=60.0)
def test_displacement_elements_match_the_exponential(x):
    # the exponential of the truncated generator is exact on the levels
    # far from its own edge
    alpha = math.sqrt(x)
    fd = _resolved_field_dim(alpha)
    oracle = displacement(HilbertSpace(n_qubits=0, field_dim=2 * fd), alpha)
    half = fd // 2
    elements = displacement_elements(alpha, fd)
    assert np.max(np.abs(elements[:half, :half]
                         - oracle.matrix[:half, :half])) <= 1e-13


def test_displacement_elements_match_the_exponential_far_out():
    # |alpha|^2 = 500 needs 3,206 levels, where fock.displacement's dense
    # eigh takes seconds.  The generator G = alpha (a^dag - a) is real and
    # tridiagonal, and S^dag G S = -iH with S = diag(i^k) and H real
    # symmetric, so exp(G) = S V e^{-iw} V^T S^dag from scipy's tridiagonal
    # eigensolver; exp(G) is real, so it is also S^dag V e^{iw} V^T S
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    alpha = math.sqrt(500.0)
    fd = _resolved_field_dim(alpha)
    w, v = eigh_tridiagonal(np.zeros(2 * fd),
                            alpha * np.sqrt(np.arange(1, 2 * fd)))
    half = fd // 2
    low = v[:half]
    phase = 1j ** np.arange(half)
    oracle = (phase.conj()[:, None] * ((low * np.exp(1j * w)) @ low.T)
              * phase)
    elements = displacement_elements(alpha, fd)
    assert np.max(np.abs(elements[:half, :half] - oracle)) <= 1e-13


@settings(max_examples=4, deadline=None)
@given(x=st.floats(0.0, 1500.0))
# past |alpha|^2 ~ 1,400, e^(-|alpha|^2 / 2) underflows: only the scaled
# recurrence reaches the elements near the diagonal
@example(x=1500.0)
@example(x=0.25)
def test_displacement_elements_match_the_closed_form(x):
    mpmath = pytest.importorskip("mpmath")
    alpha = math.sqrt(x)
    fd = int(x + 8 * alpha) + 30
    elements = displacement_elements(alpha, fd)

    def exact(m, n):
        if m < n:
            return (-1) ** (n - m) * exact(n, m)
        a = mpmath.mpf(alpha)
        # zeroprec lets an exact zero, L_1(1) = 0, come out as 0
        return float(mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
                     * a ** (m - n) * mpmath.exp(-a * a / 2)
                     * mpmath.laguerre(n, m - n, a * a, zeroprec=1000))

    step = max(1, fd // 60)
    for m in sorted({0, fd // 3, int(x), fd - 1}):
        cols = np.arange(0, fd, step)
        with mpmath.workdps(40):
            row = np.array([exact(m, n) for n in cols])
        worst = np.max(np.abs(elements[m, cols] - row))
        assert worst <= 1e-12 * np.max(np.abs(row)), (m, worst)


def test_matrix_exponential_antihermitian_unitary():
    from squeezed_lasing.fock import matrix_exponential

    rng = np.random.default_rng(7)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    anti = m - m.conj().T
    space = HilbertSpace(n_qubits=3, field_dim=1)
    u = matrix_exponential(Operator(space, anti))
    np.testing.assert_allclose((u.dag() @ u).matrix, np.eye(8), atol=1e-10)


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


def test_density_matrix_checks_blocks():
    # blocks {0, 2} and {1, 3}: a 2x2 coherence inside each
    space = HilbertSpace(n_qubits=1, field_dim=2)
    blocks = np.array([0, 1, 0, 1])
    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    good[0, 2] = good[2, 0] = 0.25
    rho = DensityMatrix(space, good, blocks=blocks)
    assert np.array_equal(rho.matrix, good)
    # trace 1 and Hermitian, but the {0, 2} block has eigenvalue -0.15
    negative = good.copy()
    negative[0, 2] = negative[2, 0] = 0.4
    assert np.linalg.eigvalsh(negative[np.ix_([0, 2], [0, 2])])[0] < -1e-8
    with pytest.raises(InvalidStateError, match="negative eigenvalue"):
        DensityMatrix(space, negative, blocks=blocks)
    # a positive state whose coherence joins the two blocks is a leak,
    # however small
    leak = good.copy()
    leak[0, 1] = leak[1, 0] = 1e-300
    assert np.linalg.eigvalsh(leak)[0] > 0
    with pytest.raises(InvalidStateError, match="joins two blocks"):
        DensityMatrix(space, leak, blocks=blocks)
    DensityMatrix(space, leak)  # without blocks only positivity counts
    with pytest.raises(ValueError, match="one label per basis state"):
        DensityMatrix(space, good, blocks=blocks[:3])


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

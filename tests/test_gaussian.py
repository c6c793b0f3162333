import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    compose,
    from_moments,
    squeeze,
    symplectic_change_to_a_basis,
    vacuum,
)

from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    annihilation,
    expectation,
)
from squeezed_lasing.gaussian import (
    GaussianDecomposition,
    GaussianState,
    decompose,
    squeezed_thermal_elements,
    to_fock,
)
from squeezed_lasing.lindblad import fidelity as fock_fidelity


def occupation(gs: GaussianState) -> float:
    """<A^dag A>, including the displacement contribution."""
    return abs(gs.mean_A) ** 2 + (gs.cov[0, 0] + gs.cov[1, 1] - 2) / 4


def moment_A2(gs: GaussianState) -> complex:
    """<A^2>, including the displacement contribution."""
    central = (gs.cov[0, 0] - gs.cov[1, 1] + 2j * gs.cov[0, 1]) / 4
    return gs.mean_A**2 + central


def gaussian_fidelity(gs1: GaussianState, gs2: GaussianState) -> float:
    """Closed-form Uhlmann fidelity (squared convention) of two states.

    With vacuum covariance = identity the single-mode formula reads
    F = 2 exp(-dd^T (V1+V2)^{-1} dd / 2) / (sqrt(D + delta) - sqrt(delta))
    with D = det(V1+V2) and delta = (det V1 - 1)(det V2 - 1); two
    coherent states give exp(-|alpha1 - alpha2|^2).
    """
    vsum = gs1.cov + gs2.cov
    dd = gs2.mean - gs1.mean
    quad = float(dd @ np.linalg.solve(vsum, dd))
    big_d = float(np.linalg.det(vsum))
    delta = max(0.0, (float(np.linalg.det(gs1.cov)) - 1)
                * (float(np.linalg.det(gs2.cov)) - 1))
    fid = 2.0 * math.exp(-0.5 * quad) / (math.sqrt(big_d + delta)
                                         - math.sqrt(delta))
    return min(1.0, fid)


def moments_from_fock(rho: DensityMatrix) -> GaussianState:
    """Gaussian summary of a Fock-basis state's first two moments."""
    a = annihilation(rho.space)
    mean_a = expectation(a, rho)
    n_a = expectation(a.dag() @ a, rho).real
    a2 = expectation(a @ a, rho)
    return from_moments(mean_a, n_a, a2)


def rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def fock_moments(rho):
    a = annihilation(rho.space)
    return (expectation(a, rho),
            expectation(a.dag() @ a, rho).real,
            expectation(a @ a, rho))


def test_from_moments_vacuum():
    gs = from_moments(0, 0, 0)
    np.testing.assert_allclose(gs.mean, 0, atol=1e-15)
    np.testing.assert_allclose(gs.cov, np.eye(2), atol=1e-15)


def test_from_moments_coherent_has_vacuum_cov():
    alpha = 0.7 - 0.4j
    gs = from_moments(alpha, abs(alpha) ** 2, alpha**2)
    np.testing.assert_allclose(gs.mean, [2 * alpha.real, 2 * alpha.imag],
                               atol=1e-15)
    np.testing.assert_allclose(gs.cov, np.eye(2), atol=1e-14)


def test_from_moments_meanfield_squeezed_thermal():
    # steady moments of the engineered-bath model: the covariance must
    # come out diagonal with the two quadratures pulled toward e^{+-2r}
    r, c_prime = 1.15, 10.0
    fbar = 0.6 + 0.45j
    n_a = abs(fbar) ** 2 + math.sinh(r) ** 2 / (1 + c_prime)
    a2 = fbar**2 + math.sinh(2 * r) / (2 * (1 + c_prime))
    gs = from_moments(fbar, n_a, a2)
    expected = np.diag([(c_prime + math.exp(2 * r)) / (1 + c_prime),
                        (c_prime + math.exp(-2 * r)) / (1 + c_prime)])
    np.testing.assert_allclose(gs.cov, expected, atol=1e-12)
    np.testing.assert_allclose(gs.mean, [2 * fbar.real, 2 * fbar.imag],
                               atol=1e-15)

    dec = decompose(gs)
    r_expect = 0.25 * math.log((math.exp(2 * r) + c_prime)
                               / (math.exp(-2 * r) + c_prime))
    n_expect = (math.sqrt((math.exp(2 * r) + c_prime)
                          * (math.exp(-2 * r) + c_prime)) / (1 + c_prime)
                - 1) / 2
    assert dec.phi == 0.0
    assert dec.r_tilde == pytest.approx(r_expect, rel=1e-12)
    assert dec.n_tilde == pytest.approx(n_expect, rel=1e-12)
    assert dec.alpha == pytest.approx(fbar, rel=1e-15)


def test_from_moments_rejects_unphysical():
    with pytest.raises(InvalidStateError):
        from_moments(0, 0.0, 0.9)  # |<A^2>| too large for the occupation
    with pytest.raises(InvalidStateError):
        from_moments(0, -0.4, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["mean", "cov"])
def test_state_refuses_non_finite_entries(name, bad):
    # refused by name before the eigenvalue checks, which would read a NaN
    # covariance as "non-positive eigenvalue 0.000e+00" and let an
    # infinite one through
    values = {"mean": np.zeros(2), "cov": 2.0 * np.eye(2)}
    values[name].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        GaussianState(**values)


def test_state_validation():
    with pytest.raises(InvalidStateError):
        GaussianState(mean=np.zeros(2), cov=0.5 * np.eye(2))
    with pytest.raises(InvalidStateError):
        GaussianState(mean=np.zeros(2), cov=np.array([[2.0, 0.3], [-0.3, 2.0]]))
    with pytest.raises(InvalidStateError):
        GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 3.0], [3.0, 1.0]]))
    gs = vacuum()
    with pytest.raises(ValueError):
        gs.mean[0] = 5.0


def test_moment_helpers_invert_from_moments():
    gs = from_moments(0.3 - 0.2j, 0.9, 0.1 + 0.3j)
    assert gs.mean_A == pytest.approx(0.3 - 0.2j, abs=1e-15)
    assert occupation(gs) == pytest.approx(0.9, abs=1e-13)
    assert moment_A2(gs) == pytest.approx(0.1 + 0.3j, abs=1e-13)


def test_decompose_vacuum_and_thermal():
    dec = decompose(vacuum())
    assert (dec.alpha, dec.phi, dec.r_tilde, dec.n_tilde) == (0, 0, 0, 0)
    n = 0.8
    dec = decompose(GaussianState(mean=np.zeros(2), cov=(2 * n + 1) * np.eye(2)))
    assert dec.n_tilde == pytest.approx(n, rel=1e-12)
    assert dec.r_tilde == 0.0
    assert dec.phi == 0.0


def test_decompose_pure_squeezed():
    # the engineered bath with no auxiliary damping leaves a pure
    # squeezed state: thermal part empty, squeeze equal to the bath's
    r = 1.15
    cov = np.diag([math.exp(2 * r), math.exp(-2 * r)])
    dec = decompose(GaussianState(mean=np.zeros(2), cov=cov))
    assert dec.r_tilde == pytest.approx(r, rel=1e-12)
    assert dec.n_tilde == pytest.approx(0.0, abs=1e-12)
    assert dec.phi == 0.0


def test_decompose_folds_phi_into_quarter_domain():
    phi0, r0, n0 = 0.4 * math.pi, 0.5, 0.2
    m = rotation(phi0)
    cov = (2 * n0 + 1) * m @ np.diag([math.exp(2 * r0),
                                      math.exp(-2 * r0)]) @ m.T
    gs = GaussianState(mean=np.zeros(2), cov=cov)
    dec = decompose(gs)
    assert -math.pi / 4 < dec.phi <= math.pi / 4
    assert dec.phi == pytest.approx(-0.1 * math.pi, rel=1e-12)
    assert dec.r_tilde == pytest.approx(-r0, rel=1e-12)
    assert dec.n_tilde == pytest.approx(n0, rel=1e-12)
    np.testing.assert_allclose(compose(dec).cov, cov, atol=1e-12)


def test_compose_decompose_round_trip():
    dec = GaussianDecomposition(alpha=0.3 - 0.7j, phi=0.2,
                                r_tilde=0.6, n_tilde=0.35)
    back = decompose(compose(dec))
    assert back.alpha == pytest.approx(dec.alpha, abs=1e-14)
    assert back.phi == pytest.approx(dec.phi, rel=1e-12)
    assert back.r_tilde == pytest.approx(dec.r_tilde, rel=1e-12)
    assert back.n_tilde == pytest.approx(dec.n_tilde, rel=1e-12)

    gs = from_moments(0.2 + 0.1j, 1.4, 0.5 - 0.6j)
    again = compose(decompose(gs))
    np.testing.assert_allclose(again.mean, gs.mean, atol=1e-10)
    np.testing.assert_allclose(again.cov, gs.cov, atol=1e-10)


def decompositions(max_alpha, max_r, max_n):
    return st.builds(GaussianDecomposition,
                     alpha=st.complex_numbers(max_magnitude=max_alpha),
                     phi=st.floats(-0.78, 0.78),
                     r_tilde=st.floats(-max_r, max_r),
                     n_tilde=st.floats(0.0, max_n))


@settings(max_examples=50, deadline=None)
@given(dec=decompositions(max_alpha=5.0, max_r=2.0, max_n=5.0))
def test_compose_decompose_round_trip_property(dec):
    gs = compose(dec)
    again = compose(decompose(gs))
    np.testing.assert_allclose(again.mean, gs.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(again.cov, gs.cov, rtol=0,
                               atol=1e-12 * np.max(np.abs(gs.cov)))


@settings(max_examples=25, deadline=None)
@given(dec=decompositions(max_alpha=1.0, max_r=0.5, max_n=0.2))
def test_fock_moment_round_trip_property(dec):
    # field_dim 80 leaves every drawn state a top-decile tail below 1e-14,
    # so the moments see no truncation
    space = HilbertSpace(n_qubits=0, field_dim=80)
    gs = compose(dec)
    rho = to_fock(gs, space)
    assert np.real(np.diag(rho.matrix))[-8:].sum() < 1e-14
    again = moments_from_fock(rho)
    np.testing.assert_allclose(again.mean, gs.mean, rtol=0, atol=1e-9)
    np.testing.assert_allclose(again.cov, gs.cov, rtol=0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(r=st.floats(-1.5, 1.5), n_thermal=st.floats(0.0, 0.7))
@example(r=1.5, n_thermal=0.7)
@example(r=0.0, n_thermal=0.0)
def test_squeezed_thermal_elements_match_the_exponential(r, n_thermal):
    # S rho_th S^dag with S the exponential of the truncated generator on
    # 200 levels, exact on the 50 lowest; the thermal weights that matter
    # sit far below its edge
    fd = 100
    s = squeeze(HilbertSpace(n_qubits=0, field_dim=2 * fd), r).matrix
    q = n_thermal / (1 + n_thermal)
    oracle = (s * ((1 - q) * q ** np.arange(2 * fd))) @ s.conj().T
    elements = squeezed_thermal_elements(r, n_thermal, fd)
    half = fd // 2
    assert np.max(np.abs(elements[:half, :half]
                         - oracle[:half, :half])) <= 1e-13
    n = np.arange(fd)
    assert np.array_equal(elements, elements.T)
    assert not np.any(elements[(n[:, None] + n[None, :]) % 2 == 1])


def test_to_fock_vacuum():
    space = HilbertSpace(n_qubits=0, field_dim=12)
    rho = to_fock(vacuum(), space)
    expected = np.zeros((12, 12))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)


def test_to_fock_thermal_ratio():
    space = HilbertSpace(n_qubits=0, field_dim=30)
    gs = GaussianState(mean=np.zeros(2), cov=2.0 * np.eye(2))  # n~ = 0.5
    rho = to_fock(gs, space)
    diag = np.real(np.diag(rho.matrix))
    ratios = diag[1:20] / diag[:19]
    np.testing.assert_allclose(ratios, 1 / 3, rtol=1e-10)
    np.testing.assert_allclose(np.abs(rho.matrix - np.diag(diag)), 0,
                               atol=1e-15)


def test_to_fock_moment_round_trip():
    space = HilbertSpace(n_qubits=0, field_dim=50)
    dec = GaussianDecomposition(alpha=0.8 + 0.5j, phi=0.3,
                                r_tilde=0.5, n_tilde=0.2)
    gs = compose(dec)
    rho = to_fock(gs, space)
    mean_a, n_a, a2 = fock_moments(rho)
    assert mean_a == pytest.approx(gs.mean_A, abs=1e-6)
    assert n_a == pytest.approx(occupation(gs), abs=1e-6)
    assert a2 == pytest.approx(moment_A2(gs), abs=1e-6)

    again = moments_from_fock(rho)
    np.testing.assert_allclose(again.mean, gs.mean, atol=1e-6)
    np.testing.assert_allclose(again.cov, gs.cov, atol=1e-6)


def test_to_fock_rejects_qubit_spaces():
    with pytest.raises(ValueError):
        to_fock(vacuum(), HilbertSpace(n_qubits=1, field_dim=8))


def test_purity_matches_determinant():
    space = HilbertSpace(n_qubits=0, field_dim=40)
    pure = compose(GaussianDecomposition(alpha=0.5 - 0.2j, phi=0.15,
                                         r_tilde=0.4, n_tilde=0.0))
    assert np.linalg.det(pure.cov) == pytest.approx(1.0, abs=1e-12)
    rho = to_fock(pure, space)
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0,
                                                                   abs=1e-6)
    mixed = compose(GaussianDecomposition(alpha=0.5 - 0.2j, phi=0.15,
                                          r_tilde=0.4, n_tilde=0.3))
    rho = to_fock(mixed, space)
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1 / 1.6,
                                                                   abs=1e-6)


def test_symplectic_change_identity_at_zero():
    gs = from_moments(0.2 + 0.1j, 1.4, 0.5 - 0.6j)
    out = symplectic_change_to_a_basis(gs, 0.0)
    np.testing.assert_allclose(out.mean, gs.mean, atol=1e-15)
    np.testing.assert_allclose(out.cov, gs.cov, atol=1e-15)


def test_symplectic_change_vacuum_of_squeezed_mode():
    r = 0.7
    out = symplectic_change_to_a_basis(vacuum(), r)
    np.testing.assert_allclose(
        out.cov, np.diag([math.exp(-2 * r), math.exp(2 * r)]), atol=1e-12)


def test_symplectic_change_inverse_and_det():
    gs = from_moments(0.3 - 0.5j, 1.1, 0.4 + 0.2j)
    r = 0.9
    out = symplectic_change_to_a_basis(gs, r)
    assert np.linalg.det(out.cov) == pytest.approx(np.linalg.det(gs.cov),
                                                   rel=1e-12)
    back = symplectic_change_to_a_basis(out, -r)
    np.testing.assert_allclose(back.mean, gs.mean, atol=1e-13)
    np.testing.assert_allclose(back.cov, gs.cov, atol=1e-13)


def test_symplectic_change_matches_bogoliubov_mean():
    # <a> = u<A> - v<A*> with u = cosh r, v = sinh r
    r = 0.8
    fbar = 0.6 - 0.3j
    gs = from_moments(fbar, abs(fbar) ** 2, fbar**2)
    out = symplectic_change_to_a_basis(gs, r)
    alpha_a = math.cosh(r) * fbar - math.sinh(r) * fbar.conjugate()
    assert out.mean_A == pytest.approx(alpha_a, abs=1e-13)


def test_fidelity_identical_states():
    gs = from_moments(0.2 + 0.1j, 1.4, 0.5 - 0.6j)
    assert gaussian_fidelity(gs, gs) == pytest.approx(1.0, abs=1e-12)
    th = GaussianState(mean=np.zeros(2), cov=3.0 * np.eye(2))
    assert gaussian_fidelity(th, th) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_coherent_pair():
    a, b = 0.7 - 0.4j, -0.2 + 0.5j
    gs1 = from_moments(a, abs(a) ** 2, a**2)
    gs2 = from_moments(b, abs(b) ** 2, b**2)
    assert gaussian_fidelity(gs1, gs2) == pytest.approx(
        math.exp(-abs(a - b) ** 2), rel=1e-12)


def test_fidelity_thermal_pair():
    n1, n2 = 0.4, 1.3
    gs1 = GaussianState(mean=np.zeros(2), cov=(2 * n1 + 1) * np.eye(2))
    gs2 = GaussianState(mean=np.zeros(2), cov=(2 * n2 + 1) * np.eye(2))
    expected = 1 / (math.sqrt((1 + n1) * (1 + n2))
                    - math.sqrt(n1 * n2)) ** 2
    assert gaussian_fidelity(gs1, gs2) == pytest.approx(expected, rel=1e-12)
    assert gaussian_fidelity(gs2, gs1) == pytest.approx(expected, rel=1e-12)


def test_fidelity_bounds():
    gs1 = compose(GaussianDecomposition(alpha=1.2, phi=0.0,
                                        r_tilde=0.8, n_tilde=0.1))
    gs2 = compose(GaussianDecomposition(alpha=-1.2, phi=0.2,
                                        r_tilde=-0.5, n_tilde=0.6))
    f = gaussian_fidelity(gs1, gs2)
    assert 0.0 <= f <= 1.0


def test_fidelity_matches_fock_uhlmann():
    # closed form against the density-matrix route through to_fock
    space = HilbertSpace(n_qubits=0, field_dim=45)
    pairs = [
        (GaussianDecomposition(alpha=0.4 + 0.2j, phi=0.25,
                               r_tilde=0.45, n_tilde=0.15),
         GaussianDecomposition(alpha=0.1 - 0.3j, phi=-0.1,
                               r_tilde=0.3, n_tilde=0.4)),
        (GaussianDecomposition(alpha=0.0, phi=0.0,
                               r_tilde=0.6, n_tilde=0.0),
         GaussianDecomposition(alpha=0.3, phi=0.1,
                               r_tilde=0.0, n_tilde=0.25)),
        (GaussianDecomposition(alpha=-0.5 + 0.1j, phi=0.0,
                               r_tilde=-0.35, n_tilde=0.05),
         GaussianDecomposition(alpha=-0.4 + 0.3j, phi=0.05,
                               r_tilde=-0.2, n_tilde=0.1)),
    ]
    for dec1, dec2 in pairs:
        gs1, gs2 = compose(dec1), compose(dec2)
        direct = gaussian_fidelity(gs1, gs2)
        via_fock = fock_fidelity(to_fock(gs1, space), to_fock(gs2, space))
        assert direct == pytest.approx(via_fock, abs=1e-4)


def test_decomposition_rejects_negative_thermal():
    with pytest.raises(InvalidStateError):
        GaussianDecomposition(alpha=0, phi=0.0, r_tilde=0.1, n_tilde=-0.01)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import check_bloch_bounds, mf_evolve

from squeezed_lasing import fock, meanfield
from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    annihilation,
    displacement,
    displacement_elements,
    expectation,
    truncation_edge,
)
from squeezed_lasing.gaussian import (
    GaussianState,
    decompose,
    squeezed_thermal_elements,
    to_fock,
)
from squeezed_lasing.lindblad import trace_distance
from squeezed_lasing.meanfield import (
    MeanFieldState,
    MFParams,
    gaussian_mf_solution,
    mf_ansatz,
    mf_residual,
    mf_rhs,
    mf_steady,
)


def operating_params(c_tilde=5.0, c_prime=10.0):
    return MFParams.from_cooperativity(c_tilde, gamma=1.0, kappa=0.02,
                                       c_tilde_prime=c_prime)


def test_params_cooperativity_round_trip():
    p = operating_params()
    assert p.cooperativity == pytest.approx(5.0, rel=1e-12)
    assert p.g_tilde == pytest.approx(math.sqrt(5 * 0.02 * 11), rel=1e-12)
    with pytest.raises(ValueError):
        MFParams(g_tilde=1.0, gamma=0.0, kappa=0.1)


def test_rhs_trivial_fixed_point():
    p = operating_params()
    dot = mf_rhs(MeanFieldState(F=0j, S=0j, D=1.0), p)
    assert dot.F == 0 and dot.S == 0 and dot.D == 0


def test_rhs_vanishes_at_bright_fixed_point():
    p = operating_params()
    st = mf_steady(p, theta=0.7)
    dot = mf_rhs(st, p)
    assert abs(dot.F) < 1e-12
    assert abs(dot.S) < 1e-12
    assert abs(dot.D) < 1e-12


def test_rhs_uncoupled_decay():
    p = MFParams(g_tilde=0.0, gamma=1.3, kappa=0.4, C_tilde_prime=2.0)
    st = MeanFieldState(F=0.3 + 0.1j, S=0.2 - 0.1j, D=0.5)
    dot = mf_rhs(st, p)
    assert dot.F == pytest.approx(-0.4 * 3 * st.F, rel=1e-14)
    assert dot.S == pytest.approx(-1.3 * st.S, rel=1e-14)
    assert dot.D == pytest.approx(-2 * 1.3 * (0.5 - 1), rel=1e-14)


def test_rhs_phase_equivariance():
    p = operating_params()
    st = MeanFieldState(F=0.4 - 0.2j, S=0.1 + 0.05j, D=0.3)
    dot = mf_rhs(st, p)
    phase = complex(math.cos(1.1), math.sin(1.1))
    rotated = MeanFieldState(F=st.F * phase, S=st.S * phase, D=st.D)
    dot_rot = mf_rhs(rotated, p)
    assert dot_rot.F == pytest.approx(dot.F * phase, abs=1e-15)
    assert dot_rot.S == pytest.approx(dot.S * phase, abs=1e-15)
    assert dot_rot.D == pytest.approx(dot.D, abs=1e-15)


def test_steady_below_threshold():
    p = MFParams.from_cooperativity(0.5, gamma=1.0, kappa=0.02,
                                    c_tilde_prime=10.0)
    st = mf_steady(p)
    assert st.F == 0 and st.S == 0 and st.D == 1.0


def test_steady_bright_values_without_engineered_channel():
    # with the engineered channel off, |F|^2 = gamma (C-1) / (2 kappa C)
    p = MFParams.from_cooperativity(5.0, gamma=1.0, kappa=0.02)
    st = mf_steady(p, theta=0.4)
    assert abs(st.F) ** 2 == pytest.approx(20.0, rel=1e-12)
    assert st.D == pytest.approx(0.2, rel=1e-12)
    assert st.theta == pytest.approx(0.4, rel=1e-12)
    assert st.S == pytest.approx(p.g_tilde / (5.0 * 1.0) * st.F, rel=1e-12)
    check_bloch_bounds(st)


def test_steady_deep_lasing_photon_number():
    p = MFParams.from_cooperativity(1e6, gamma=1.0, kappa=1 / 500)
    st = mf_steady(p)
    assert abs(st.F) ** 2 == pytest.approx(250.0, rel=1e-5)


def test_steady_with_engineered_channel():
    # the (1 + C~') damping pulls the ring radius down accordingly
    st = mf_steady(operating_params())
    assert abs(st.F) ** 2 == pytest.approx(20.0 / 11.0, rel=1e-12)
    assert st.D == pytest.approx(0.2, rel=1e-12)


def test_threshold_is_continuous_with_kinked_slope():
    gamma, kappa, c_prime = 1.0, 0.02, 10.0

    def n_of(c):
        p = MFParams.from_cooperativity(c, gamma=gamma, kappa=kappa,
                                        c_tilde_prime=c_prime)
        return abs(mf_steady(p).F) ** 2

    for c in (0.2, 0.7, 0.999):
        assert n_of(c) == 0.0
    # at the knife edge the g~ round-trip may land on either branch,
    # but continuity pins the value to zero either way
    assert n_of(1.0) < 1e-12
    assert n_of(1 + 1e-6) < 1e-5 * gamma / (2 * kappa)
    slope_above = (n_of(1.5 + 1e-6) - n_of(1.5 - 1e-6)) / 2e-6
    analytic = gamma / (2 * kappa * (1 + c_prime) * 1.5**2)
    assert slope_above == pytest.approx(analytic, rel=1e-6)
    # slope jumps from 0 to a finite value across the transition
    slope_at_onset = (n_of(1 + 1e-8) - n_of(1.0)) / 1e-8
    assert slope_at_onset == pytest.approx(gamma / (2 * kappa * (1 + c_prime)),
                                           rel=1e-6)


def test_evolve_holds_fixed_point():
    p = operating_params()
    st = mf_steady(p, theta=1.2)
    traj = mf_evolve(st, p, 50.0)
    for s in traj.states:
        assert abs(s.F - st.F) < 1e-10
        assert abs(s.D - st.D) < 1e-10


def test_evolve_reaches_ring_and_keeps_phase():
    p = operating_params()
    target = abs(mf_steady(p).F)
    for theta0 in (0.3, 2.0, -1.2):
        seed = 0.1 * complex(math.cos(theta0), math.sin(theta0))
        traj = mf_evolve(MeanFieldState(F=seed, S=0j, D=1.0), p, 400.0)
        assert abs(abs(traj.final.F) - target) < 1e-8
        assert traj.final.theta == pytest.approx(theta0, abs=1e-8)


def test_evolve_below_threshold_decays():
    p = MFParams.from_cooperativity(0.5, gamma=1.0, kappa=0.02,
                                    c_tilde_prime=10.0)
    traj = mf_evolve(MeanFieldState(F=0.2 + 0j, S=0j, D=1.0), p, 200.0)
    assert abs(traj.final.F) < 1e-8
    assert traj.final.D == pytest.approx(1.0, abs=1e-8)


def test_evolve_rejects_unphysical_start():
    p = operating_params()
    with pytest.raises(InvalidStateError):
        mf_evolve(MeanFieldState(F=0j, S=0j, D=1.5), p, 1.0)
    with pytest.raises(InvalidStateError):
        check_bloch_bounds(MeanFieldState(F=0j, S=0.6 + 0j, D=0.0))


def test_gaussian_solution_limits():
    flat = gaussian_mf_solution(0.5 + 0.2j, 3.0, 0.0)
    np.testing.assert_allclose(flat.cov, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(flat.mean, [1.0, 0.4], atol=1e-15)

    pure = decompose(gaussian_mf_solution(0j, 0.0, 0.8))
    assert pure.r_tilde == pytest.approx(0.8, rel=1e-12)
    assert pure.n_tilde == pytest.approx(0.0, abs=1e-12)

    washed = decompose(gaussian_mf_solution(0j, 1e6, 1.0))
    assert abs(washed.r_tilde) < 1e-5
    assert washed.n_tilde < 1e-5

    with pytest.raises(ValueError):
        gaussian_mf_solution(0j, -0.1, 0.5)
    with pytest.raises(ValueError):
        gaussian_mf_solution(0j, 1.0, -0.5)


def test_residual_zero_for_dark_vacuum():
    space = HilbertSpace(n_qubits=0, field_dim=20)
    gs = gaussian_mf_solution(0j, 0.0, 0.0)
    assert mf_residual(gs, 0j, 0.0, 0.0, space) < 1e-14


def test_residual_certifies_gaussian_solution():
    # oracle: the Gaussian ansatz must null the traced steady-state
    # equation at the operating point, up to Fock truncation
    space = HilbertSpace(n_qubits=0, field_dim=60)
    c_prime, r = 10.0, 1.15
    st = mf_steady(operating_params(), theta=0.9)
    gs = gaussian_mf_solution(st.F, c_prime, r)
    assert mf_residual(gs, st.F, c_prime, r, space) < 1e-6


def test_residual_detects_perturbed_covariance():
    space = HilbertSpace(n_qubits=0, field_dim=60)
    c_prime, r = 10.0, 1.15
    st = mf_steady(operating_params(), theta=0.9)
    gs = gaussian_mf_solution(st.F, c_prime, r)
    bent = GaussianState(mean=gs.mean, cov=1.1 * gs.cov)
    assert mf_residual(bent, st.F, c_prime, r, space) > 1e-3


def test_ansatz_zero_magnitude_is_single_gaussian():
    space = HilbertSpace(n_qubits=0, field_dim=30)
    rho = mf_ansatz(0.0, 10.0, 1.15, space)
    direct = to_fock(gaussian_mf_solution(0j, 10.0, 1.15), space)
    np.testing.assert_allclose(rho.matrix, direct.matrix, atol=1e-14)


def test_ansatz_moments_and_parity_structure():
    space = HilbertSpace(n_qubits=0, field_dim=40)
    fmag, c_prime, r = 1.2, 10.0, 1.15
    rho = mf_ansatz(fmag, c_prime, r, space)
    a = annihilation(space)
    assert abs(expectation(a, rho)) < 1e-13
    n_expect = fmag**2 + math.sinh(r) ** 2 / (1 + c_prime)
    assert expectation(a.dag() @ a, rho).real == pytest.approx(n_expect,
                                                               abs=1e-8)
    # phase averaging erases everything tied to the ring phase, but the
    # members share one squeeze axis, so even-order coherences survive:
    # the mixture is photon-parity symmetric, not number-diagonal
    n_grid = np.arange(space.field_dim)
    odd = (n_grid[:, None] - n_grid[None, :]) % 2 == 1
    assert np.max(np.abs(rho.matrix[odd])) < 1e-13
    a2_expect = math.sinh(2 * r) / (2 * (1 + c_prime))
    assert expectation(a @ a, rho) == pytest.approx(a2_expect, abs=1e-8)

    # with no squeezing the members are coherent states and the ring
    # mixture is number-diagonal
    flat = mf_ansatz(fmag, c_prime, 0.0, space)
    off = flat.matrix - np.diag(np.diag(flat.matrix))
    assert np.max(np.abs(off)) < 1e-13


def test_ansatz_coherent_ring_limit():
    # ordinary dissipation dominant: the ring members lose their squeeze
    space = HilbertSpace(n_qubits=0, field_dim=30)
    fmag, n_phases = 1.0, 64
    rho = mf_ansatz(fmag, 1e4, 0.5, space)
    ring = np.zeros((space.dim, space.dim), dtype=complex)
    vac = np.zeros(space.dim)
    vac[0] = 1.0
    for k in range(n_phases):
        theta = 2 * math.pi * (k + 0.5) / n_phases
        alpha = fmag * complex(math.cos(theta), math.sin(theta))
        psi = displacement(space, alpha).matrix @ vac
        ring += np.outer(psi, psi.conj())
    ring_rho = type(rho)(space, ring / n_phases)
    assert trace_distance(rho, ring_rho) < 1e-3


def test_ansatz_members_are_coherent_in_bare_basis():
    # with the ordinary channel off, each ring member displaces the
    # bare-mode vacuum: its bare-mode moments are those of a coherent
    # state, and the phase mixture only erases the first moment
    space = HilbertSpace(n_qubits=0, field_dim=50)
    fmag, r = 1.2, 0.5
    u, v = math.cosh(r), math.sinh(r)

    member = to_fock(gaussian_mf_solution(fmag + 0j, 0.0, r), space)
    bare = u * annihilation(space) - v * annihilation(space).dag()
    alpha_a = u * fmag - v * fmag
    assert expectation(bare, member) == pytest.approx(alpha_a, abs=1e-7)
    assert expectation(bare.dag() @ bare, member).real == pytest.approx(
        alpha_a**2, abs=1e-7)
    assert expectation(bare @ bare, member) == pytest.approx(alpha_a**2,
                                                             abs=1e-7)

    rho = mf_ansatz(fmag, 0.0, r, space)
    assert abs(expectation(bare, rho)) < 1e-12
    assert expectation(bare.dag() @ bare, rho).real == pytest.approx(
        math.cosh(2 * r) * fmag**2, abs=1e-7)
    assert expectation(bare @ bare, rho) == pytest.approx(
        -math.sinh(2 * r) * fmag**2, abs=1e-7)


def _ansatz_reference(fbar_mag, c_prime, r, space, n_phases):
    """The ring mixture built member by member: each member is
    D(fbar) C D(fbar)^dag from the exact elements cut off at field_dim, and
    the mixture is normalised once, over the kept levels."""
    d = space.field_dim
    dec = decompose(gaussian_mf_solution(0j, c_prime, r))
    core = squeezed_thermal_elements(dec.r_tilde, dec.n_tilde, d)
    disp = displacement_elements(fbar_mag, d)
    acc = np.zeros((d, d), dtype=complex)
    for k in range(n_phases):
        theta = 2 * math.pi * (k + 0.5) / n_phases
        # D(fbar_mag e^{i theta}) = R D(fbar_mag) R^dag
        rot = np.exp(1j * theta * np.arange(d))
        member = rot[:, None] * disp * rot.conj()
        acc += member @ core @ member.conj().T
    return DensityMatrix(space, acc / np.trace(acc).real)


@settings(max_examples=25, deadline=None)
@given(field_dim=st.integers(8, 32), fbar_mag=st.floats(0.1, 2.0),
       c_prime=st.floats(0.0, 20.0), r=st.floats(0.0, 1.2))
# the paper-2013 C' and r on a wide ring, |F|^2 = 20: a 64-member midpoint
# rule is about 2e-11 off here
@example(field_dim=72, fbar_mag=math.sqrt(20.0), c_prime=8.8082, r=1.0824)
def test_ansatz_matches_member_loop(field_dim, fbar_mag, c_prime, r):
    space = HilbertSpace(n_qubits=0, field_dim=field_dim)
    rho = mf_ansatz(fbar_mag, c_prime, r, space)
    # each member's entries are trigonometric polynomials in the phase of
    # degree at most 2 field_dim - 2, which this rule integrates exactly
    ref = _ansatz_reference(fbar_mag, c_prime, r, space, 2 * field_dim - 1)
    assert np.max(np.abs(rho.matrix - ref.matrix)) <= 1e-13
    # a member's own state is the same member over its kept mass
    member = to_fock(gaussian_mf_solution(fbar_mag + 0j, c_prime, r), space)
    d = field_dim
    dec = decompose(gaussian_mf_solution(0j, c_prime, r))
    disp = displacement_elements(fbar_mag, d)
    kept = disp @ squeezed_thermal_elements(dec.r_tilde, dec.n_tilde, d) \
        @ disp.T
    assert np.max(np.abs(member.matrix - kept / np.trace(kept))) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(field_dim=st.integers(8, 32), fbar_mag=st.floats(0.1, 2.0),
       theta=st.floats(0.0, 2 * math.pi))
def test_displacement_phase_covariance(field_dim, fbar_mag, theta):
    # D(alpha e^{i theta}) = R D(alpha) R^dag with R = diag(e^{i theta n}),
    # exactly on the truncated space, where a is a single off-diagonal
    space = HilbertSpace(n_qubits=0, field_dim=field_dim)
    rot = np.exp(1j * theta * np.arange(field_dim))
    rotated = displacement(space, fbar_mag * complex(math.cos(theta),
                                                     math.sin(theta)))
    conjugated = (rot[:, None] * displacement(space, fbar_mag).matrix
                  * rot.conj()[None, :])
    assert np.max(np.abs(rotated.matrix - conjugated)) <= 1e-13


def test_ansatz_work_is_one_core_and_one_displacement(monkeypatch):
    # the undisplaced core and the displacement from their closed-form
    # elements: no to_fock, no exponential, and only the mixture validated
    # as a state
    counts = {"to_fock": 0, "expm": 0, "state": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(meanfield, "to_fock",
                        counting("to_fock", meanfield.to_fock))
    monkeypatch.setattr(fock, "matrix_exponential",
                        counting("expm", fock.matrix_exponential))
    monkeypatch.setattr(DensityMatrix, "__init__",
                        counting("state", DensityMatrix.__init__))
    mf_ansatz(1.2, 10.0, 1.15, HilbertSpace(n_qubits=0, field_dim=30))
    assert counts == {"to_fock": 0, "expm": 0, "state": 1}


@settings(max_examples=30, deadline=None)
@given(field_dim=st.integers(2, 40), fbar_mag=st.floats(0.0, 6.0),
       c_prime=st.floats(0.0, 20.0), r=st.floats(0.0, 1.5))
@example(field_dim=60, fbar_mag=15.62, c_prime=0.01, r=1.0)
def test_ansatz_is_a_hermitian_unit_trace_parity_state(field_dim, fbar_mag,
                                                        c_prime, r):
    rho = mf_ansatz(fbar_mag, c_prime, r,
                    HilbertSpace(n_qubits=0, field_dim=field_dim)).matrix
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1) <= 1e-14
    n = np.arange(field_dim)
    assert not np.any(rho[(n[:, None] - n[None, :]) % 2 == 1])


@pytest.mark.parametrize("name", ["fbar_mag", "c_prime", "r"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_named(name, value):
    args = {"fbar_mag": 1.0, "c_prime": 1.0, "r": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        mf_ansatz(**args, space=HilbertSpace(n_qubits=0, field_dim=8))
    fbar_name = "fbar" if name == "fbar_mag" else name
    solution_args = {"fbar": args["fbar_mag"], "c_prime": args["c_prime"],
                     "r": args["r"]}
    with pytest.raises(ValueError, match=f"^{fbar_name} must be finite"):
        gaussian_mf_solution(**solution_args)


def test_ansatz_beyond_the_kept_levels_is_refused():
    # |F|^2 = 2,000 at field_dim 40: the kept levels hold e^-1800 of the
    # state, which no double can carry
    with pytest.raises(InvalidStateError, match="kept Fock levels"):
        mf_ansatz(math.sqrt(2000.0), 0.01, 1.0,
                  HilbertSpace(n_qubits=0, field_dim=40))
    # at |F|^2 = 400 they hold 6.6e-74 of it, and it is renormalised
    rho = mf_ansatz(20.0, 0.01, 1.0, HilbertSpace(n_qubits=0, field_dim=40))
    assert truncation_edge(rho) > 0.5

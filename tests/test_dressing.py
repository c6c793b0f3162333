import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import commutator, identity

from squeezed_lasing.dressing import (
    DegenerateDressingError,
    DressedCoupling,
    SystemParams,
    _bessel_j,
    dress,
    effective_H,
    interaction_picture_hamiltonian,
    resonance_audit,
    small_amplitude_estimates,
)
from squeezed_lasing.fock import HilbertSpace, Operator, annihilation, qubit_ops


def lab_frame_H(params: SystemParams, space: HilbertSpace, t: float) -> Operator:
    """Full lab-frame Hamiltonian at time t.

    H(t) = omega a^dag a + [epsilon/2 + sum_j eta_j Omega_j cos(Omega_j t)] sigma_z
           + g sigma_x (a + a^dag)
    """
    if space.n_qubits < 1:
        raise ValueError("lab-frame model needs at least one qubit")
    a = annihilation(space)
    _, sigma_z, sigma_x = qubit_ops(space, 0)
    static = (params.omega * (a.dag() @ a)
              + (params.epsilon / 2) * sigma_z
              + params.g * (sigma_x @ (a + a.dag())))
    drive = (params.eta1 * params.Omega1 * math.cos(params.Omega1 * t)
             + params.eta2 * params.Omega2 * math.cos(params.Omega2 * t))
    return static + drive * sigma_z


def frame_unitary(params: SystemParams, space: HilbertSpace, t: float) -> Operator:
    """The co-moving frame U_c(t) in which the dressing expansion is made.

    U_c = exp[-i omega t a^dag a - i (epsilon t / 2
              + sum_j eta_j sin(Omega_j t)) sigma_z];
    both exponents are diagonal, so the matrix is assembled directly.
    Conjugating the bare coupling, U_c^dag [g sigma_x (a+a^dag)] U_c,
    gives the exact interaction-picture Hamiltonian.
    """
    a = annihilation(space)
    _, sigma_z, _ = qubit_ops(space, 0)
    phase_q = (params.epsilon * t / 2
               + params.eta1 * math.sin(params.Omega1 * t)
               + params.eta2 * math.sin(params.Omega2 * t))
    exponent = params.omega * t * np.diag((a.dag() @ a).matrix).real \
        + phase_q * np.diag(sigma_z.matrix).real
    return Operator(space, np.diag(np.exp(-1j * exponent)))


# scipy's J is a sound reference only over the arguments these tests use:
# scipy 1.17.1's jv(0 | 1, x) is off by up to 1.85 times the amplitude
# from x ~ 1e15 on (see test_bessel_routine_at_huge_arguments)
REFERENCE_JV_MAX_ARG = 60.0


def reference_jv(order, x):
    """scipy's Bessel J_order(x), refused past |x| = REFERENCE_JV_MAX_ARG."""
    assert np.all(np.abs(x) <= REFERENCE_JV_MAX_ARG), x
    return jv(order, x)


def bessel_series_exact(order, x_num, x_den, terms=80):
    """J_order(x) for rational x = x_num/x_den by exact partial summation.

    The alternating series remainder after ``terms`` terms is far below
    double precision for |x| <= 20, so float(result) is a trustworthy oracle.
    """
    assert order >= 0
    half = Fraction(x_num, x_den) / 2
    total = Fraction(0)
    power = half**order
    for k in range(terms):
        total += (-1) ** k * power / (math.factorial(k) * math.factorial(order + k))
        power *= half * half
    return float(total)


def sideband_series_hamiltonian(params, space, cutoff):
    """H_I(t) from the double Bessel sum truncated at |n1|, |n2| <= cutoff.

    alpha = e^{-i (omega - epsilon) t} f and beta = e^{-i (omega + epsilon) t}
    conj(f), with f the sum of J_{n1}(2 eta1) J_{n2}(2 eta2)
    e^{i (n1 Omega1 + n2 Omega2) t}: the sideband expansion that the
    Jacobi-Anger closed form sums to all orders.
    """
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    raising = (a @ sigma.dag()).matrix
    lowering = (a @ sigma).matrix
    orders = np.arange(-cutoff, cutoff + 1)
    j1 = reference_jv(orders, 2 * params.eta1)
    j2 = reference_jv(orders, 2 * params.eta2)

    def hamiltonian(t):
        f = (np.sum(j1 * np.exp(1j * orders * params.Omega1 * t))
             * np.sum(j2 * np.exp(1j * orders * params.Omega2 * t)))
        alpha = np.exp(-1j * (params.omega - params.epsilon) * t) * f
        beta = np.exp(-1j * (params.omega + params.epsilon) * t) * np.conj(f)
        half = params.g * (alpha * raising + beta * lowering)
        return half + half.conj().T

    return hamiltonian


def test_bessel_trivial_values():
    # with the first drive off, J_0(0) = 1 and J_m(0) = 0 make every
    # sideband weight with m1 != 0 vanish exactly
    assert _bessel_j(3, 0.0) == [1.0, 0.0, 0.0, 0.0]
    params = SystemParams.at_sidebands(epsilon=20.0, omega=9.0, g=0.05,
                                       eta1=0.0, eta2=0.2)
    report = resonance_audit(params, max_index=3, g_threshold=math.inf)
    terms = report.kept_terms + report.spurious_terms
    assert len(terms) == 2 * 7 * 7
    second = _bessel_j(3, 0.4)
    for term in terms:
        m1, m2 = term.indices
        if m1 == 0:
            assert term.weight == abs(second[abs(m2)])
        else:
            assert term.weight == 0.0


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-30, 30), x=st.floats(-60.0, 60.0))
def test_bessel_routine_matches_scipy(n, x):
    # the last order of a call for all orders up to |n|; J_-n = (-1)^n J_n
    value = _bessel_j(abs(n), x)[-1]
    if n < 0 and n % 2:
        value = -value
    expected = float(reference_jv(n, x))
    assert abs(value - expected) <= 2e-15
    # past the turning point J_n decays fast, so check it relatively
    if abs(n) > abs(x) + 3 and abs(expected) >= 1e-290:
        assert abs(value - expected) <= 1e-12 * abs(expected)


def test_bessel_routine_returns_every_order_of_one_call():
    for x in (0.0, 1e-9, 0.4, 24.0, 25.5, 31.0):
        whole = _bessel_j(30, x)
        assert len(whole) == 31
        assert [_bessel_j(n, x)[n] for n in (0, 1, 7)] == pytest.approx(
            [whole[0], whole[1], whole[7]], rel=1e-14, abs=1e-300)
    with pytest.raises(ValueError):
        _bessel_j(-1, 0.4)
    with pytest.raises(ValueError):
        _bessel_j(2, math.inf)


@pytest.mark.parametrize("x", [1e3, 4.2e7, 1.2345678901e20, 3.3e54, 1e100,
                               7.77e200, 1e300])
def test_bessel_routine_at_huge_arguments(x):
    # Hankel's expansion with the phase from cos x and sin x; scipy's jv
    # itself is off here (by up to 1.85 times the amplitude from x ~ 1e15
    # on), so the reference is 400-digit mpmath
    mpmath = pytest.importorskip("mpmath")

    def timed():
        start = time.perf_counter()
        return _bessel_j(30, x), time.perf_counter() - start

    runs = [timed() for _ in range(3)]
    assert min(seconds for _, seconds in runs) < 1e-3
    values = runs[0][0]
    assert all(map(math.isfinite, values))
    # J_0^2 + J_1^2 = 2/(pi x) (1 + O(1/x)): the correction is sin(2x)/(2x)
    assert abs((values[0]**2 + values[1]**2) * math.pi * x / 2 - 1) \
        <= max(1e-10, 1 / x)
    amplitude = math.sqrt(2 / (math.pi * x))
    with mpmath.workdps(400):
        for n in (0, 1, 30):
            exact = float(mpmath.besselj(n, mpmath.mpf(x)))
            assert abs(values[n] - exact) <= 1e-15 * amplitude


def test_bessel_against_series_oracle():
    # the first spurious resonance at the hardware point weighs
    # J_28(8/25) J_11(2/5)
    first = resonance_audit(hardware_params(), max_index=30).spurious_terms[0]
    assert first.indices == (28, 11)
    exact = bessel_series_exact(28, 8, 25) * bessel_series_exact(11, 2, 5)
    assert first.weight == pytest.approx(exact, rel=1e-10, abs=1e-300)
    # dress normalizes p_u = J_0(2 eta1) J_1(2 eta2), p_v = J_0(2 eta2) J_1(2 eta1)
    for (n1, d1), (n2, d2) in [((3, 10), (1, 1)), ((5, 2), (3, 10)),
                               ((20, 1), (3, 10)), ((1, 1), (4, 1))]:
        p_u = bessel_series_exact(0, n1, d1) * bessel_series_exact(1, n2, d2)
        p_v = bessel_series_exact(0, n2, d2) * bessel_series_exact(1, n1, d1)
        dc = dress(n1 / d1 / 2, n2 / d2 / 2)
        assert dc.norm_N == pytest.approx(math.sqrt(abs(p_u**2 - p_v**2)),
                                          rel=1e-10)
        assert dc.v / dc.u == pytest.approx(p_v / p_u, rel=1e-10)


def test_bessel_first_zero_of_j0():
    # 2 eta2 on the first zero of J_0 silences p_v: the dressed mode is bare
    dc = dress(0.16, 2.404826 / 2)
    assert abs(dc.v) < 1e-5
    assert abs(dc.r) < 1e-5


def test_bessel_negative_order_parity():
    # J_{-n} = (-1)^n J_n is what makes the truncated sideband sum in the
    # interaction picture reproduce the Jacobi-Anger phase exp(2i eta sin)
    params = integer_params(g=1.0)
    space = HilbertSpace(n_qubits=1, field_dim=3)
    h_factory = interaction_picture_hamiltonian(params, space)
    h_series = sideband_series_hamiltonian(params, space, cutoff=16)
    for t in (0.0, 0.32, 0.4, 3.3):
        np.testing.assert_allclose(h_factory(t), h_series(t), rtol=0, atol=1e-13)


def test_bessel_order_out_of_range():
    with pytest.raises(ValueError):
        resonance_audit(hardware_params(), max_index=0)


def test_dress_bogoliubov_property_grid():
    etas = np.linspace(0.0, 0.5, 20)
    checked = 0
    for e1 in etas:
        for e2 in etas:
            try:
                dc = dress(e1, e2)
            except DegenerateDressingError:
                continue
            dev = abs(abs(dc.u**2 - dc.v**2) - 1.0)
            assert dev <= 1e-12 * max(1.0, dc.u**2 + dc.v**2)
            checked += 1
    assert checked >= 360  # only the degenerate balance points drop out


@settings(max_examples=50, deadline=None)
@given(eta1=st.floats(0.01, 0.9), gap=st.floats(0.01, 0.2))
def test_dress_bogoliubov_signature_property(eta1, gap):
    # below the first zero of J_0(2 eta), J_1/J_0 grows with eta, so
    # eta1 < eta2 puts the dressing on the lasing branch
    eta2 = eta1 + gap
    fwd = dress(eta1, eta2)
    tol = 1e-12 * max(1.0, fwd.u**2 + fwd.v**2)
    assert abs(fwd.u**2 - fwd.v**2 - 1.0) <= tol
    assert fwd.u > 0
    assert fwd.r == pytest.approx(math.atanh(fwd.v / fwd.u), rel=1e-12,
                                  abs=1e-15)
    bwd = dress(eta2, eta1)
    assert abs(bwd.u**2 - bwd.v**2 + 1.0) <= tol
    assert bwd.signature == -1
    assert (bwd.u, bwd.v, bwd.r, bwd.norm_N) == (fwd.v, fwd.u, fwd.r,
                                                 fwd.norm_N)


def test_dress_exact_limit():
    dc = dress(0.0, 0.2)
    assert (dc.u, dc.v) == (1.0, 0.0)
    assert dc.r == 0.0
    assert dc.g_tilde == pytest.approx(reference_jv(1, 0.4), rel=1e-14)


def test_dress_swap_exchanges_u_v():
    for e1, e2 in [(0.1, 0.2), (0.16, 0.2), (0.05, 0.45), (0.3, 0.12)]:
        fwd = dress(e1, e2)
        bwd = dress(e2, e1)
        # bit for bit: the auxiliary coupling is resolved by this swap
        assert (bwd.u, bwd.v) == (fwd.v, fwd.u)
        assert (bwd.r, bwd.g_tilde, bwd.norm_N) == (fwd.r, fwd.g_tilde,
                                                    fwd.norm_N)
        assert bwd.signature == -fwd.signature


def test_dress_from_bessel_weights_directly():
    # u and v are the normalized Bessel weight products
    e1, e2 = 0.16, 0.2
    p_u = reference_jv(0, 2 * e1) * reference_jv(1, 2 * e2)
    p_v = reference_jv(0, 2 * e2) * reference_jv(1, 2 * e1)
    n = math.sqrt(abs(p_u**2 - p_v**2))
    dc = dress(e1, e2, g=2.0)
    assert dc.u == pytest.approx(p_u / n, rel=1e-12)
    assert dc.v == pytest.approx(p_v / n, rel=1e-12)
    assert dc.norm_N == pytest.approx(n, rel=1e-12)
    assert dc.g_tilde == pytest.approx(2.0 * n, rel=1e-12)
    assert dc.r == pytest.approx(math.atanh(p_v / p_u), rel=1e-12)


def test_dress_hardware_point_regression():
    # the hardware drive depths; the small-amplitude tanh r = 0.8 estimate
    # overshoots this exact value by about 1.5%
    dc = dress(0.16, 0.2)
    assert dc.r == pytest.approx(1.0824351347150865, rel=1e-12)
    assert dc.g_tilde == pytest.approx(0.12, rel=0.05)


def test_dress_degenerate_raises():
    with pytest.raises(DegenerateDressingError):
        dress(0.2, 0.2)
    with pytest.raises(DegenerateDressingError):
        dress(0.0, 0.0)


def test_dressed_coupling_invariant_enforced():
    with pytest.raises(ValueError):
        DressedCoupling(u=1.2, v=0.2, r=0.1, g_tilde=1.0, norm_N=1.0)


def test_dressed_coupling_from_r_and_operators():
    space = HilbertSpace(n_qubits=0, field_dim=12)
    dc = DressedCoupling.from_r(0.7)
    a = annihilation(space)
    mode = dc.mode_operator(space)
    np.testing.assert_allclose(
        mode.matrix, math.cosh(0.7) * a.matrix + math.sinh(0.7) * a.dag().matrix,
        atol=1e-14)
    # a = u A - v A^dag reproduces the bare ladder exactly (linear identity,
    # no truncation error involved)
    bare = (dc.u * mode - dc.v * mode.dag()).matrix
    np.testing.assert_allclose(bare, a.matrix, atol=1e-13)
    np.testing.assert_allclose(dc.bare_from_mode(space).matrix,
                               dc.u * a.matrix - dc.v * a.dag().matrix, atol=1e-14)


def test_small_amplitude_estimates():
    r_est, g_est = small_amplitude_estimates(0.16, 0.2)
    assert r_est == pytest.approx(math.atanh(0.8), rel=1e-14)
    assert r_est == pytest.approx(dress(0.16, 0.2).r, rel=0.06)
    assert g_est == pytest.approx(0.12, rel=1e-14)
    assert small_amplitude_estimates(0.0, 0.2) == (0.0, pytest.approx(0.2))
    with pytest.raises(ValueError):
        small_amplitude_estimates(0.2, 0.16)
    with pytest.raises(ValueError):
        small_amplitude_estimates(0.31, 0.4)


def hardware_params(eta1=0.16, eta2=0.2):
    # epsilon/2pi = 10 GHz, omega/2pi = 4.5 GHz, g/2pi = 40 MHz
    two_pi = 2 * math.pi
    return SystemParams.at_sidebands(epsilon=two_pi * 10.0, omega=two_pi * 4.5,
                                     g=two_pi * 0.04, eta1=eta1, eta2=eta2)


def test_audit_kept_terms_exactly_resonant():
    report = resonance_audit(hardware_params(), max_index=5)
    assert len(report.kept_terms) == 2
    by_kind = {t.kind: t for t in report.kept_terms}
    assert by_kind["rotating"].indices == (-1, 0)
    assert by_kind["counter"].indices == (0, -1)
    for term in report.kept_terms:
        assert term.detuning == 0.0


def test_audit_first_spurious_resonance():
    report = resonance_audit(hardware_params(), max_index=30)
    assert report.spurious_terms, "expected exact lattice resonances in range"
    first = report.spurious_terms[0]
    assert first.kind == "rotating"
    assert first.indices == (28, 11)
    # frequency ratio 20:9 makes the resonance exact up to roundoff
    assert abs(first.detuning) < 1e-8
    # every spurious term inside the coupling-sized window is negligible
    for term in report.spurious_terms:
        assert term.weight < 1e-6


def test_audit_spurious_sorted_and_thresholded():
    params = hardware_params()
    wide = resonance_audit(params, max_index=30, g_threshold=2 * math.pi * 0.6)
    dets = [abs(t.detuning) for t in wide.spurious_terms]
    assert dets == sorted(dets)
    assert all(d < 2 * math.pi * 0.6 for d in dets)
    assert wide.threshold == 2 * math.pi * 0.6
    # the 0.5 GHz lattice gap admits terms only beyond the default window
    narrow = resonance_audit(params, max_index=30)
    assert all(abs(t.detuning) < 1e-8 for t in narrow.spurious_terms)


def test_audit_requires_sidebands():
    bad = SystemParams(epsilon=20.0, omega=9.0, g=0.1, eta1=0.1, eta2=0.2,
                       Omega1=11.5, Omega2=29.0)
    with pytest.raises(ValueError):
        resonance_audit(bad)


def test_sideband_past_the_float_range_rejected():
    # both drives are finite, but epsilon + omega overflows to inf
    with pytest.raises(ValueError, match="Omega2 must be non-negative and"):
        SystemParams.at_sidebands(epsilon=1.7e308, omega=1e308, g=1.0,
                                  eta1=0.1, eta2=0.2)


def integer_params(g=0.05, eta1=0.16, eta2=0.2):
    # commensurate integer frequencies make time averages exact over 2*pi
    return SystemParams.at_sidebands(epsilon=20.0, omega=9.0, g=g,
                                     eta1=eta1, eta2=eta2)


def test_lab_frame_hamiltonian_values():
    params = integer_params()
    space = HilbertSpace(n_qubits=1, field_dim=6)
    for t in (0.0, 0.37, 1.9):
        h = lab_frame_H(params, space, t)
        assert h.is_hermitian(tol=1e-12)
        g0 = space.basis_index(1, 0)
        drive = sum(eta * om * math.cos(om * t)
                    for eta, om in ((params.eta1, params.Omega1),
                                    (params.eta2, params.Omega2)))
        assert h.matrix[g0, g0].real == pytest.approx(-params.epsilon / 2 - drive,
                                                      rel=1e-12)


def test_lab_frame_bare_spectrum():
    params = SystemParams.at_sidebands(epsilon=20.0, omega=9.0, g=0.0,
                                       eta1=0.0, eta2=0.0)
    space = HilbertSpace(n_qubits=1, field_dim=4)
    h = lab_frame_H(params, space, 0.0)
    expected = sorted(n * 9.0 + s * 10.0 for n in range(4) for s in (1, -1))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h.matrix)), expected,
                               atol=1e-12)


def test_interaction_picture_matches_frame_conjugation():
    """Strong oracle: H_I(t) must equal U_c(t)^dag H_int U_c(t).

    The right-hand side uses only the frame unitary and the bare coupling,
    so it is independent of the Bessel-expansion bookkeeping.
    """
    params = integer_params()
    space = HilbertSpace(n_qubits=1, field_dim=6)
    a = annihilation(space)
    _, _, sigma_x = qubit_ops(space, 0)
    h_int = params.g * (sigma_x @ (a + a.dag()))
    h_factory = interaction_picture_hamiltonian(params, space)
    for t in (0.0, 0.123, 0.77, 2.5):
        u = frame_unitary(params, space, t)
        exact = u.dag() @ h_int @ u
        np.testing.assert_allclose(h_factory(t), exact.matrix, atol=1e-12)


def test_interaction_picture_batch_stacks_the_single_time_matrices():
    # the integrator asks for all stage times of a step in one call
    params = integer_params()
    space = HilbertSpace(n_qubits=1, field_dim=6)
    h_factory = interaction_picture_hamiltonian(params, space)
    times = np.array([0.0, 0.123, 0.77, 2.5, 11.0])
    stack = h_factory(times)
    assert stack.shape == (5, space.dim, space.dim)
    assert h_factory(0.77).shape == (space.dim, space.dim)
    for t, matrix in zip(times, stack):
        assert np.array_equal(matrix, h_factory(t))


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, 20.0), eta1=st.floats(0.0, 0.6),
       eta2=st.floats(0.0, 0.6), omega=st.floats(0.1, 10.0),
       gap=st.floats(0.01, 10.0), g=st.floats(0.01, 1.0),
       field_dim=st.integers(2, 8))
def test_interaction_picture_closed_form_property(t, eta1, eta2, omega, gap,
                                                  g, field_dim):
    # the closed form against U_c(t)^dag g sigma_x (a + a^dag) U_c(t); both
    # sides carry the roundoff of phases as large as (epsilon + omega) t
    params = SystemParams.at_sidebands(epsilon=omega + gap, omega=omega, g=g,
                                       eta1=eta1, eta2=eta2)
    space = HilbertSpace(n_qubits=1, field_dim=field_dim)
    a = annihilation(space)
    _, _, sigma_x = qubit_ops(space, 0)
    u = frame_unitary(params, space, t)
    exact = u.dag() @ (g * (sigma_x @ (a + a.dag()))) @ u
    h = interaction_picture_hamiltonian(params, space)(t)
    tol = 1e-14 * (1 + (params.epsilon + params.omega) * t)
    np.testing.assert_allclose(h, exact.matrix, rtol=0, atol=tol)
    assert np.array_equal(h, h.conj().T)


def cmath_phase_hamiltonian(params, space, times):
    """The batched H_I(t) with each time's phases from cmath.exp(+-1j x),
    as the closed form was first written: the bit-for-bit reference of
    the cos/sin phase table."""
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    up = params.g * (a @ sigma.dag()).matrix
    down = params.g * (a @ sigma).matrix
    stack = np.stack([up, down, up.conj().T, down.conj().T]).reshape(4, -1)
    rows = []
    for t in times:
        theta = 2 * (params.eta1 * math.sin(params.Omega1 * t)
                     + params.eta2 * math.sin(params.Omega2 * t))
        alpha = cmath.exp(1j * ((params.epsilon - params.omega) * t + theta))
        beta = cmath.exp(-1j * ((params.epsilon + params.omega) * t + theta))
        rows.append((alpha, beta, alpha.conjugate(), beta.conjugate()))
    return (np.array(rows) @ stack).reshape(len(times), space.dim, space.dim)


@settings(max_examples=100, deadline=None)
@given(omega=st.floats(0.0, 500.0), gap=st.floats(1e-3, 500.0),
       g=st.floats(0.01, 5.0), eta1=st.floats(0.0, 2.0),
       eta2=st.floats(0.0, 2.0), detunings=st.tuples(st.floats(-50.0, 50.0),
                                                      st.floats(-50.0, 50.0)),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       field_dim=st.integers(2, 5))
def test_interaction_picture_phase_table_matches_cmath_bit_for_bit(
        omega, gap, g, eta1, eta2, detunings, fractions, field_dim):
    # drives anywhere near the sidebands, at times up to (epsilon + omega) t
    # = 1e5, where the phase arguments are large
    epsilon = omega + gap
    params = SystemParams(epsilon=epsilon, omega=omega, g=g, eta1=eta1,
                          eta2=eta2, Omega1=max(0.0, gap + detunings[0]),
                          Omega2=max(0.0, epsilon + omega + detunings[1]))
    space = HilbertSpace(n_qubits=1, field_dim=field_dim)
    times = [1e5 / (epsilon + omega) * f for f in fractions]
    h = interaction_picture_hamiltonian(params, space)
    expected = cmath_phase_hamiltonian(params, space, times)
    assert h(np.array(times)).tobytes() == expected.tobytes()
    assert h(times[0]).tobytes() == expected[0].tobytes()


def test_interaction_picture_no_drive_limit():
    params = SystemParams.at_sidebands(epsilon=20.0, omega=9.0, g=0.3,
                                       eta1=0.0, eta2=0.0)
    space = HilbertSpace(n_qubits=1, field_dim=5)
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    h_factory = interaction_picture_hamiltonian(params, space)
    for t in (0.0, 0.41):
        h = h_factory(t)
        alpha = np.exp(-1j * (params.omega - params.epsilon) * t)
        beta = np.exp(-1j * (params.omega + params.epsilon) * t)
        half = params.g * (alpha * (a @ sigma.dag()).matrix
                           + beta * (a @ sigma).matrix)
        np.testing.assert_allclose(h, half + half.conj().T, atol=1e-12)


def test_interaction_picture_time_average_extracts_kept_term():
    # the uniform average over one common period leaves only the static
    # sideband, whose coefficient is J_{-1}(2 eta1) J_0(2 eta2)
    params = integer_params(g=1.0)
    space = HilbertSpace(n_qubits=1, field_dim=3)
    h_factory = interaction_picture_hamiltonian(params, space)
    e0 = space.basis_index(0, 0)
    g1 = space.basis_index(1, 1)
    n_samples = 1024
    samples = [
        h_factory((k + 0.5) * 2 * math.pi / n_samples)[e0, g1]
        for k in range(n_samples)
    ]
    avg = sum(samples) / n_samples
    expected = (-reference_jv(1, 2 * params.eta1)
                * reference_jv(0, 2 * params.eta2))
    assert avg == pytest.approx(expected, abs=1e-12)


def test_interaction_picture_cutoff_convergence():
    params = integer_params(eta1=0.25, eta2=0.25 - 1e-3)
    space = HilbertSpace(n_qubits=1, field_dim=5)
    # the closed form is the cutoff -> infinity limit of the sideband series
    h_factory = interaction_picture_hamiltonian(params, space)
    h8 = sideband_series_hamiltonian(params, space, cutoff=8)
    for t in (0.1, 1.3):
        assert np.max(np.abs(h8(t) - h_factory(t))) < 1e-10


def test_frame_unitary_properties():
    params = integer_params()
    space = HilbertSpace(n_qubits=1, field_dim=5)
    u0 = frame_unitary(params, space, 0.0)
    np.testing.assert_allclose(u0.matrix, np.eye(space.dim), atol=1e-15)
    u = frame_unitary(params, space, 0.83)
    np.testing.assert_allclose((u.dag() @ u).matrix, np.eye(space.dim), atol=1e-13)


def test_effective_hamiltonian_matrix_elements():
    space = HilbertSpace(n_qubits=1, field_dim=8)
    dc = dress(0.16, 0.2, g=0.7)
    h = effective_H(dc, space)
    assert h.is_hermitian(tol=1e-12)
    for n in range(5):
        en = space.basis_index(0, n)
        gn1 = space.basis_index(1, n + 1)
        assert h.matrix[en, gn1] == pytest.approx(-dc.g_tilde * dc.v
                                                  * math.sqrt(n + 1), rel=1e-12)
        # counter-rotating element: <e, n+1|H|g, n> = -g_tilde u sqrt(n+1)
        en1 = space.basis_index(0, n + 1)
        gn = space.basis_index(1, n)
        assert h.matrix[en1, gn] == pytest.approx(-dc.g_tilde * dc.u
                                                  * math.sqrt(n + 1), rel=1e-12)


def test_effective_hamiltonian_u1_charge():
    # G = A^dag A - |e><e| generates the U(1) symmetry; the commutator
    # vanishes away from the truncation edge (A^dag A smears two levels)
    space = HilbertSpace(n_qubits=1, field_dim=24)
    dc = dress(0.16, 0.2)
    h = effective_H(dc, space)
    mode = dc.mode_operator(space)
    _, sigma_z, _ = qubit_ops(space, 0)
    proj_e = 0.5 * (sigma_z + identity(space))
    charge = mode.dag() @ mode - proj_e
    comm = commutator(h, charge).matrix
    low = [space.basis_index(q, n) for q in (0, 1) for n in range(18)]
    np.testing.assert_allclose(comm[np.ix_(low, low)], 0, atol=1e-10)


def test_effective_hamiltonian_unit_branch():
    space = HilbertSpace(n_qubits=1, field_dim=6)
    dc = dress(0.0, 0.2, g=1.0)
    h = effective_H(dc, space)
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    expected = -dc.g_tilde * (a.dag() @ sigma.dag() + a @ sigma).matrix
    np.testing.assert_allclose(h.matrix, expected, atol=1e-14)

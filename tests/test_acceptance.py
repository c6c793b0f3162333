"""End-to-end acceptance gate.

Each numbered criterion prints exactly one terminal line,
``ACCEPTANCE <id> <name>: PASS|FAIL (measured values)``, and then
asserts the criterion at its stated tolerance.  Every criterion asserts
what the documented model promises: an anchor is checked against an
independent evaluation of the same formula, a negative control acts on
a live drive, a truncated residual is evaluated in a space the state
fits in, and a symmetry is the one the model has.  The adjacent tests at
the bottom record where each of those boundaries lies.  Criteria with
runtime budgets include their elapsed time in the check.
"""

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest
from oracles import mf_evolve, steady_evolve

from squeezed_lasing.cli import main as cli_main
from squeezed_lasing.dressing import (
    DressedCoupling,
    SystemParams,
    dress,
    effective_H,
    interaction_picture_hamiltonian,
    resonance_audit,
    small_amplitude_estimates,
)
from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    annihilation,
    expectation,
    truncation_edge,
)
from squeezed_lasing.gaussian import (
    GaussianDecomposition,
    compose,
    decompose,
    to_fock,
)
from squeezed_lasing.lindblad import (
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
from squeezed_lasing.meanfield import (
    MeanFieldState,
    MFParams,
    gaussian_mf_solution,
    mf_ansatz,
    mf_residual,
    mf_rhs,
    mf_steady,
)
from squeezed_lasing.scenarios import ring_cut_anisotropy
from squeezed_lasing.wigner import (
    grid_for_density,
    grid_for_gaussian,
    gaussian_wigner,
    wigner_change_basis,
    wigner_from_density,
)

@pytest.fixture()
def report(capsys):
    def _line(label: str, ok: bool, detail: str = "") -> bool:
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{suffix}",
                  flush=True)
        return ok
    return _line


# ---------------------------------------------------------------------------
# 1. Bogoliubov property suite

def test_criterion_01_bogoliubov_identity(report):
    t0 = time.perf_counter()
    etas = np.linspace(0.0, 0.5, 20)
    worst, checked = 0.0, 0
    for e1 in etas:
        for e2 in etas:
            try:
                d = dress(float(e1), float(e2))
            except ValueError:
                continue  # degenerate normalization, excluded by the clause
            worst = max(worst, abs(abs(d.u ** 2 - d.v ** 2) - 1.0))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and checked >= 350 and elapsed < 1.0
    assert report("01 bogoliubov-identity", ok,
                  f"max |u^2-v^2| deviation {worst:.2e} over {checked}/400 "
                  f"points, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Parameter anchors

def _frame_fourier(order: int, x: float, n_points: int = 256) -> float:
    """J_order(x) as the Fourier coefficient of the frame phase e^{i x sin t}.

    The integrand is periodic and entire, so the uniform-grid mean
    converges spectrally; no Bessel routine is involved.
    """
    theta = 2 * np.pi * np.arange(n_points) / n_points
    return float(np.mean(np.exp(1j * (x * np.sin(theta) - order * theta))).real)


def test_criterion_02a_squeezing_anchor(report):
    # The anchor is tanh r = p_v / p_u with p_u = J_0(2 eta_1) J_1(2 eta_2)
    # and p_v = J_0(2 eta_2) J_1(2 eta_1), each weight evaluated here from
    # the frame phase e^{2i eta sin theta} that the drives imprint.
    eta1, eta2 = 0.16, 0.2
    p_u = _frame_fourier(0, 2 * eta1) * _frame_fourier(1, 2 * eta2)
    p_v = _frame_fourier(0, 2 * eta2) * _frame_fourier(1, 2 * eta1)
    expected = math.atanh(p_v / p_u)
    r = dress(eta1, eta2).r
    rel = abs(r - expected) / expected
    # the Bessel ratio stays below its small-argument limit eta1 / eta2
    ceiling = math.atanh(eta1 / eta2)
    ok = rel <= 1e-12 and r < ceiling
    assert report("02a squeeze-parameter-anchor", ok,
                  f"r(0.16, 0.2) = {r:.16f} vs frame quadrature "
                  f"{expected:.16f}, relative gap {rel:.1e}; below "
                  f"atanh(eta1/eta2) = {ceiling:.6f}")


def test_criterion_02b_single_drive_anchor(report):
    d = dress(0.0, 0.2)
    ok = d.u == 1.0 and d.v == 0.0
    assert report("02b single-drive-anchor", ok,
                  f"(u, v) = ({d.u}, {d.v})")


def test_criterion_02c_first_spurious_resonance(report):
    t0 = time.perf_counter()
    scale = 2.0 * math.pi
    params = SystemParams.at_sidebands(epsilon=scale * 10.0,
                                       omega=scale * 4.5,
                                       g=scale * 0.04, eta1=0.16, eta2=0.2)
    audit = resonance_audit(params)
    rotating = [t for t in audit.spurious_terms if t.kind == "rotating"]
    first = rotating[0].indices if rotating else None
    elapsed = time.perf_counter() - t0
    ok = first == (28, 11) and elapsed < 10.0
    assert report("02c first-spurious-resonance", ok,
                  f"first spurious rotating term {first}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. RWA validation

@pytest.fixture(scope="module")
def rwa_fidelities():
    g = 1.0
    system = SystemParams.at_sidebands(epsilon=250.0 * g, omega=112.5 * g,
                                       g=g, eta1=0.0, eta2=0.2)
    dressed = dress(0.0, 0.2, g=g)
    space = HilbertSpace(n_qubits=1, field_dim=8)
    t_final = 3.0 / dressed.g_tilde
    psi0 = np.zeros(space.dim, dtype=complex)
    # |g, 0>: the effective coupling annihilates |e, 0>, so only a start in
    # the resonant pair |g,0> <-> |e,1> gives dynamics a control can spoil
    psi0[space.field_dim] = 1.0
    h_eff = effective_H(dressed, space)
    _, psi_eff = schrodinger_evolve(h_eff.matrix, psi0, t_final,
                                    n_store=61)
    _, psi_full = schrodinger_evolve(
        interaction_picture_hamiltonian(system, space), psi0, t_final,
        n_store=61)
    # with eta1 = 0 the first drive's comb is identically one, so the
    # control detunes the second drive, the only live one
    detuned = dataclasses.replace(system, Omega2=system.Omega2 + 20.0 * g)
    _, psi_ctrl = schrodinger_evolve(
        interaction_picture_hamiltonian(detuned, space), psi0, t_final,
        n_store=61)

    def overlap(a, b):
        return np.abs(np.sum(a.conj() * b, axis=1)) ** 2

    return overlap(psi_full, psi_eff), overlap(psi_ctrl, psi_eff)


def test_criterion_03a_rwa_fidelity_window(report, rwa_fidelities):
    worst = float(rwa_fidelities[0].min())
    assert report("03a rwa-fidelity-window", worst >= 0.99,
                  f"min fidelity {worst:.6f} over g~t <= 3")


def test_criterion_03b_rwa_detuned_control(report, rwa_fidelities):
    worst = float(rwa_fidelities[1].min())
    assert report("03b rwa-detuned-control", worst < 0.9,
                  f"min fidelity {worst:.2e} from |g, 0> with Omega2 "
                  "shifted by 20g")


# ---------------------------------------------------------------------------
# 4. Mean-field exactness

def test_criterion_04_meanfield_exactness(report):
    t0 = time.perf_counter()
    worst_rhs = 0.0
    for c_tilde in (1.5, 5.0, 50.0):
        p = MFParams(g_tilde=math.sqrt(c_tilde * 0.02), gamma=1.0,
                     kappa=0.02)
        d = mf_rhs(mf_steady(p), p)
        worst_rhs = max(worst_rhs, abs(d.F), abs(d.S), abs(d.D))
    p5 = MFParams(g_tilde=math.sqrt(5.0 * 0.02), gamma=1.0, kappa=0.02)
    fixed = mf_steady(p5)
    traj = mf_evolve(MeanFieldState(F=0.1 + 0.0j, S=0.0j, D=1.0), p5,
                     t_final=4000.0)
    drift = abs(abs(traj.final.F) - abs(fixed.F))
    f2_5 = abs(fixed.F) ** 2
    p_inf = MFParams(g_tilde=math.sqrt(1e6 * 0.002), gamma=1.0, kappa=0.002)
    f2_inf = abs(mf_steady(p_inf).F) ** 2
    elapsed = time.perf_counter() - t0
    ok = (worst_rhs < 1e-12 and drift < 1e-8
          and f2_5 == pytest.approx(20.0, abs=1e-9)
          and f2_inf == pytest.approx(250.0, abs=0.01)
          and elapsed < 10.0)
    assert report("04 meanfield-exactness", ok,
                  f"max rhs residual {worst_rhs:.1e}, evolve drift "
                  f"{drift:.1e}, |F|^2 = {f2_5:.6f} and -> {f2_inf:.4f}, "
                  f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Gaussian steady-state oracle

def test_criterion_05a_gaussian_solution_limits(report):
    dec0 = decompose(gaussian_mf_solution(2.0 + 1.0j, 0.0, 1.2))
    dec_inf = decompose(gaussian_mf_solution(2.0 + 1.0j, 1e12, 1.2))
    ok = (dec0.r_tilde == pytest.approx(1.2, abs=1e-12)
          and dec0.n_tilde == pytest.approx(0.0, abs=1e-12)
          and abs(dec_inf.r_tilde) < 1e-9 and abs(dec_inf.n_tilde) < 1e-9)
    assert report("05a gaussian-solution-limits", ok,
                  f"damping-free (r~, n~) = ({dec0.r_tilde:.2e} vs 1.2, "
                  f"{dec0.n_tilde:.2e}); overdamped ({dec_inf.r_tilde:.2e}, "
                  f"{dec_inf.n_tilde:.2e})")


def test_criterion_05b_gaussian_residual_at_field_dim_60(report):
    # A corner is evaluated at field_dim 60 when the state fits there: its
    # population beyond level 60, read from the same state at field_dim
    # 360, is below 1e-12, so the cut edge amplitudes (order sqrt of that)
    # stay below the bound.  The others are evaluated at field_dim 360.
    # Every evaluated state must also hold less than 1e-6 in its top Fock
    # levels, the runner's truncation tolerance.
    t0 = time.perf_counter()
    small = HilbertSpace(n_qubits=0, field_dim=60)
    large = HilbertSpace(n_qubits=0, field_dim=360)
    worst, worst_case, at_small, worst_edge = 0.0, None, 0, 0.0
    for f2, r in ((1.0, 0.3), (5.0, 0.6), (20.0, 1.2)):
        for c_prime in (0.0, 1.0, 10.0):
            fbar = complex(math.sqrt(f2))
            gs = gaussian_mf_solution(fbar, c_prime, r)
            beyond = float(np.real(np.diag(
                to_fock(gs, large).matrix))[small.field_dim:].sum())
            space = small if beyond < 1e-12 else large
            at_small += space is small
            worst_edge = max(worst_edge, truncation_edge(to_fock(gs, space)))
            res = mf_residual(gs, fbar, c_prime, r, space)
            if res > worst:
                worst = res
                worst_case = (f2, r, c_prime, space.field_dim)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and worst_edge < 1e-6 and elapsed < 120.0
    assert report("05b gaussian-residual-fd60", ok,
                  f"max residual {worst:.3e} at (|F|^2, r, C', field_dim) = "
                  f"{worst_case}; {at_small}/9 corners fit in field_dim 60, "
                  f"the rest run at 360; max truncation edge "
                  f"{worst_edge:.1e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Solver cross-validation

def test_criterion_06_solver_cross_validation(report):
    t0 = time.perf_counter()
    space = HilbertSpace(n_qubits=1, field_dim=30)
    laser = model_single_qubit_laser(math.sqrt(5.0 * 0.1), 1.0, 0.1, space)
    td_laser = trace_distance(steady_state(laser), steady_evolve(laser))
    g_tilde = math.sqrt(5.0 * 0.1 * 11.0)
    base = dress(0.1, 0.2)
    dressed = dress(0.1, 0.2, g=g_tilde / base.norm_N)
    squeezed = model_squeezed_laser_effective(dressed, 1.0, 0.1, 10.0, space)
    td_squeezed = trace_distance(steady_state(squeezed),
                                 steady_evolve(squeezed))
    rng = np.random.default_rng(11)
    m = rng.normal(size=(space.dim, space.dim)) \
        + 1j * rng.normal(size=(space.dim, space.dim))
    mat = m @ m.conj().T
    probe = DensityMatrix(space, mat / np.trace(mat))
    lmat = liouvillian_matrix(squeezed).matrix
    via_matrix = (lmat @ probe.matrix.reshape(-1, order="F")).reshape(
        (space.dim, space.dim), order="F")
    rhs_gap = float(np.max(np.abs(rhs(squeezed, probe) - via_matrix)))
    elapsed = time.perf_counter() - t0
    ok = (td_laser <= 1e-6 and td_squeezed <= 1e-6 and rhs_gap <= 1e-12
          and elapsed < 300.0)
    assert report("06 solver-cross-validation", ok,
                  f"trace distances {td_laser:.2e} (laser), "
                  f"{td_squeezed:.2e} (squeezed); rhs vs matrix "
                  f"{rhs_gap:.2e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Symmetry suite

@pytest.fixture(scope="module")
def desk_squeezed_steady():
    g_tilde = math.sqrt(5.0 * 0.1 * 11.0)
    dressed = dress(0.1, 0.2, g=g_tilde / dress(0.1, 0.2).norm_N)
    space = HilbertSpace(n_qubits=1, field_dim=40)
    rho = steady_state(model_squeezed_laser_effective(
        dressed, 1.0, 0.1, 10.0, space))
    return rho, dressed


@pytest.fixture(scope="module")
def desk_squeezed_field(desk_squeezed_steady):
    rho, dressed = desk_squeezed_steady
    return partial_trace(rho, keep=[1]), dressed


def _max_offdiagonal(rho) -> float:
    off = np.array(rho.matrix, copy=True)
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def test_criterion_07a_mode_amplitude_vanishes(report, desk_squeezed_field):
    rho_f, _ = desk_squeezed_field
    amp = abs(expectation(annihilation(rho_f.space), rho_f))
    assert report("07a mode-amplitude-vanishes", amp < 1e-8,
                  f"|<A>| = {amp:.2e}")


def test_criterion_07b_number_diagonal_unsqueezed(report):
    space = HilbertSpace(n_qubits=1, field_dim=30)
    g_tilde = math.sqrt(5.0 * 0.1 * 11.0)
    plain = DressedCoupling.from_r(0.0, g_tilde=g_tilde)
    rho_f = partial_trace(steady_state(model_squeezed_laser_effective(
        plain, 1.0, 0.1, 10.0, space)), keep=[1])
    off = _max_offdiagonal(rho_f)
    assert report("07b number-diagonal-unsqueezed", off < 1e-8,
                  f"max off-diagonal {off:.2e} at r = 0")


def _max_commutator(charge: np.ndarray, rho) -> float:
    """Max-norm of [Q, rho] for a charge Q diagonal in the product basis."""
    m = rho.matrix
    return float(np.max(np.abs(charge[:, None] * m - m * charge[None, :])))


def test_criterion_07c_number_diagonal_squeezed(report, desk_squeezed_steady,
                                                desk_squeezed_field):
    # The bare decay a = A cosh r - A^dag sinh r breaks the U(1) charge
    # N_A - n_e down to the parity (-1)^(N_A + n_e), so the steady state is
    # parity-diagonal: odd photon-number coherences vanish, even ones may not.
    rho, dressed = desk_squeezed_steady
    rho_f, _ = desk_squeezed_field
    fd = rho.space.field_dim
    n_photon = np.tile(np.arange(fd), 2)
    n_excited = np.repeat([1, 0], fd)  # qubit index 0 is |e>
    parity_gap = _max_commutator((-1.0) ** (n_photon + n_excited), rho)
    charge_gap = _max_commutator(n_photon - n_excited, rho)
    m, n = np.indices(rho_f.matrix.shape)
    coh = np.abs(rho_f.matrix)
    odd = float(coh[(m - n) % 2 == 1].max())
    even = float(coh[((m - n) % 2 == 0) & (m != n)].max())
    a_op = annihilation(rho_f.space)
    pair = expectation(a_op @ a_op, rho_f)
    ok = parity_gap < 1e-8 and odd < 1e-8
    assert report("07c number-diagonal-squeezed", ok,
                  f"|[parity, rho]| = {parity_gap:.2e}, max odd coherence "
                  f"{odd:.2e} at r = {dressed.r:.3f}; U(1) broken: "
                  f"|[N_A - n_e, rho]| = {charge_gap:.2e}, max even "
                  f"coherence {even:.2e}, <A^2> = {pair.real:.4f}")


# ---------------------------------------------------------------------------
# 8. Lasing crossover at the desk working point

def test_criterion_08_ansatz_fidelity_crossover(report):
    t0 = time.perf_counter()
    space = HilbertSpace(n_qubits=1, field_dim=40)
    base = dress(0.1, 0.2)
    fids = []
    for c_tilde in np.linspace(1.5, 6.0, 10):
        g_tilde = math.sqrt(float(c_tilde) * 0.1 * 11.0)
        dressed = dress(0.1, 0.2, g=g_tilde / base.norm_N)
        rho_f = partial_trace(steady_state(model_squeezed_laser_effective(
            dressed, 1.0, 0.1, 10.0, space)), keep=[1])
        mf = mf_steady(MFParams(g_tilde=g_tilde, gamma=1.0, kappa=0.1,
                                C_tilde_prime=10.0))
        fids.append(fidelity(rho_f, mf_ansatz(abs(mf.F), 10.0, dressed.r,
                                              rho_f.space)))
    monotone = all(b > a for a, b in zip(fids, fids[1:]))
    at_c5 = fids[7]  # grid point C~ = 5.0

    gaps = {}
    for ratio in (0.02, 0.07):
        g_tilde = math.sqrt(5.0 * 0.1 * 11.0)
        dressed = dress(0.1, 0.2, g=g_tilde / base.norm_N)
        g_tilde_prime = 10.0 * 0.1 / ratio
        aux = dress(0.2, 0.1, g=g_tilde_prime / base.norm_N)
        full_space = HilbertSpace(n_qubits=2, field_dim=40)
        rho_full = partial_trace(steady_state(model_two_qubit_full(
            dressed, aux, 1.0, g_tilde_prime / ratio, 0.1, full_space)),
            keep=[2])
        rho_eff = partial_trace(steady_state(model_squeezed_laser_effective(
            dressed, 1.0, 0.1, 10.0, space)), keep=[1])
        gaps[ratio] = 1.0 - fidelity(rho_full, rho_eff)
    elapsed = time.perf_counter() - t0
    ok = (monotone and at_c5 > 0.9 and gaps[0.02] <= 0.05
          and gaps[0.07] > gaps[0.02] and elapsed < 1800.0)
    assert report("08 ansatz-fidelity-crossover", ok,
                  f"fidelity {fids[0]:.4f} -> {fids[-1]:.4f} "
                  f"({'monotone' if monotone else 'non-monotone'}), "
                  f"{at_c5:.4f} at C~=5; full-vs-effective gap "
                  f"{gaps[0.02]:.1e} at ratio 0.02, {gaps[0.07]:.1e} at "
                  f"0.07; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Wigner suite

@pytest.fixture(scope="module")
def strong_squeeze_panels():
    """Both engineered-damping regimes at r = 1.15, kappa/gamma = 0.02."""
    panels = {}
    for c_prime, fd in ((10.0, 60), (0.01, 140)):
        g_tilde = math.sqrt(5.0 * 0.02 * (1.0 + c_prime))
        dressed = DressedCoupling.from_r(1.15, g_tilde=g_tilde)
        space = HilbertSpace(n_qubits=1, field_dim=fd)
        rho_f = partial_trace(steady_state(model_squeezed_laser_effective(
            dressed, 1.0, 0.02, c_prime, space)), keep=[1])
        w_mode = wigner_from_density(rho_f, grid_for_density(rho_f))
        panels[c_prime] = (w_mode, wigner_change_basis(w_mode, 1.15))
    return panels


def test_criterion_09a_wigner_mass(report, strong_squeeze_panels):
    worst = max(abs(w.mass - 1.0)
                for pair in strong_squeeze_panels.values() for w in pair)
    assert report("09a wigner-mass", worst <= 1e-3,
                  f"max |mass - 1| = {worst:.2e} over 4 panels")


def test_criterion_09b_gaussian_vs_fock_path(report):
    space = HilbertSpace(n_qubits=0, field_dim=140)
    gs = compose(GaussianDecomposition(alpha=0.5 + 0.4j, phi=0.3,
                                       r_tilde=1.2, n_tilde=0.5))
    grid = grid_for_gaussian(gs)
    direct = gaussian_wigner(gs, grid)
    via_fock = wigner_from_density(to_fock(gs, space), grid)
    gap = float(np.max(np.abs(direct.values - via_fock.values)))
    assert report("09b gaussian-vs-fock-path", gap < 1e-5,
                  f"max pointwise gap {gap:.2e}")


def test_criterion_09c_single_photon_negativity(report):
    space = HilbertSpace(n_qubits=0, field_dim=8)
    mat = np.zeros((8, 8), dtype=complex)
    mat[1, 1] = 1.0
    rho = DensityMatrix(space, mat)
    w = wigner_from_density(rho, grid_for_density(rho))
    i0 = int(np.argmin(np.abs(w.grid.x_centers)))
    j0 = int(np.argmin(np.abs(w.grid.p_centers)))
    origin = float(w.values[i0, j0])
    assert report("09c single-photon-negativity", origin < 0.0,
                  f"W(0, 0) = {origin:.4f}")


def test_criterion_09d_steady_state_positivity(report, strong_squeeze_panels):
    worst = min(float(w.values.min())
                for pair in strong_squeeze_panels.values() for w in pair)
    assert report("09d steady-state-positivity", worst >= -1e-6,
                  f"global minimum {worst:.2e} over both bases")


def test_criterion_09e_ring_anisotropy(report, strong_squeeze_panels):
    _, bare_squeezed = strong_squeeze_panels[10.0]
    _, bare_coherent = strong_squeeze_panels[0.01]
    sq_x, _, sq_ratio = ring_cut_anisotropy(bare_squeezed)
    co_x, _, co_ratio = ring_cut_anisotropy(bare_coherent)
    # squeezed-deformed ring: cross-section anisotropy above threshold and
    # a sub-vacuum member cut; coherent ring: vacuum-scale member cut
    ok = sq_ratio > 3.0 and sq_x < 0.25 and 0.25 <= co_x <= 1.0
    assert report("09e ring-anisotropy", ok,
                  f"squeezed panel ratio {sq_ratio:.1f} (x-cut {sq_x:.3f}); "
                  f"coherent panel x-cut {co_x:.3f}, half-line ratio "
                  f"{co_ratio:.1f} reflects the center-ellipse geometry")


# ---------------------------------------------------------------------------
# 10. Determinism

def test_criterion_10_determinism(report, tmp_path):
    t0 = time.perf_counter()

    def run(out):
        return cli_main([
            "single_laser", "--out", str(out),
            "--set", "sweep.param=c_tilde", "--set", "sweep.start=1",
            "--set", "sweep.stop=2", "--set", "sweep.steps=2",
            "--set", "numerics.field_dim=16"])

    rc_a, rc_b = run(tmp_path / "a"), run(tmp_path / "b")
    names = ["manifest.json", "single_laser.csv"]
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               names, shallow=False)
    elapsed = time.perf_counter() - t0
    ok = (rc_a == 0 and rc_b == 0 and sorted(match) == sorted(names)
          and not mismatch and not errors and elapsed < 60.0)
    assert report("10 determinism", ok,
                  f"exit codes ({rc_a}, {rc_b}), {len(match)} files "
                  f"byte-identical, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Adjacent configurations for criteria 02a, 03b, 05b and 07c: where the
# quoted squeeze r = 1.15 sits, the live drive that a control must detune,
# the field dimension at which the worst corner converges, and the even
# coherences that break U(1).  They record each boundary; they do not replace the
# tests above.

class TestAdjacentGreens:
    def test_02a_exact_depth_for_quoted_squeeze(self):
        # inverting r(eta1) at eta2 = 0.2 puts r = 1.15 at eta1 = 0.164639,
        # not 0.16; the small-amplitude estimate atanh(eta1/eta2) = 1.0986
        # explains the quoted rounding
        assert dress(0.164639, 0.2).r == pytest.approx(1.15, rel=1e-5)
        r_est, _ = small_amplitude_estimates(0.16, 0.2)
        assert r_est == pytest.approx(math.atanh(0.8), abs=1e-12)

    def test_03b_active_control_shifts_second_drive_from_ground(
            self, rwa_fidelities):
        # with eta1 = 0 the first drive's Bessel comb is identically one,
        # so only the second drive's frequency is a live control; from
        # |g, 0> the resonant pair |g,0> <-> |e,1> gives real dynamics.
        # The evolutions are the ones the rwa_fidelities fixture runs.
        fid_pos, fid_ctrl = rwa_fidelities
        assert float(fid_pos.min()) >= 0.99
        assert float(fid_ctrl.min()) < 0.9

    def test_05b_residual_converges_with_field_dim(self):
        # the worst-corner residual is pure Fock truncation: it falls
        # monotonically with field_dim and meets 1e-6 at 360
        fbar = complex(math.sqrt(20.0))
        residuals = [
            mf_residual(gaussian_mf_solution(fbar, 0.0, 1.2), fbar, 0.0,
                        1.2, HilbertSpace(n_qubits=0, field_dim=fd))
            for fd in (60, 200, 360)]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 1e-6

    def test_07c_coherences_are_parity_resolved(self, desk_squeezed_field):
        # squeezing breaks the continuous phase symmetry down to parity:
        # odd photon-number coherences still vanish, even ones survive
        rho_f, _ = desk_squeezed_field
        n = rho_f.space.dim
        odd = max(abs(rho_f.matrix[i, j])
                  for i in range(n) for j in range(n) if (i - j) % 2 == 1)
        a_op = annihilation(rho_f.space)
        pair = expectation(a_op @ a_op, rho_f).real
        assert odd < 1e-8
        assert pair > 0.01

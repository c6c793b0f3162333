"""References that check the package: its direct solutions against
trajectories that relax to them, and its closed forms against the
textbook definitions they replace.

The package computes steady states by a direct solve and the mean-field
fixed point in closed form.  The tests check both against trajectories
that relax to them, integrated with scipy (a test-only dependency):

- ``steady_evolve`` relaxes the full master-equation generator
  (``lindblad.liouvillian_matrix``) with scipy's RK45, from the maximally
  mixed state until the generator's norm falls below 1e-10;
- ``mf_evolve`` integrates the Maxwell-Bloch flow (``mf_rhs``) with
  ``solve_ivp``, checking the spin bounds at every stored state.

The other references are the definitions that the package's run path
does not need, kept here with the numerics they always had:

- Fock-space unitaries as exponentials of their truncated generators
  (``displacement``, ``squeeze``, ``phase_rotation``, each through
  ``fock.matrix_exponential``), against which the closed-form Fock
  elements of ``fock`` and ``gaussian`` are checked, with ``identity``
  and ``commutator``;
- the master equation's generator applied densely (``rhs``) and the
  trace distance (``trace_distance``);
- Gaussian states built from moments or canonical factors
  (``from_moments``, ``compose``, ``vacuum``), their bare-mode form
  (``symplectic_change_to_a_basis``), and their Wigner functions in
  closed form (``gaussian_wigner`` on ``grid_for_gaussian``).

``wigner_per_cell`` is the Wigner kernel as it ran before it took each
distinct radius once: the Laguerre recurrence on every grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np
from scipy.integrate import RK45, solve_ivp

from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    annihilation,
    matrix_exponential,
)
from squeezed_lasing.gaussian import GaussianDecomposition, GaussianState
from squeezed_lasing.lindblad import (
    MasterEquation,
    _as_matrix,
    dissipator,
    liouvillian_matrix,
)
from squeezed_lasing.meanfield import MeanFieldState, MFParams
from squeezed_lasing.wigner import (
    AUTO_GRID_SIGMAS,
    ModeBasis,
    PhaseGrid,
    WignerField,
)


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.dim))


def displacement(space: HilbertSpace, alpha: complex) -> Operator:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    a = annihilation(space)
    return matrix_exponential(alpha * a.dag() - np.conj(alpha) * a)


def squeeze(space: HilbertSpace, r: float) -> Operator:
    """S = exp[r (a^dag^2 - a^2) / 2], real squeezing parameter r.

    For r > 0 the x = a + a^dag quadrature of S|0> is antisqueezed
    (variance e^{2r}) and p is squeezed.
    """
    a = annihilation(space)
    return matrix_exponential((0.5 * r) * (a.dag() @ a.dag() - a @ a))


def phase_rotation(space: HilbertSpace, phi: float) -> Operator:
    """exp(i phi a^dag a), which maps a -> a e^{-i phi} under conjugation."""
    a = annihilation(space)
    return matrix_exponential(1j * phi * (a.dag() @ a))


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def rhs(me: MasterEquation, rho) -> np.ndarray:
    """-i[H, rho] plus all dissipators; the full generator output."""
    rho = _as_matrix(rho, me.space)
    h = me.hamiltonian.matrix
    out = -1j * (h @ rho - rho @ h)
    for term in me.terms:
        out += dissipator(term, rho)
    if not np.all(np.isfinite(out.view(float))):
        raise FloatingPointError("generator produced non-finite entries")
    return out


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) tr |rho - sigma|."""
    diff = _as_matrix(rho, rho.space) - _as_matrix(sigma, rho.space)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def vacuum() -> GaussianState:
    return GaussianState(mean=np.zeros(2), cov=np.eye(2))


def from_moments(meanA: complex, nA: float, A2: complex) -> GaussianState:
    """Gaussian state with the given <A>, <A^dag A>, <A^2>.

    The moments are converted to central ones, so the covariance does
    not depend on how much of nA is carried by the displacement.
    """
    meanA = complex(meanA)
    A2 = complex(A2)
    n_c = nA - abs(meanA) ** 2
    a2_c = A2 - meanA**2
    v11 = 1 + 2 * n_c + 2 * a2_c.real
    v22 = 1 + 2 * n_c - 2 * a2_c.real
    v12 = 2 * a2_c.imag
    mean = 2 * np.array([meanA.real, meanA.imag])
    return GaussianState(mean=mean, cov=np.array([[v11, v12], [v12, v22]]))


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    # conjugating a state by exp(i phi A^dag A) sends <A> to e^{i phi}<A>,
    # a counterclockwise rotation of the quadrature plane
    return np.array([[c, -s], [s, c]])


def compose(dec: GaussianDecomposition) -> GaussianState:
    """Gaussian state of the canonical factor product."""
    m = _rotation(dec.phi)
    core = np.diag([math.exp(2 * dec.r_tilde), math.exp(-2 * dec.r_tilde)])
    cov = (2 * dec.n_tilde + 1) * (m @ core @ m.T)
    mean = 2 * np.array([dec.alpha.real, dec.alpha.imag])
    return GaussianState(mean=mean, cov=cov)


def symplectic_change_to_a_basis(gs: GaussianState, r: float) -> GaussianState:
    """The same physical state in bare-mode quadratures.

    The A quadratures are the bare ones stretched by diag(e^r, e^-r),
    so going back applies the inverse scaling to mean and covariance.
    """
    s_inv = np.diag([math.exp(-r), math.exp(r)])
    return GaussianState(mean=s_inv @ gs.mean, cov=s_inv @ gs.cov @ s_inv)


def grid_for_gaussian(gs: GaussianState) -> PhaseGrid:
    """129 x 129 grid sized from the covariance of a Gaussian state."""
    sx = AUTO_GRID_SIGMAS * math.sqrt(gs.cov[0, 0])
    sp = AUTO_GRID_SIGMAS * math.sqrt(gs.cov[1, 1])
    return PhaseGrid(x_min=gs.mean[0] - sx, x_max=gs.mean[0] + sx,
                     p_min=gs.mean[1] - sp, p_max=gs.mean[1] + sp,
                     nx=129, np=129)


def gaussian_wigner(gs: GaussianState, grid: PhaseGrid) -> WignerField:
    """Exact Gaussian Wigner function on the grid."""
    det = float(np.linalg.det(gs.cov))
    vinv = np.linalg.inv(gs.cov)
    x_arr, p_arr = grid.mesh()
    dx = x_arr - gs.mean[0]
    dp = p_arr - gs.mean[1]
    quad = vinv[0, 0] * dx**2 + 2 * vinv[0, 1] * dx * dp + vinv[1, 1] * dp**2
    values = np.exp(-quad / 2) / (2 * math.pi * math.sqrt(det))
    return WignerField(grid=grid, values=values, basis_tag=ModeBasis.MODE_A)


# slack for integrator drift when asserting spin bounds along trajectories
BLOCH_TOL = 1e-7


class SteadyStateConvergenceError(RuntimeError):
    """Long-time integration failed to reach a stationary point."""


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(y: np.ndarray, d: int) -> np.ndarray:
    return y.reshape((d, d), order="F")


def normalised_state(m: np.ndarray, space: HilbertSpace,
                     blocks: np.ndarray | None = None) -> DensityMatrix:
    """The state of a solved matrix: its Hermitian part over its trace."""
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(space, m / np.trace(m).real, blocks=blocks)


def _step_invariants(y: np.ndarray, d: int, diag_idx: np.ndarray, where: str):
    trace = y[diag_idx].sum()
    if abs(trace - 1.0) > 1e-8:
        raise FloatingPointError(f"trace drifted to {trace} during {where}")
    m = _unvec(y, d)
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > 1e-8 * max(1.0, np.max(np.abs(m))):
        raise FloatingPointError(f"hermiticity lost ({herm_dev:.2e}) "
                                 f"during {where}")


def steady_evolve(me: MasterEquation) -> DensityMatrix:
    """Relax the full generator from the maximally mixed state until its
    norm falls below 1e-10."""
    d = me.space.dim
    lcsr = liouvillian_matrix(me).matrix.tocsr()
    diag_idx = np.arange(d) * (d + 1)
    y0 = _vec(np.eye(d, dtype=complex) / d)
    # The stepper tolerances must sit well below the 1e-10 stopping
    # threshold: near the fixed point the controller rides the stability
    # boundary and the generator norm plateaus at the local-error level.
    stepper = RK45(lambda t, v: lcsr @ v, 0.0, y0, np.inf,
                   rtol=1e-12, atol=1e-14)
    max_steps = 500_000
    for n in range(1, max_steps + 1):
        message = stepper.step()
        if stepper.status == "failed":
            raise SteadyStateConvergenceError(f"integrator failed: {message}")
        _step_invariants(stepper.y, d, diag_idx, "steady-state relaxation")
        if n % 50 == 0 and np.linalg.norm(lcsr @ stepper.y) <= 1e-10:
            return normalised_state(_unvec(stepper.y, d), me.space)
    raise SteadyStateConvergenceError(
        f"generator norm still above 1e-10 after {max_steps} steps "
        f"(t = {stepper.t:.3g})")


def mf_rhs(state: MeanFieldState, params: MFParams) -> MeanFieldState:
    """Time derivative of (F, S, D) under the Maxwell-Bloch flow."""
    g, gamma, kappa = params.g_tilde, params.gamma, params.kappa
    f_dot = -kappa * (1 + params.C_tilde_prime) * state.F + g * state.S
    s_dot = -gamma * state.S + g * state.D * state.F
    d_dot = (-4 * g * (state.S * state.F.conjugate()).real
             - 2 * gamma * (state.D - 1))
    return MeanFieldState(F=f_dot, S=s_dot, D=d_dot)


def check_bloch_bounds(state: MeanFieldState):
    """Raise if the spin sector leaves the physical range by over BLOCH_TOL."""
    if abs(state.D) > 1 + BLOCH_TOL:
        raise InvalidStateError(f"|D| = {abs(state.D):.6f} exceeds 1")
    if abs(state.S) > 0.5 + BLOCH_TOL:
        raise InvalidStateError(f"|S| = {abs(state.S):.6f} exceeds 1/2")


@dataclass(frozen=True)
class MFTrajectory:
    times: np.ndarray
    states: Sequence[MeanFieldState]

    @property
    def final(self) -> MeanFieldState:
        return self.states[-1]


def _pack(state: MeanFieldState) -> np.ndarray:
    return np.array([state.F.real, state.F.imag,
                     state.S.real, state.S.imag, state.D])


def _unpack(y: np.ndarray) -> MeanFieldState:
    return MeanFieldState(F=complex(y[0], y[1]), S=complex(y[2], y[3]),
                          D=float(y[4]))


def mf_evolve(state0: MeanFieldState, params: MFParams,
              t_final: float) -> MFTrajectory:
    """Integrate the Maxwell-Bloch flow, checking spin bounds en route.

    RK45 runs at rtol 1e-10 and atol 1e-12; the trajectory holds 50
    uniformly spaced states.
    """
    check_bloch_bounds(state0)

    def rhs(t, y):
        return _pack(mf_rhs(_unpack(y), params))

    times = np.linspace(0.0, t_final, 50)
    sol = solve_ivp(rhs, (0.0, t_final), _pack(state0), method="RK45",
                    t_eval=times, rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    states = tuple(_unpack(sol.y[:, k]) for k in range(sol.y.shape[1]))
    for s in states:
        check_bloch_bounds(s)
    return MFTrajectory(times=sol.t, states=states)


def wigner_per_cell(rho_A: DensityMatrix, grid: PhaseGrid) -> np.ndarray:
    """W on ``grid``, with the recurrence and the inner sums of
    ``wigner.wigner_from_density`` run on every cell; no mass check."""
    mat = rho_A.matrix
    x_arr, p_arr = grid.mesh()
    r2 = x_arr**2 + p_arr**2
    phase_unit = np.exp(-1j * np.arctan2(p_arr, x_arr))
    values = np.zeros_like(r2)
    inner, term = (np.empty(r2.shape, dtype=complex) for _ in range(2))
    f_prev, f, step = (np.empty_like(r2) for _ in range(3))
    for delta in range(rho_A.space.field_dim):
        c = (np.diagonal(mat, offset=-delta)
             + np.diagonal(mat, offset=delta).conj()) / 2
        kept = np.flatnonzero(np.abs(c) >= 1e-18)
        if not kept.size:
            continue
        inner.fill(0.0)
        f_prev.fill(0.0)
        with np.errstate(divide="ignore"):
            log_power = (delta / 2) * np.log(r2) if delta else 0.0
        np.exp(log_power - r2 / 2 - 0.5 * math.lgamma(delta + 1), out=f)
        f /= 2 * math.pi
        for n in range(kept[-1] + 1):
            if n:
                np.subtract(2 * n - 1 + delta, r2, out=step)
                step *= f
                np.multiply(math.sqrt((n - 1) * (n - 1 + delta)), f_prev,
                            out=f_prev)
                step += f_prev
                step /= -math.sqrt(n * (n + delta))
                f_prev, f, step = f, step, f_prev
            if abs(c[n]) >= 1e-18:
                inner += np.multiply(c[n], f, out=term)
        values += (2.0 if delta else 1.0) * (phase_unit**delta * inner).real
    return values

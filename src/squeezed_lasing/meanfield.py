"""Mean-field laser equations for the driven qubit and the squeezed mode.

Factorizing the state over the qubit and field sectors turns the master
equation into the Maxwell-Bloch system for F = <A>, S = i<sigma>^*, and
the inversion D = -<sigma_z>.  Above the cooperativity threshold the
field settles on a bright ring whose phase is free; the ansatz for the
field state is the matching Gaussian, averaged uniformly over that
phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .fock import (DensityMatrix, HilbertSpace, InvalidStateError,
                   annihilation, displacement)
from .gaussian import GaussianState, to_fock
from .lindblad import LindbladTerm, dissipator

# slack for integrator drift when asserting spin bounds along trajectories
BLOCH_TOL = 1e-7


@dataclass(frozen=True)
class MeanFieldState:
    """Field amplitude F = <A>, spin coherence S = i<sigma>^*, inversion D."""

    F: complex
    S: complex
    D: float

    @property
    def theta(self) -> float:
        """Phase of the field amplitude."""
        return math.atan2(self.F.imag, self.F.real)


def check_bloch_bounds(state: MeanFieldState, tol: float = BLOCH_TOL):
    """Raise if the spin sector leaves the physical range."""
    if abs(state.D) > 1 + tol:
        raise InvalidStateError(f"|D| = {abs(state.D):.6f} exceeds 1")
    if abs(state.S) > 0.5 + tol:
        raise InvalidStateError(f"|S| = {abs(state.S):.6f} exceeds 1/2")


@dataclass(frozen=True)
class MFParams:
    """Rates of the effective single-qubit laser in the squeezed mode.

    kappa is the bare cavity loss; the engineered channel multiplies the
    total field damping by (1 + C_tilde_prime).
    """

    g_tilde: float
    gamma: float
    kappa: float
    C_tilde_prime: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0 or self.kappa <= 0:
            raise ValueError("gamma and kappa must be positive")
        if self.g_tilde < 0:
            raise ValueError("g_tilde must be non-negative")
        if self.C_tilde_prime < 0 or self.r < 0:
            raise ValueError("C_tilde_prime and r must be non-negative")

    @property
    def cooperativity(self) -> float:
        """C~ = g~^2 / (gamma kappa (1 + C~'))."""
        return self.g_tilde**2 / (self.gamma * self.kappa
                                  * (1 + self.C_tilde_prime))

    @classmethod
    def from_cooperativity(cls, c_tilde: float, gamma: float, kappa: float,
                           c_tilde_prime: float = 0.0,
                           r: float = 0.0) -> "MFParams":
        g_tilde = math.sqrt(c_tilde * gamma * kappa * (1 + c_tilde_prime))
        return cls(g_tilde=g_tilde, gamma=gamma, kappa=kappa,
                   C_tilde_prime=c_tilde_prime, r=r)


def mf_rhs(state: MeanFieldState, params: MFParams) -> MeanFieldState:
    """Time derivative of (F, S, D) under the Maxwell-Bloch flow."""
    g, gamma, kappa = params.g_tilde, params.gamma, params.kappa
    f_dot = -kappa * (1 + params.C_tilde_prime) * state.F + g * state.S
    s_dot = -gamma * state.S + g * state.D * state.F
    d_dot = (-4 * g * (state.S * state.F.conjugate()).real
             - 2 * gamma * (state.D - 1))
    return MeanFieldState(F=f_dot, S=s_dot, D=d_dot)


def mf_steady(params: MFParams, theta: float = 0.0) -> MeanFieldState:
    """Steady state of the flow; the bright-ring phase theta is free.

    Below threshold (C~ <= 1) the dark solution (0, 0, 1) is the only
    attractor.  Above it the inversion clamps at 1/C~ and the field
    amplitude balances gain against the total damping kappa (1 + C~'):

        |F|^2 = gamma (C~ - 1) / (2 kappa C~ (1 + C~')).
    """
    c = params.cooperativity
    if c <= 1:
        return MeanFieldState(F=0j, S=0j, D=1.0)
    mag = math.sqrt(params.gamma * (c - 1)
                    / (2 * params.kappa * c * (1 + params.C_tilde_prime)))
    fbar = mag * complex(math.cos(theta), math.sin(theta))
    sbar = params.g_tilde / (c * params.gamma) * fbar
    return MeanFieldState(F=fbar, S=sbar, D=1 / c)


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


def mf_evolve(state0: MeanFieldState, params: MFParams, t_final: float, *,
              rtol: float = 1e-10, atol: float = 1e-12,
              n_store: int = 50) -> MFTrajectory:
    """Integrate the Maxwell-Bloch flow, checking spin bounds en route."""
    check_bloch_bounds(state0)

    def rhs(t, y):
        return _pack(mf_rhs(_unpack(y), params))

    times = np.linspace(0.0, t_final, n_store)
    sol = solve_ivp(rhs, (0.0, t_final), _pack(state0), method="RK45",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    states = tuple(_unpack(sol.y[:, k]) for k in range(sol.y.shape[1]))
    for s in states:
        check_bloch_bounds(s)
    return MFTrajectory(times=sol.t, states=states)


def gaussian_mf_solution(fbar: complex, c_prime: float,
                         r: float) -> GaussianState:
    """Gaussian field state solving the traced steady-state equation.

    The displacement follows fbar; the covariance interpolates between
    the squeezed vacuum of the engineered bath (c_prime = 0) and the
    vacuum the ordinary channel would impose on mode A (c_prime large):

        V = diag(C~' + e^{2r}, C~' + e^{-2r}) / (1 + C~').
    """
    if r < 0 or c_prime < 0:
        raise ValueError("r and c_prime must be non-negative")
    fbar = complex(fbar)
    cov = np.diag([(c_prime + math.exp(2 * r)) / (1 + c_prime),
                   (c_prime + math.exp(-2 * r)) / (1 + c_prime)])
    return GaussianState(mean=2 * np.array([fbar.real, fbar.imag]), cov=cov)


def mf_residual(gaussian: GaussianState, fbar: complex, c_prime: float,
                r: float, space: HilbertSpace) -> float:
    """Frobenius norm of the traced steady-state equation's left side.

    Zero (up to truncation) certifies that the Gaussian state solves
    (1+C~')[fbar A^dag - fbar^* A, rho] + L_{uA - vA^dag, 1}[rho]
    + L_{A, C~'}[rho] with u = cosh r, v = sinh r.
    """
    rho = to_fock(gaussian, space).matrix
    mode = annihilation(space)
    u, v = math.cosh(r), math.sinh(r)
    drive = fbar * mode.dag().matrix - np.conj(fbar) * mode.matrix
    lhs = (1 + c_prime) * (drive @ rho - rho @ drive)
    lhs = lhs + dissipator(LindbladTerm(u * mode - v * mode.dag(), 1.0), rho)
    if c_prime > 0:
        lhs = lhs + dissipator(LindbladTerm(mode, c_prime), rho)
    return float(np.linalg.norm(lhs))


def mf_ansatz(fbar_mag: float, c_prime: float, r: float, space: HilbertSpace,
              n_phases: int = 64) -> DensityMatrix:
    """Phase-averaged mixture of the bright-ring Gaussian states.

    The free phase is integrated out with a uniform midpoint rule, which
    converges spectrally because the integrand is periodic; n_phases
    below 16 is rejected as too coarse.

    The members share one covariance and differ only in the displacement
    fbar_mag e^{i theta}.  With R_theta = exp(i theta a^dag a) =
    diag(e^{i theta n}),

        D(alpha e^{i theta}) = R_theta D(alpha) R_theta^dag,

    which holds exactly on the truncated space too, because the truncated
    a is a single off-diagonal.  So the undisplaced core and D(fbar_mag)
    are built once, and each member is

        R_theta D (R_theta^dag core R_theta) D^dag R_theta^dag,

    where the inner conjugation scales entry (m, n) by e^{-i theta (m - n)}
    and the outer one by e^{+i theta (m - n)}.  Every member is still
    validated as a state.
    """
    if fbar_mag < 0:
        raise ValueError("fbar_mag must be non-negative")
    if fbar_mag == 0:
        return to_fock(gaussian_mf_solution(0j, c_prime, r), space)
    if n_phases < 16:
        raise ValueError("n_phases must be at least 16")
    core = to_fock(gaussian_mf_solution(0j, c_prime, r), space).matrix
    disp = displacement(space, fbar_mag).matrix
    disp_dag = disp.conj().T
    levels = np.arange(space.field_dim)
    acc = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(n_phases):
        theta = 2 * math.pi * (k + 0.5) / n_phases
        ket = np.exp(1j * theta * levels)
        phases = np.outer(ket, ket.conj())
        member = phases * (disp @ (phases.conj() * core) @ disp_dag)
        acc += DensityMatrix(space, member).matrix
    return DensityMatrix(space, acc / n_phases)

"""Reference integrators that check the package's direct solutions.

The package computes steady states by a direct solve and the mean-field
fixed point in closed form.  The tests check both against trajectories
that relax to them, integrated with scipy (a test-only dependency):

- ``steady_evolve`` relaxes the full master-equation generator
  (``lindblad.liouvillian_matrix``) with scipy's RK45, from the maximally
  mixed state until the generator's norm falls below 1e-10;
- ``mf_evolve`` integrates the Maxwell-Bloch flow (``meanfield.mf_rhs``)
  with ``solve_ivp``, checking the spin bounds at every stored state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import RK45, solve_ivp

from squeezed_lasing.fock import DensityMatrix, HilbertSpace, InvalidStateError
from squeezed_lasing.lindblad import MasterEquation, liouvillian_matrix
from squeezed_lasing.meanfield import MeanFieldState, MFParams, mf_rhs

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

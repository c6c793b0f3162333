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

import numpy as np

from .dressing import DressedCoupling
from .fock import (
    DensityMatrix,
    HilbertSpace,
    annihilation,
    displacement_elements,
)
from .gaussian import (
    GaussianState,
    decompose,
    kept_state,
    squeezed_thermal_elements,
    to_fock,
)
from .lindblad import LindbladTerm, dissipator


@dataclass(frozen=True)
class MeanFieldState:
    """Field amplitude F = <A>, spin coherence S = i<sigma>^*, inversion D."""

    F: complex
    S: complex
    D: float


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

    def __post_init__(self):
        if self.gamma <= 0 or self.kappa <= 0:
            raise ValueError("gamma and kappa must be positive")
        if self.g_tilde < 0:
            raise ValueError("g_tilde must be non-negative")
        if self.C_tilde_prime < 0:
            raise ValueError("C_tilde_prime must be non-negative")

    @property
    def cooperativity(self) -> float:
        """C~ = g~^2 / (gamma kappa (1 + C~'))."""
        return self.g_tilde**2 / (self.gamma * self.kappa
                                  * (1 + self.C_tilde_prime))


def _require_finite(**values):
    """Raise ValueError naming the first argument that is not finite."""
    for name, value in values.items():
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"{name} must be finite, got {value!r}")


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


def gaussian_mf_solution(fbar: complex, c_prime: float,
                         r: float) -> GaussianState:
    """Gaussian field state solving the traced steady-state equation.

    The displacement follows fbar; the covariance interpolates between
    the squeezed vacuum of the engineered bath (c_prime = 0) and the
    vacuum the ordinary channel would impose on mode A (c_prime large):

        V = diag(C~' + e^{2r}, C~' + e^{-2r}) / (1 + C~').
    """
    _require_finite(fbar=fbar, c_prime=c_prime, r=r)
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
    bare = DressedCoupling.from_r(r).bare_from_mode(space)
    drive = fbar * mode.dag().matrix - np.conj(fbar) * mode.matrix
    lhs = (1 + c_prime) * (drive @ rho - rho @ drive)
    lhs = lhs + dissipator(LindbladTerm(bare, 1.0), rho)
    if c_prime > 0:
        lhs = lhs + dissipator(LindbladTerm(mode, c_prime), rho)
    return float(np.linalg.norm(lhs))


def mf_ansatz(fbar_mag: float, c_prime: float, r: float,
              space: HilbertSpace) -> DensityMatrix:
    """Phase-averaged mixture of the bright-ring Gaussian states.

    The members share one covariance and differ only in the displacement
    fbar_mag e^{i theta}.  With R_theta = exp(i theta a^dag a) =
    diag(e^{i theta n}),

        D(alpha e^{i theta}) = R_theta D(alpha) R_theta^dag,

    so with the undisplaced core C and D = D(fbar_mag), each member is
    R_theta D (R_theta^dag C R_theta) D^dag R_theta^dag, whose entry
    (m, n) sums e^{i theta [(m - n) - (p - q)]} D_mp C_pq D*_nq over p
    and q.  The uniform average over theta keeps only p - q = m - n, so
    band j >= 0 of the mixture is

        rho_{m, m-j} = sum_p D_{m,p} C_{p,p-j} D_{m-j,p-j},

    and the upper triangle follows by symmetry.  D and C are the exact,
    real Fock elements (``fock.displacement_elements``,
    ``gaussian.squeezed_thermal_elements``) cut off at field_dim levels.
    The core couples only levels of equal parity, so the odd bands are
    exactly 0 and only the even ones are contracted.  The mixture is
    renormalised over the kept levels (``gaussian.kept_state``), which
    raises where they hold next to none of it, and validated once, as a
    state block diagonal in photon parity.
    """
    _require_finite(fbar_mag=fbar_mag, c_prime=c_prime, r=r)
    if fbar_mag < 0:
        raise ValueError("fbar_mag must be non-negative")
    # a diagonal covariance: the core's squeeze axis is x, phi = 0
    dec = decompose(gaussian_mf_solution(0j, c_prime, r))
    d = space.field_dim
    core = squeezed_thermal_elements(dec.r_tilde, dec.n_tilde, d)
    disp = displacement_elements(fbar_mag, d)
    lower = np.zeros((d, d))
    # band j of a d x d matrix, (j + i, i), as a strided view of its rows
    flat_lower, flat_core = lower.reshape(-1), core.reshape(-1)
    for j in range(0, d, 2):
        flat_lower[j * d::d + 1] = np.einsum(
            "ij,j,ij->i", disp[j:, j:], flat_core[j * d::d + 1],
            disp[:d - j, :d - j])
    rho = lower + np.tril(lower, -1).T
    return kept_state(rho, space, blocks=np.arange(d) % 2)

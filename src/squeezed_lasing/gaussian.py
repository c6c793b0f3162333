"""Single-mode Gaussian states of the squeezed mode A.

Quadratures are x = A + A^dag and p = i(A^dag - A), so the vacuum
covariance is the identity.  A state is (mean, cov) with
mean = <(x, p)> and cov the central second moments.  Any such state
factors as displacement, phase rotation, squeeze, thermal:

    rho = D(alpha) R(phi) S(r~) rho_th(n~) S^dag R^dag D^dag,

which is the canonical form used to convert into the Fock basis and to
compare against exact steady states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FLUSH_BELOW,
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    annihilation,
    displacement_elements,
    expectation,
)

# det V may round slightly below the uncertainty bound for pure states
DET_TOL = 1e-10

# ``kept_state`` refuses a kept mass below this: its entries are then built
# from products that have met the subnormal range
_KEPT_MASS_FLOOR = 1e-250


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of one bosonic mode."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError("cov must be 2x2")
        for name, value in (("mean", mean), ("cov", cov)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{value.tolist()}")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-10 * max(1.0, np.max(np.abs(cov))):
            raise InvalidStateError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] <= 0:
            raise InvalidStateError(f"covariance has non-positive eigenvalue "
                                    f"{eigs[0]:.3e}")
        if float(np.linalg.det(cov)) < 1.0 - DET_TOL:
            raise InvalidStateError(f"uncertainty product det V = "
                                    f"{np.linalg.det(cov):.12f} below 1")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def vacuum(cls) -> "GaussianState":
        return cls(mean=np.zeros(2), cov=np.eye(2))

    @property
    def mean_A(self) -> complex:
        """<A> = (<x> + i <p>) / 2."""
        return complex(self.mean[0], self.mean[1]) / 2

    def occupation(self) -> float:
        """<A^dag A>, including the displacement contribution."""
        return abs(self.mean_A) ** 2 + (self.cov[0, 0] + self.cov[1, 1] - 2) / 4

    def moment_A2(self) -> complex:
        """<A^2>, including the displacement contribution."""
        central = (self.cov[0, 0] - self.cov[1, 1] + 2j * self.cov[0, 1]) / 4
        return self.mean_A**2 + central


@dataclass(frozen=True)
class GaussianDecomposition:
    """Canonical displacement / rotation / squeeze / thermal factors."""

    alpha: complex
    phi: float
    r_tilde: float
    n_tilde: float

    def __post_init__(self):
        if self.n_tilde < 0:
            raise InvalidStateError(f"thermal occupation {self.n_tilde} < 0")


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


def decompose(gs: GaussianState) -> GaussianDecomposition:
    """Canonical factors; phi folded into (-pi/4, pi/4].

    The thermal part matches the determinant, the squeeze the eigenvalue
    ratio of the covariance.  (phi, r~) and (phi + pi/2, -r~) describe
    the same state, which fixes the quarter-period domain; at r~ = 0 the
    angle is undefined and reported as 0.  |r~| below 1e-13 counts as 0:
    the r~ of an unsqueezed input is roundoff, below 1e-15, and setting
    it to 0 moves the covariance by at most 2e-13 relative.
    """
    det = float(np.linalg.det(gs.cov))
    n_tilde = max(0.0, (math.sqrt(det) - 1) / 2)
    w = gs.cov / (2 * n_tilde + 1)
    half_gap = math.hypot(w[0, 0] - w[1, 1], 2 * w[0, 1]) / 2
    lam_plus = (w[0, 0] + w[1, 1]) / 2 + half_gap
    r_tilde = 0.5 * math.log(lam_plus)
    if abs(r_tilde) < 1e-13:
        return GaussianDecomposition(alpha=gs.mean_A, phi=0.0,
                                     r_tilde=0.0, n_tilde=n_tilde)
    theta = 0.5 * math.atan2(2 * w[0, 1], w[0, 0] - w[1, 1])
    phi = math.remainder(theta, math.pi)
    if phi > math.pi / 4:
        phi -= math.pi / 2
        r_tilde = -r_tilde
    elif phi <= -math.pi / 4:
        phi += math.pi / 2
        r_tilde = -r_tilde
    return GaussianDecomposition(alpha=gs.mean_A, phi=phi,
                                 r_tilde=r_tilde, n_tilde=n_tilde)


def compose(dec: GaussianDecomposition) -> GaussianState:
    """Gaussian state of the canonical factor product."""
    m = _rotation(dec.phi)
    core = np.diag([math.exp(2 * dec.r_tilde), math.exp(-2 * dec.r_tilde)])
    cov = (2 * dec.n_tilde + 1) * (m @ core @ m.T)
    mean = 2 * np.array([dec.alpha.real, dec.alpha.imag])
    return GaussianState(mean=mean, cov=cov)


def squeezed_thermal_elements(r: float, n_thermal: float,
                              field_dim: int) -> np.ndarray:
    """<m|S(r) rho_th(n) S(r)^dag|n> for m, n below ``field_dim``: the
    exact elements of a squeezed thermal state (S as in
    ``fock.squeeze``), real, symmetric, and 0 wherever m + n is odd.

    With nu = 2 n + 1 and E = nu^2 + 2 nu cosh 2r + 1, the state's
    Bargmann generating function is T exp(a (u^2 + v^2) / 2 + c u v)
    with T = 2 / sqrt(E), a = 2 nu sinh 2r / E and c = (nu^2 - 1) / E,
    so that (Miatto & Quesada, Quantum 4, 366 (2020))

        sqrt(m + 1) rho_{m+1,n} = a sqrt(m) rho_{m-1,n} + c sqrt(n) rho_{m,n-1}

    from row 0, rho_{0,2k} = T a^k sqrt((2k)!) / (2^k k!).  No two terms
    of an entry differ in sign, so the recurrence loses no digits.
    """
    nu = 2 * n_thermal + 1
    big_e = nu * nu + 2 * nu * math.cosh(2 * r) + 1
    a = 2 * nu * math.sinh(2 * r) / big_e
    c = 4 * n_thermal * (n_thermal + 1) / big_e
    d = field_dim
    roots = np.sqrt(np.arange(d))
    rho = np.zeros((d, d))
    rho[0, 0] = 2 / math.sqrt(big_e)
    even = np.arange(2, d, 2)
    rho[0, 2::2] = rho[0, 0] * np.cumprod(a * roots[even - 1] / roots[even])
    c_roots = c * roots[1:]
    for m in range(d - 1):
        # row m + 1 from rows m - 1 and m
        row = rho[m + 1]
        np.multiply(c_roots, rho[m, :-1], out=row[1:])
        if m:
            row += (a * math.sqrt(m)) * rho[m - 1]
        row /= math.sqrt(m + 1)
    # the rows' upper parts agree with the lower ones to roundoff; mirror
    rho = np.tril(rho)
    rho[np.abs(rho) < FLUSH_BELOW] = 0.0
    return rho + np.tril(rho, -1).T


def kept_state(matrix: np.ndarray, space: HilbertSpace,
               blocks: np.ndarray | None = None) -> DensityMatrix:
    """The state of exact Fock elements cut off at ``space``'s levels:
    ``matrix`` over its trace, the mass those levels keep.  A kept mass
    below _KEPT_MASS_FLOOR raises InvalidStateError instead, since the
    state then lies beyond field_dim and its kept entries have lost
    their digits to underflow."""
    mass = float(np.trace(matrix).real)
    if not mass >= _KEPT_MASS_FLOOR:
        raise InvalidStateError(
            f"the {space.field_dim} kept Fock levels hold mass {mass:.3e}: "
            "the state lies beyond field_dim")
    return DensityMatrix(space, matrix / mass, blocks=blocks)


def to_fock(gs: GaussianState, space: HilbertSpace) -> DensityMatrix:
    """Fock-basis density matrix of the Gaussian state.

    The exact elements of D(alpha) R(phi) and of the squeezed thermal
    core (``fock.displacement_elements``, ``squeezed_thermal_elements``),
    with R(phi) and the phase of alpha as diagonal rotations, are cut off
    at field_dim levels and contracted there.  The result is renormalised
    over the kept levels (``kept_state``) and validated as a state.
    """
    if space.n_qubits != 0:
        raise ValueError("to_fock needs a field-only space")
    dec = decompose(gs)
    d = space.field_dim
    core = squeezed_thermal_elements(dec.r_tilde, dec.n_tilde, d)
    theta = math.atan2(dec.alpha.imag, dec.alpha.real)
    n = np.arange(d)
    # D(alpha) R(phi) = R(theta) D(|alpha|) R(phi - theta)
    u = (np.exp(1j * theta * n)[:, None]
         * displacement_elements(abs(dec.alpha), d)
         * np.exp(1j * (dec.phi - theta) * n))
    return kept_state(u @ core @ u.conj().T, space)


def symplectic_change_to_a_basis(gs: GaussianState, r: float) -> GaussianState:
    """The same physical state in bare-mode quadratures.

    The A quadratures are the bare ones stretched by diag(e^r, e^-r),
    so going back applies the inverse scaling to mean and covariance.
    """
    s_inv = np.diag([math.exp(-r), math.exp(r)])
    return GaussianState(mean=s_inv @ gs.mean, cov=s_inv @ gs.cov @ s_inv)


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

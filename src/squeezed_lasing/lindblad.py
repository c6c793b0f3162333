"""Lindblad master equations: Liouvillians and steady states.

Master equations are solved for their stationary state only; the one
time integrator, :func:`schrodinger_evolve`, propagates pure states (the
RWA check).  ``steady_state(method="evolve")`` relaxes a master equation
to its fixed point as the oracle of the direct solve.

The dissipator convention carries the rate outside,

    L_{O, rate}[rho] = rate (2 O rho O^dag - O^dag O rho - rho O^dag O),

so a qubit decay term L_{sigma, gamma} relaxes <sigma_z> at 4 gamma.
Density matrices are represented in the Fock basis of the squeezed mode
A throughout; the bare-mode decay channel enters through the Bogoliubov
relation a = A cosh r - A^dag sinh r.

Vectorization is column-major: vec(A rho B) = (B^T kron A) vec(rho).
Liouvillians are kept as scipy sparse matrices, which stay cheap well
past the dimensions where dense storage stops fitting in memory.

Each model carries a weak symmetry (Buca & Prosen, NJP 14, 073007): a
diagonal integer charge Q over the product basis that H conserves and
each jump operator shifts by one fixed amount, modulo 2 for the Z2
parity of the squeezed models and exactly for the U(1) charge of the
plain laser.  The generator then maps the pairs (i, j) with equal charge
onto themselves, and the direct steady-state solve runs on that sector
alone, assembled from the operators' nonzeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.integrate import RK45
from scipy.sparse.linalg import splu

from .dressing import DressedCoupling
from .fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    annihilation,
    qubit_ops,
)

# Dense SVD screening for nonunique steady states is affordable only on
# small systems; larger models in scope are known to be ergodic.
UNIQUENESS_SCREEN_MAX_DIM = 20


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


class SteadyStateConvergenceError(RuntimeError):
    """Long-time integration failed to reach a stationary point."""


@dataclass(frozen=True)
class LindbladTerm:
    """One dissipation channel: jump operator O and rate."""

    jump: Operator
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class MasterEquation:
    """Time-independent Hermitian Hamiltonian plus Lindblad terms on a
    shared Hilbert space.

    ``charge`` optionally gives an integer per product basis state,
    conserved modulo ``modulus`` (2 for a Z2 parity, 0 for a U(1)
    charge).  It is checked on the operators: every nonzero of H must
    join states of equal charge, and all nonzeros of each jump operator
    must shift it by the same amount; a violation raises ValueError.
    Without a charge every state carries the same one.

    Time-dependent Hamiltonians appear only in the pure-state RWA check,
    which propagates them with :func:`schrodinger_evolve`.
    """

    hamiltonian: Operator
    terms: tuple[LindbladTerm, ...]
    space: HilbertSpace
    charge: np.ndarray | None = None
    modulus: int = 0

    def __post_init__(self):
        if not isinstance(self.hamiltonian, Operator):
            raise TypeError("hamiltonian must be an Operator, got "
                            f"{type(self.hamiltonian).__name__}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.jump.space != self.space:
                raise ValueError("jump operator lives on a different space")
        scale = max(1.0, float(np.max(np.abs(self.hamiltonian.matrix))))
        if not self.hamiltonian.is_hermitian(tol=1e-10 * scale):
            raise ValueError("Hamiltonian is not Hermitian")
        if self.charge is not None:
            self._check_charge()

    def _check_charge(self):
        charge = np.array(self.charge)
        if (charge.shape != (self.space.dim,)
                or not np.issubdtype(charge.dtype, np.integer)):
            raise ValueError("charge must hold one integer per basis state")
        if self.modulus < 0:
            raise ValueError("modulus must be non-negative")
        charge.setflags(write=False)
        object.__setattr__(self, "charge", charge)

        def shifts(op: Operator) -> np.ndarray:
            rows, cols = np.nonzero(op.matrix)
            return np.unique(self._reduce(charge[rows] - charge[cols]))

        if np.any(shifts(self.hamiltonian) != 0):
            raise ValueError("Hamiltonian does not conserve the charge")
        for k, term in enumerate(self.terms):
            if shifts(term.jump).size > 1:
                raise ValueError(f"jump operator {k} does not shift the "
                                 "charge by one fixed amount")

    def _reduce(self, values: np.ndarray) -> np.ndarray:
        return values % self.modulus if self.modulus else values

    def _labels(self) -> np.ndarray:
        """The conserved label of each basis state, all equal without a
        charge."""
        if self.charge is None:
            return np.zeros(self.space.dim, dtype=int)
        return self._reduce(self.charge)


def _check_trace_null(matrix: sp.spmatrix, diagonal: np.ndarray):
    """The trace functional (ones on the diagonal pairs) is a left null
    vector of the generator."""
    trace_vec = np.zeros(matrix.shape[0])
    trace_vec[diagonal] = 1.0
    residual = np.max(np.abs(matrix.T @ trace_vec))
    scale = max(1.0, abs(matrix).max())
    if residual > 1e-10 * scale:
        raise ValueError(f"trace functional is not a left null vector "
                         f"(residual {residual:.2e})")


@dataclass(frozen=True)
class Liouvillian:
    """Sparse matrix generator acting on column-vectorized states."""

    matrix: sp.spmatrix
    space: HilbertSpace

    def __post_init__(self):
        d = self.space.dim
        if self.matrix.shape != (d * d, d * d):
            raise ValueError("Liouvillian shape does not match space")
        _check_trace_null(self.matrix, np.arange(d) * (d + 1))


def _as_matrix(rho, space: HilbertSpace) -> np.ndarray:
    if isinstance(rho, Operator):
        if rho.space != space:
            raise ValueError("state lives on a different space")
        return rho.matrix
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (space.dim, space.dim):
        raise ValueError(f"state shape {rho.shape} does not match space "
                         f"dimension {space.dim}")
    return rho


def dissipator(term: LindbladTerm, rho) -> np.ndarray:
    """rate (2 O rho O^dag - O^dag O rho - rho O^dag O)."""
    o = term.jump.matrix
    rho = _as_matrix(rho, term.jump.space)
    o_rho = o @ rho
    odo = o.conj().T @ o
    return term.rate * (2.0 * (o_rho @ o.conj().T) - odo @ rho - rho @ odo)


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


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(y: np.ndarray, d: int) -> np.ndarray:
    return y.reshape((d, d), order="F")


class _Sector:
    """The pairs (i, j) of basis states with equal labels, numbered in
    column-major order: column j holds the states of j's block, ascending.

    With one label for every state this is the full column-major vec
    index i + d j.
    """

    def __init__(self, labels: np.ndarray):
        d = labels.size
        _, self.block, self.size = np.unique(labels, return_inverse=True,
                                             return_counts=True)
        # basis states grouped block by block, ascending within a block
        self.members = np.argsort(self.block, kind="stable")
        self.first = np.cumsum(self.size) - self.size
        self.rank = np.empty(d, dtype=np.int64)  # place within the block
        self.rank[self.members] = np.arange(d) - np.repeat(self.first,
                                                           self.size)
        self.height = self.size[self.block]  # pairs in column j
        self.col_start = np.cumsum(self.height) - self.height
        self.n = int(self.height.sum())

    def index(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Sector index of the pairs (i, j); each i must share j's block."""
        return self.col_start[j] + self.rank[i]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, columns) of every sector pair, in sector order."""
        cols = np.repeat(np.arange(self.block.size), self.height)
        rows = self.members[np.repeat(self.first[self.block] - self.col_start,
                                      self.height) + np.arange(self.n)]
        return rows, cols

    def sandwich(self, a: sp.coo_matrix, b: sp.coo_matrix):
        """(rows, columns, values) of rho -> A rho B^dag within the sector.

        A_ip conj(B_jq) maps pair (p, q) to pair (i, j); every nonzero of A
        meets every nonzero of B whose row shares its row's block.  A and
        B must shift the labels by the same amount, so (p, q) is then a
        sector pair as well.
        """
        b_block = self.block[b.row]
        b_sorted = np.argsort(b_block, kind="stable")
        b_count = np.bincount(b_block, minlength=self.size.size)
        b_first = np.cumsum(b_count) - b_count
        a_block = self.block[a.row]
        reps = b_count[a_block]
        ka = np.repeat(np.arange(a.nnz), reps)
        kb = b_sorted[np.repeat(b_first[a_block] - (np.cumsum(reps) - reps),
                                reps) + np.arange(reps.sum())]
        return (self.index(a.row[ka], b.row[kb]),
                self.index(a.col[ka], b.col[kb]),
                a.data[ka] * b.data[kb].conj())


def _generator(me: MasterEquation, sector: _Sector) -> sp.csc_matrix:
    """The generator on the sector pairs, built from the operators' nonzeros.

    L rho = G rho + rho G^dag + sum_k 2 rate_k O_k rho O_k^dag with
    G = -iH - sum_k rate_k O_k^dag O_k; each term is a sandwich.  The
    sector must be closed under L, which the charge checks guarantee.
    """
    d = me.space.dim
    eye = sp.identity(d, dtype=complex, format="coo")
    g = -1j * sp.csr_matrix(me.hamiltonian.matrix)
    sandwiches = []
    for term in me.terms:
        o = sp.csr_matrix(term.jump.matrix)
        g = g - term.rate * (o.conj().T @ o)
        sandwiches.append(((2.0 * term.rate) * o.tocoo(), o.tocoo()))
    g = g.tocoo()
    parts = [sector.sandwich(a, b)
             for a, b in [(g, eye), (eye, g), *sandwiches]]
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return sp.csc_matrix((vals, (rows, cols)), shape=(sector.n, sector.n))


def liouvillian_matrix(me: MasterEquation) -> Liouvillian:
    """Sparse matrix L with vec(rhs(rho)) = L vec(rho), over all d^2
    entries whatever the charge."""
    d = me.space.dim
    full = _Sector(np.zeros(d, dtype=int))
    return Liouvillian(matrix=_generator(me, full), space=me.space)


def _step_invariants(y: np.ndarray, d: int, diag_idx: np.ndarray, where: str):
    trace = y[diag_idx].sum()
    if abs(trace - 1.0) > 1e-8:
        raise FloatingPointError(f"trace drifted to {trace} during {where}")
    m = _unvec(y, d)
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > 1e-8 * max(1.0, np.max(np.abs(m))):
        raise FloatingPointError(f"hermiticity lost ({herm_dev:.2e}) "
                                 f"during {where}")


def _state_from_matrix(m: np.ndarray, space: HilbertSpace) -> DensityMatrix:
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(space, m / np.trace(m).real)


def schrodinger_evolve(hamiltonian: Callable[[float], np.ndarray],
                       psi0: np.ndarray, t_final: float, *,
                       n_store: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state propagation under a time-dependent Hamiltonian.

    ``hamiltonian`` maps t to the dense Hamiltonian matrix.  RK45 steps
    from 0 to ``t_final`` at rtol 1e-8 and atol 1e-10; the ``n_store``
    uniform sample times that fall inside a step come from its dense
    output.  Returns (times, psis) with psis[k] the state at times[k] and
    psis[0] = psi0.  Norm is asserted after every accepted step but
    states are not renormalized.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    norm0 = np.linalg.norm(psi0)
    if abs(norm0 - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    sample_times = np.linspace(0.0, t_final, max(2, n_store))
    stepper = RK45(lambda t, psi: -1j * (hamiltonian(t) @ psi), 0.0, psi0,
                   t_final, rtol=1e-8, atol=1e-10)
    psis = [psi0]
    next_sample = 1
    while stepper.status == "running":
        message = stepper.step()
        if stepper.status == "failed":
            raise RuntimeError(f"integrator failed: {message}")
        norm = np.linalg.norm(stepper.y)
        if abs(norm - 1.0) > 1e-7:
            raise FloatingPointError(f"norm drifted to {norm}")
        while (next_sample < len(sample_times)
               and sample_times[next_sample] <= stepper.t + 1e-15):
            ts = sample_times[next_sample]
            psi = stepper.dense_output()(ts) if ts < stepper.t else stepper.y
            psis.append(psi)
            next_sample += 1
    return sample_times[:next_sample], np.asarray(psis)


def _screen_uniqueness(lmat: sp.spmatrix):
    if lmat.shape[0] < 2:
        return
    dense = lmat.toarray()
    svals = np.linalg.svd(dense, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    if svals[-2] < 1e-8 * scale:
        raise DegenerateSteadyStateError(
            f"two singular values vanish (sigma_2/sigma_1 = "
            f"{svals[-2] / scale:.2e}); stationary state is not unique")


def _steady_direct(me: MasterEquation) -> DensityMatrix:
    d = me.space.dim
    if d <= UNIQUENESS_SCREEN_MAX_DIM:
        _screen_uniqueness(liouvillian_matrix(me).matrix)
    # the stationary state lies in the equal-charge sector, which the
    # generator maps onto itself
    sector = _Sector(me._labels())
    lmat = _generator(me, sector)
    diagonal = sector.index(np.arange(d), np.arange(d))
    _check_trace_null(lmat, diagonal)
    # Sector row 0 is pair (0, 0) and carries d(rho_00)/dt.  Trace
    # preservation makes the diagonal rows sum to zero, so replacing this
    # one row keeps full rank and pinning tr(rho) = 1 there makes the
    # bordered system square.
    coo = lmat.tocoo()
    keep = coo.row != 0
    rows = np.concatenate([coo.row[keep], np.zeros(d, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], diagonal])
    data = np.concatenate([coo.data[keep], np.ones(d, dtype=coo.data.dtype)])
    bordered = sp.csc_matrix((data, (rows, cols)), shape=lmat.shape)
    b = np.zeros(sector.n, dtype=complex)
    b[0] = 1.0
    y = splu(bordered).solve(b)
    residual = np.max(np.abs(lmat @ y))
    scale = max(1.0, abs(lmat).max())
    if residual > 1e-8 * scale:
        raise DegenerateSteadyStateError(
            f"bordered solve left a generator residual of {residual:.2e}; "
            "the stationary state is not unique or the solve is "
            "ill-conditioned")
    m = np.zeros((d, d), dtype=complex)
    m[sector.pairs()] = y
    try:
        return _state_from_matrix(m, me.space)
    except InvalidStateError as exc:
        raise DegenerateSteadyStateError(
            f"bordered solve returned an invalid state: {exc}") from exc


def _steady_evolve(me: MasterEquation, lmat: sp.csc_matrix) -> DensityMatrix:
    d = me.space.dim
    lcsr = lmat.tocsr()
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
            return _state_from_matrix(_unvec(stepper.y, d), me.space)
    raise SteadyStateConvergenceError(
        f"generator norm still above 1e-10 after {max_steps} steps "
        f"(t = {stepper.t:.3g})")


def steady_state(me: MasterEquation, method: str = "direct") -> DensityMatrix:
    """Stationary state of a time-independent master equation.

    method="direct" solves L vec(rho) = 0 on the equal-charge sector of
    the master equation (all of rho without a charge), with the trace
    pinned through a bordered sparse LU, and scatters the solution back;
    method="evolve" relaxes the full generator from the maximally mixed
    state until its norm falls below 1e-10.  On systems small enough for
    a dense SVD the direct branch also screens the full generator for a
    degenerate stationary subspace.
    """
    if method == "direct":
        return _steady_direct(me)
    if method == "evolve":
        return _steady_evolve(me, liouvillian_matrix(me).matrix)
    raise ValueError(f"unknown method {method!r}")


def _excitations(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """Photon number and number of excited qubits of each basis state."""
    labels = np.indices(space.factor_dims).reshape(len(space.factor_dims), -1)
    return labels[-1], np.sum(labels[:-1] == 0, axis=0)  # index 0 is |e>


def model_single_qubit_laser(g: float, gamma: float, kappa: float,
                             space: HilbertSpace) -> MasterEquation:
    """Inverted-coupling laser: H = -g(a^dag sigma^dag + a sigma).

    Carries the U(1) charge N - n_e, which H conserves and each decay
    shifts by one.
    """
    if space.n_qubits != 1:
        raise ValueError("model needs exactly one qubit")
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    h = -g * (a.dag() @ sigma.dag() + a @ sigma)
    terms = (LindbladTerm(sigma, gamma), LindbladTerm(a, kappa))
    photons, excited = _excitations(space)
    return MasterEquation(hamiltonian=h, terms=terms, space=space,
                          charge=photons - excited, modulus=0)


def model_squeezed_laser_effective(dressed: DressedCoupling, gamma: float,
                                   kappa: float, c_prime: float,
                                   space: HilbertSpace) -> MasterEquation:
    """Dressed laser with engineered mode-A dissipation, in the A basis.

    H = -g_tilde (A^dag sigma^dag + A sigma) with qubit decay gamma,
    bare-mode decay kappa acting through a = A cosh r - A^dag sinh r,
    and the engineered channel L_{A, kappa * c_prime}.  The bare decay
    mixes A and A^dag, so only the parity of N_A + n_e is conserved.
    """
    if space.n_qubits != 1:
        raise ValueError("model needs exactly one qubit")
    if c_prime < 0:
        raise ValueError("c_prime must be non-negative")
    if dressed.signature < 0:
        raise ValueError("dressed mode is creation-like (eta1 > eta2); "
                         "swap the drive depths")
    sigma, _, _ = qubit_ops(space, 0)
    mode = annihilation(space)  # the A ladder in its own Fock basis
    h = -dressed.g_tilde * (mode.dag() @ sigma.dag() + mode @ sigma)
    terms = (LindbladTerm(sigma, gamma),
             LindbladTerm(dressed.bare_from_mode(space), kappa),
             LindbladTerm(mode, kappa * c_prime))
    photons, excited = _excitations(space)
    return MasterEquation(hamiltonian=h, terms=terms, space=space,
                          charge=photons + excited, modulus=2)


def model_two_qubit_full(dressed: DressedCoupling,
                         dressed_aux: DressedCoupling, gamma: float,
                         gamma_prime: float, kappa: float,
                         space: HilbertSpace) -> MasterEquation:
    """Lasing qubit plus dissipation-engineering qubit, shared mode.

    Both couplings act on the same cavity; the auxiliary qubit is driven
    with swapped depths, so its natural mode operator is the adjoint of
    the lasing one and its dressed coupling comes out rotating.  States
    are still represented in the Fock basis of the lasing mode A.  The
    conserved charge is the parity of N_A plus both qubit excitations.
    """
    if space.n_qubits != 2:
        raise ValueError("model needs exactly two qubits")
    if dressed.signature < 0:
        raise ValueError("lasing mode is creation-like (eta1 > eta2); "
                         "swap the drive depths")
    sigma, _, _ = qubit_ops(space, 0)
    sigma_aux, _, _ = qubit_ops(space, 1)
    mode = annihilation(space)  # the lasing-mode ladder is the basis
    bare = dressed.bare_from_mode(space)
    # the auxiliary mode is defined through the bare ladder, so compose
    # its Bogoliubov weights with a = u A - v A^dag; with exactly swapped
    # drive depths this collapses to A^dag and the coupling is rotating
    aux_mode = dressed_aux.u * bare + dressed_aux.v * bare.dag()
    h = (-dressed.g_tilde * (mode.dag() @ sigma.dag() + mode @ sigma)
         - dressed_aux.g_tilde * (aux_mode.dag() @ sigma_aux.dag()
                                  + aux_mode @ sigma_aux))
    terms = (LindbladTerm(sigma, gamma), LindbladTerm(sigma_aux, gamma_prime),
             LindbladTerm(bare, kappa))
    photons, excited = _excitations(space)
    return MasterEquation(hamiltonian=h, terms=terms, space=space,
                          charge=photons + excited, modulus=2)


def adiabatic_elimination_ok(gamma_prime: float, g_tilde_prime: float,
                             n_bare: float) -> bool:
    """Whether the auxiliary qubit is fast enough to eliminate.

    The threshold gamma' >= 10 g~' sqrt(<a^dag a>) is a diagnostic used
    for logging, not an enforced precondition.
    """
    return gamma_prime >= 10.0 * g_tilde_prime * math.sqrt(max(n_bare, 0.0))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state over the kept tensor factors.

    Factors are numbered qubits first, field last.  ``keep`` must be
    strictly increasing; factor order is never permuted.
    """
    space = rho.space
    nf = len(space.factor_dims)
    keep = list(keep)
    if not keep or keep != sorted(set(keep)):
        raise ValueError("keep must be a non-empty strictly increasing "
                         "sequence of factor indices")
    if keep[0] < 0 or keep[-1] >= nf:
        raise ValueError(f"factor indices must be in [0, {nf})")
    tensor = rho.matrix.reshape(space.factor_dims * 2)
    for k in reversed(range(nf)):
        if k not in keep:
            n_axes = tensor.ndim // 2
            tensor = np.trace(tensor, axis1=k, axis2=k + n_axes)
    kept_dims = [space.factor_dims[k] for k in keep]
    d_red = int(np.prod(kept_dims))
    field_kept = (nf - 1) in keep
    reduced_space = HilbertSpace(
        n_qubits=len(keep) - (1 if field_kept else 0),
        field_dim=space.field_dim if field_kept else 1)
    return DensityMatrix(reduced_space, tensor.reshape(d_red, d_red))


def _clip_spectrum(vals: np.ndarray, what: str) -> np.ndarray:
    if vals.min() < -1e-8:
        raise InvalidStateError(f"{what} has eigenvalue {vals.min():.2e} "
                                "below the -1e-8 floor")
    return np.clip(vals, 0.0, None)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    r = _as_matrix(rho, rho.space)
    s = _as_matrix(sigma, rho.space)
    for name, m in (("rho", r), ("sigma", s)):
        if np.max(np.abs(m - m.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(m))):
            raise ValueError(f"{name} is not Hermitian")
    vals, vecs = np.linalg.eigh(r)
    vals = _clip_spectrum(vals, "rho")
    sqrt_r = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = sqrt_r @ s @ sqrt_r
    ivals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    ivals = _clip_spectrum(ivals, "sqrt(rho) sigma sqrt(rho)")
    # sqrt amplifies roundoff-scale eigenvalues of near-singular inputs
    # (each stray 1e-17 contributes 3e-9), so zero them before the sum
    ivals[ivals < ivals.max() * 1e-14] = 0.0
    return float(np.sqrt(ivals).sum() ** 2)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) tr |rho - sigma|."""
    diff = _as_matrix(rho, rho.space) - _as_matrix(sigma, rho.space)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))

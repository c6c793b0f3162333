"""Finite-dimensional Hilbert spaces, operators, and states.

The composite space is an ordered tensor product of two-level systems
followed by a single truncated bosonic mode:

    |q_1> (x) ... (x) |q_k> (x) |n>,   n = 0 .. field_dim - 1.

For each qubit, index 0 is the excited state |e> and index 1 the ground
state |g>, so sigma = |g><e| lowers and sigma_z = diag(1, -1).  A flat
basis index decodes as (q_1, ..., q_k, n) with the field index varying
fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class InvalidStateError(ValueError):
    """A density matrix failed validation (trace, hermiticity, positivity)."""


# Fraction of the top Fock levels that make up the truncation edge.
_EDGE_FRACTION = 0.1


@dataclass(frozen=True)
class HilbertSpace:
    """Shape of the composite space: ``n_qubits`` two-level systems and one field mode."""

    n_qubits: int
    field_dim: int

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        if self.field_dim < 1:
            raise ValueError("field_dim must be at least 1")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits * self.field_dim

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return (2,) * self.n_qubits + (self.field_dim,)

    def basis_index(self, *labels: int) -> int:
        """Flat index of the product basis state with the given factor labels."""
        if len(labels) != self.n_qubits + 1:
            raise ValueError(f"expected {self.n_qubits + 1} labels, got {len(labels)}")
        idx = 0
        for label, d in zip(labels, self.factor_dims):
            if not 0 <= label < d:
                raise ValueError(f"label {label} out of range for factor of dim {d}")
            idx = idx * d + label
        return idx


@dataclass(frozen=True)
class Operator:
    """A linear operator on a :class:`HilbertSpace`, stored as a dense complex matrix."""

    space: HilbertSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match space dim {self.space.dim}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def dag(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def _check_same_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError(f"operator spaces differ: {self.space} vs {other.space}")


class DensityMatrix(Operator):
    """An Operator validated to be a physical state."""

    def __init__(self, space: HilbertSpace, matrix: np.ndarray):
        super().__init__(space=space, matrix=matrix)
        mat = self.matrix
        tr = np.trace(mat)
        if abs(tr - 1.0) > 1e-10:
            raise InvalidStateError(f"trace {tr} deviates from 1 by more than 1e-10")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if herm_dev > 1e-10:
            raise InvalidStateError(f"hermiticity deviation {herm_dev:.3e} exceeds 1e-10")
        eigmin = float(np.linalg.eigvalsh(mat)[0])
        if eigmin < -1e-8:
            raise InvalidStateError(f"negative eigenvalue {eigmin:.3e} below -1e-8")


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.dim))


def annihilation(space: HilbertSpace) -> Operator:
    """Field annihilation operator ``a`` embedded in the full space."""
    if space.field_dim < 2:
        raise ValueError("annihilation requires field_dim >= 2")
    a = np.diag(np.sqrt(np.arange(1, space.field_dim, dtype=float)), k=1)
    full = a
    for _ in range(space.n_qubits):
        full = np.kron(np.eye(2), full)
    return Operator(space, full)


def qubit_ops(space: HilbertSpace, which: int) -> tuple[Operator, Operator, Operator]:
    """(sigma, sigma_z, sigma_x) for qubit ``which`` (0-based), embedded in the full space.

    sigma = |g><e| with |e> at index 0.
    """
    if not 0 <= which < space.n_qubits:
        raise ValueError(f"qubit index {which} out of range for {space.n_qubits} qubits")
    sigma = np.array([[0.0, 0.0], [1.0, 0.0]])
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def embed(m):
        full = np.eye(1)
        for q in range(space.n_qubits):
            full = np.kron(full, m if q == which else np.eye(2))
        return np.kron(full, np.eye(space.field_dim))

    return (Operator(space, embed(sigma)),
            Operator(space, embed(sigma_z)),
            Operator(space, embed(sigma_x)))


def tensor(left: Operator, right: Operator) -> Operator:
    """Kronecker product, keeping the qubits-then-field factor order.

    The left factor must be purely qubit-like (field_dim 1) whenever the right
    factor contains qubits, otherwise the flat-index convention would break.
    """
    if left.space.field_dim > 1 and right.space.n_qubits > 0:
        raise ValueError("cannot tensor a field-bearing factor to the left of qubits")
    space = HilbertSpace(left.space.n_qubits + right.space.n_qubits,
                         left.space.field_dim * right.space.field_dim)
    return Operator(space, np.kron(left.matrix, right.matrix))


def matrix_exponential(op: Operator) -> Operator:
    result = scipy.linalg.expm(op.matrix)
    if not np.all(np.isfinite(result)):
        raise FloatingPointError("matrix exponential produced non-finite entries")
    return Operator(op.space, result)


def displacement(space: HilbertSpace, alpha: complex) -> Operator:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    a = annihilation(space)
    return matrix_exponential(alpha * a.dag() - np.conj(alpha) * a)


def squeeze(space: HilbertSpace, r: float, phi: float = 0.0) -> Operator:
    """S = exp[(xi a^dag^2 - xi* a^2)/2] with xi = r e^{i phi}.

    For phi = 0 and r > 0 the x = a + a^dag quadrature of S|0> is
    antisqueezed (variance e^{2r}) and p is squeezed.
    """
    a = annihilation(space)
    xi = r * np.exp(1j * phi)
    return matrix_exponential(0.5 * (xi * (a.dag() @ a.dag()) - np.conj(xi) * (a @ a)))


def phase_rotation(space: HilbertSpace, phi: float) -> Operator:
    """exp(i phi a^dag a), which maps a -> a e^{-i phi} under conjugation."""
    a = annihilation(space)
    return matrix_exponential(1j * phi * (a.dag() @ a))


def expectation(op: Operator, rho: Operator) -> complex:
    op._check_same_space(rho)
    return complex(np.trace(op.matrix @ rho.matrix))


def adjoint_action(u: Operator, op: Operator) -> Operator:
    """U op U^dag."""
    return Operator(op.space, u.matrix @ op.matrix @ u.matrix.conj().T)


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def fock_populations(rho: Operator) -> np.ndarray:
    """Field-mode populations p(n), tracing out any qubits."""
    space = rho.space
    nq = space.n_qubits
    d = space.field_dim
    diag = np.real(np.diag(rho.matrix))
    return diag.reshape((2**nq if nq else 1, d)).sum(axis=0)


def truncation_edge(rho: Operator) -> float:
    """Field population in the top tenth of the Fock ladder (at least one level).

    Summed over any qubits; zero when the ladder is too short to have an edge.
    """
    d = rho.space.field_dim
    n_edge = max(1, math.ceil(_EDGE_FRACTION * d))
    if n_edge >= d:
        return 0.0
    return float(fock_populations(rho)[d - n_edge:].sum())

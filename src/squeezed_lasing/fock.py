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


class InvalidStateError(ValueError):
    """A density matrix failed validation (trace, hermiticity, positivity)."""


# Fraction of the top Fock levels that make up the truncation edge.
_EDGE_FRACTION = 0.1

# ln 2 split as fdlibm splits it: k * _LN2_HI is exact for k < 2**20, so
# e^(-x/2) = 2^-k e^(k ln 2 - x/2) keeps every digit of its reduced argument
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# ``laguerre_functions`` looks at its mantissas every _RENORMALISE_EVERY
# steps and moves 2**_SCALE_STEP of a pair of them past _SCALE_AT into its
# scale.  A step grows a pair at most (x + delta + 3)-fold, so with
# x + delta < 2**60 they stay below 2**(512 + 8 * 61), short of overflow
_RENORMALISE_EVERY = 8
_SCALE_AT = 2.0**512
_SCALE_STEP = 512
# Fock elements below this are stored as 0: a product of three larger ones
# stays a normal number, and subnormal arithmetic is slow enough to
# quintuple the mean-field ansatz's cost at field_dim 800
FLUSH_BELOW = 2.0**-340


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

    def _check_same_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError(f"operator spaces differ: {self.space} vs {other.space}")


class DensityMatrix(Operator):
    """An Operator validated to be a physical state.

    ``blocks`` optionally gives a block label per basis state for a state
    known to be block diagonal, such as a steady state in its symmetry
    sector.  Every entry joining two blocks must then be exactly 0, and
    positivity is checked block by block instead of over the whole matrix.
    """

    def __init__(self, space: HilbertSpace, matrix: np.ndarray,
                 blocks: np.ndarray | None = None):
        super().__init__(space=space, matrix=matrix)
        mat = self.matrix
        tr = np.trace(mat)
        if abs(tr - 1.0) > 1e-10:
            raise InvalidStateError(f"trace {tr} deviates from 1 by more than 1e-10")
        herm_dev = np.max(np.abs(mat - mat.conj().T))
        if herm_dev > 1e-10:
            raise InvalidStateError(f"hermiticity deviation {herm_dev:.3e} exceeds 1e-10")
        if blocks is None:
            eigmin = float(np.linalg.eigvalsh(mat)[0])
        else:
            eigmin = _block_eigmin(mat, np.asarray(blocks))
        if eigmin < -1e-8:
            raise InvalidStateError(f"negative eigenvalue {eigmin:.3e} below -1e-8")


def _block_eigmin(mat: np.ndarray, blocks: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix that must be block
    diagonal over the given labels; one batched eigvalsh per block size."""
    if blocks.shape != (mat.shape[0],):
        raise ValueError("blocks must hold one label per basis state")
    leak = np.max(np.abs(mat[blocks[:, None] != blocks[None, :]]), initial=0.0)
    if leak != 0.0:
        raise InvalidStateError(f"entry {leak:.3e} joins two blocks")
    order = np.argsort(blocks, kind="stable")
    _, first, size = np.unique(blocks[order], return_index=True,
                               return_counts=True)
    eigmin = math.inf
    for n in sorted(set(size.tolist())):
        members = order[first[size == n][:, None] + np.arange(n)]
        stack = mat[members[:, :, None], members[:, None, :]]
        eigmin = min(eigmin, float(np.linalg.eigvalsh(stack)[:, 0].min()))
    return eigmin


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


def matrix_exponential(op: Operator) -> Operator:
    """exp(G) of an anti-Hermitian G, a unitary: with -iG = V diag(w) V^dag
    from ``eigh``, exp(G) = V diag(e^{iw}) V^dag.  A G that is not
    anti-Hermitian raises ValueError."""
    g = op.matrix
    scale = max(1.0, float(np.max(np.abs(g), initial=0.0)))
    if np.max(np.abs(g + g.conj().T), initial=0.0) > 1e-10 * scale:
        raise ValueError("matrix_exponential needs an anti-Hermitian "
                         "generator")
    w, v = np.linalg.eigh(-1j * g)
    result = (v * np.exp(1j * w)) @ v.conj().T
    if not np.all(np.isfinite(result)):
        raise FloatingPointError("matrix exponential produced non-finite entries")
    return Operator(op.space, result)


def laguerre_functions(x, delta, count: int):
    """Yield g_k for k = 0 .. count - 1, where

        g_k(x) = sqrt(k! / (k + delta)!) x^(delta/2) e^(-x/2) L_k^(delta)(x)

    with L the generalized Laguerre polynomial.  The Fock elements of a
    real displacement are these, <k + delta|D(alpha)|k> = g_k(alpha^2)
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), and so are the
    radial terms of a Wigner function's Fock-basis kernel, up to
    (-1)^k / (2 pi).  ``x`` >= 0 and the integers ``delta`` >= 0
    broadcast together, and each yielded array has their shape.

    g_0 is e^(-x/2) times the square root of the product of x / j over
    j <= delta, and then

        sqrt(k (k + delta)) g_k = (2k - 1 + delta - x) g_{k-1}
                                  - sqrt((k - 1)(k - 1 + delta)) g_{k-2}.

    Every |g_k| <= 1, but g_0 underflows where x passes about 1,400, and
    the recurrence can climb from a g_0 far below that.  So each entry is
    carried as a mantissa times 2**scale, rescaled by exact powers of 2,
    and only the yielded values may underflow.  The rescaling assumes
    x + delta < 2**60.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=np.int64)
    shape = np.broadcast_shapes(x.shape, delta.shape)
    # e^(-x/2) = 2^-k e^(k ln 2 - x/2), the reduced argument exact
    half = x / 2
    k = np.floor(half / math.log(2))
    mantissa = np.broadcast_to(np.exp((k * _LN2_HI - half) + k * _LN2_LO),
                               shape)
    scale = np.broadcast_to(-k.astype(np.int64), shape).copy()
    # x^delta / delta!, normalised every few factors so that it neither
    # overflows nor underflows on the way
    product, product_scale = np.ones(shape), np.zeros(shape, dtype=np.int64)
    for j in range(1, int(delta.max(initial=0)) + 1):
        np.multiply(product, x / j, out=product, where=delta >= j)
        if j % _RENORMALISE_EVERY == 0:
            product, exponent = np.frexp(product)
            product_scale += exponent
    product, exponent = np.frexp(product)
    product_scale += exponent
    odd = product_scale % 2
    cur = mantissa * np.sqrt(np.ldexp(product, odd))
    scale += (product_scale - odd) // 2
    yield np.ldexp(cur, scale)
    prev = np.zeros(shape)
    base = delta - x
    steps = np.arange(count).reshape((count,) + (1,) * delta.ndim)
    roots = np.sqrt(steps * (steps + delta))
    for n in range(1, count):
        prev, cur = cur, ((base + (2 * n - 1)) * cur
                          - roots[n - 1] * prev) / roots[n]
        if n % _RENORMALISE_EVERY == 0:
            big = np.maximum(np.abs(cur), np.abs(prev)) > _SCALE_AT
            if big.any():
                shift = np.where(big, _SCALE_STEP, 0)
                cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
                scale += shift
        yield np.ldexp(cur, scale)


def displacement_elements(magnitude: float, field_dim: int) -> np.ndarray:
    """<m|D(alpha)|n> for real alpha = ``magnitude`` >= 0 and m, n below
    ``field_dim``: the exact elements, not those of the exponential of
    the truncated generator.  Below the diagonal they are g_n(alpha^2)
    of ``laguerre_functions`` with delta = m - n, and
    <n|D|m> = (-1)^(m-n) <m|D|n>.  A complex alpha = |alpha| e^(i theta)
    follows as R D(|alpha|) R^dag with R = diag(e^(i theta n))."""
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError("magnitude must be finite and non-negative")
    d = field_dim
    lower = np.zeros((d, d))
    for n, g in enumerate(laguerre_functions(magnitude**2, np.arange(d), d)):
        lower[n:, n] = g[:d - n]
    lower[np.abs(lower) < FLUSH_BELOW] = 0.0
    sign = (-1.0) ** np.arange(d)
    return lower + np.triu(lower.T * np.multiply.outer(sign, sign), 1)


def expectation(op: Operator, rho: Operator) -> complex:
    op._check_same_space(rho)
    return complex(np.trace(op.matrix @ rho.matrix))


def fock_populations(rho: Operator) -> np.ndarray:
    """Field-mode populations p(n), tracing out any qubits."""
    space = rho.space
    nq = space.n_qubits
    d = space.field_dim
    diag = np.real(np.diag(rho.matrix))
    return diag.reshape((2**nq if nq else 1, d)).sum(axis=0)


def coherence_profile(rho: Operator) -> np.ndarray:
    """Entry delta (0 .. field_dim - 1) is the sum of |rho_ij| over the
    pairs of basis states whose photon numbers differ by delta, either
    way round, over any qubits."""
    space = rho.space
    q, d = 2**space.n_qubits, space.field_dim
    field = np.abs(rho.matrix).reshape(q, d, q, d).sum(axis=(0, 2))
    delta = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return np.bincount(delta.ravel(), weights=field.ravel(), minlength=d)


def truncation_edge(rho: Operator) -> float:
    """Field population in the top tenth of the Fock ladder (at least one level).

    Summed over any qubits; zero when the ladder is too short to have an edge.
    """
    d = rho.space.field_dim
    n_edge = max(1, math.ceil(_EDGE_FRACTION * d))
    if n_edge >= d:
        return 0.0
    return float(fock_populations(rho)[d - n_edge:].sum())

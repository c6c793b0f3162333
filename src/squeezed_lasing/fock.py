"""Finite-dimensional Hilbert spaces, operators, and states.

The composite space is an ordered tensor product of two-level systems
followed by a single truncated bosonic mode:

    |q_1> (x) ... (x) |q_k> (x) |n>,   n = 0 .. field_dim - 1.

For each qubit, index 0 is the excited state |e> and index 1 the ground
state |g>, so sigma = |g><e| lowers and sigma_z = diag(1, -1).  A flat
basis index decodes as (q_1, ..., q_k, n) with the field index varying
fastest.

Operators are their nonzeros: an :class:`Operator` holds the triplets
(row, column, value) of its nonzero entries, and its sums, products and
adjoint are formed from them, by a sorted join on the shared index
(``_join``) and a stable sort that sums repeated positions
(``_coalesce``).  The ladders and qubit flips of the models have
O(field_dim) nonzeros, and so do their sums and products, so a model
is built in time and memory proportional to them, never to d^2.  States
are dense: a :class:`DensityMatrix` is the one dense, validated type,
measured once, where it is built.  An observable reads only the
operator's nonzeros (``expectation``); an operator is made dense
(``Operator.matrix``) only in ``lindblad.dissipator``,
``meanfield.mf_residual`` and the RWA run's H(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[k], stops[k]), in memory
    proportional to their total length."""
    counts = stops - starts
    # the k-th entry of range r sits at starts[r] + (k - start of run r)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(shift.size) + shift


def _join(la: np.ndarray, lb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (ka, kb) with la[ka] == lb[kb], in the row-major
    order of np.nonzero(la[:, None] == lb), in memory proportional to
    their number.

    A stable sort of lb keeps equal labels in index order, so for each
    ka the run of lb's sorted labels that match la[ka] lists its kb in
    ascending order.
    """
    order = np.argsort(lb, kind="stable")
    sorted_lb = lb[order]
    lo = np.searchsorted(sorted_lb, la, side="left")
    hi = np.searchsorted(sorted_lb, la, side="right")
    return np.repeat(np.arange(la.size), hi - lo), order[_ranges(lo, hi)]


def _product(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triplets of A B from those of A and B: one per pair of
    nonzeros A_ik B_kj, joined on k; repeated positions add up."""
    ka, kb = _join(a[1], b[0])
    return a[0][ka], b[1][kb], a[2][ka] * b[2][kb]


def _coalesce(pieces: list[tuple[np.ndarray, np.ndarray]],
              n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triplets (major, minor, value) of an n x n matrix given as
    pieces of positions ``major * n + minor`` (int64) and values, with
    repeated positions summed and exact zeros dropped, sorted by
    position, indices as int32.  A stable sort keeps the repeats of a
    position in the pieces' order, which fixes the last bits of each sum.
    The list is emptied once the pieces are joined, so that each array
    is freed as soon as the next one is formed."""
    key, values = (np.concatenate(x) for x in zip(*pieces))
    pieces.clear()
    order = np.argsort(key, kind="stable")
    key = key[order]
    values = values[order]
    del order
    first = np.flatnonzero(np.concatenate([[key.size > 0],
                                           key[1:] != key[:-1]]))
    values = np.add.reduceat(values, first) if first.size else values
    keep = values != 0
    key = key[first[keep]]
    del first
    return ((key // n).astype(np.int32), (key % n).astype(np.int32),
            values[keep])


class Operator:
    """A linear operator on a :class:`HilbertSpace`, held as its nonzeros:
    ``rows``, ``cols`` and ``data``, sorted row by row, with no exact 0.

    The models' operators (ladders, qubit flips, their sums and products)
    have O(field_dim) nonzeros, so they are formed and combined as
    triplets and never as d x d arrays.  ``Operator(space, matrix)`` takes
    a dense matrix; ``matrix`` forms the dense, read-only array on demand,
    for the callers that need one.  States are dense: see
    :class:`DensityMatrix`.
    """

    def __init__(self, space: HilbertSpace, matrix: np.ndarray):
        mat = _square(space, np.asarray(matrix, dtype=complex))
        rows, cols = np.nonzero(mat)
        self.space, self.rows, self.cols, self.data = (space, rows, cols,
                                                       mat[rows, cols])

    @classmethod
    def _summed(cls, space: HilbertSpace, *pieces: tuple) -> "Operator":
        """The operator whose triplets are the pieces', repeated positions
        summed in the pieces' order and exact zeros dropped."""
        op, d = cls.__new__(cls), space.dim
        op.space, (op.rows, op.cols, op.data) = space, _coalesce(
            [(rows.astype(np.int64) * d + cols, data) for rows, cols, data in pieces], d)
        return op

    @property
    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows, self.cols, self.data

    @property
    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.space.dim,) * 2, dtype=complex)
        mat[self.rows, self.cols] = self.data
        mat.setflags(write=False)
        return mat

    def dag(self) -> "Operator":
        return self._summed(self.space, (self.cols, self.rows, self.data.conj()))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.abs((self - self.dag()).data).max(initial=0.0) <= tol)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return self._summed(self.space, _product(self.triplets, other.triplets))

    def __add__(self, other: "Operator") -> "Operator":
        self._check_same_space(other)
        return self._summed(self.space, self.triplets, other.triplets)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-1) * other

    def __mul__(self, scalar: complex) -> "Operator":
        return self._summed(self.space, (self.rows, self.cols, self.data * complex(scalar)))

    __rmul__ = __mul__

    def _check_same_space(self, other):
        if self.space != other.space:
            raise ValueError(f"operator spaces differ: {self.space} vs {other.space}")


class DensityMatrix:
    """A physical state on a :class:`HilbertSpace`, and the one dense
    type: ``matrix`` is a read-only complex copy of the input, checked
    once to be finite, of trace 1, Hermitian and positive.  The checks
    keep what they measure: ``trace_error`` is |Re tr - 1| and
    ``hermiticity_error`` is max |m_ij - conj(m_ji)|, each at most 1e-10.

    ``blocks`` optionally gives a block label per basis state for a state
    known to be block diagonal, such as a steady state in its symmetry
    sector.  Every entry joining two blocks must then be exactly 0, and
    positivity is checked block by block instead of over the whole matrix.
    """

    def __init__(self, space: HilbertSpace, matrix: np.ndarray,
                 blocks: np.ndarray | None = None):
        mat = _square(space, np.array(matrix, dtype=complex))
        mat.setflags(write=False)
        self.space, self.matrix = space, mat
        bad = np.argwhere(~np.isfinite(mat))
        if bad.size:
            raise InvalidStateError(f"non-finite entries at (row, column) "
                                    f"{bad[:4].tolist()}, {len(bad)} in all")
        tr = np.trace(mat)
        if abs(tr - 1.0) > 1e-10:
            raise InvalidStateError(f"trace {tr} deviates from 1 by more than 1e-10")
        self.trace_error = float(abs(tr.real - 1.0))
        self.hermiticity_error = hermiticity_error(mat)
        if self.hermiticity_error > 1e-10:
            raise InvalidStateError(f"hermiticity deviation {self.hermiticity_error:.3e} "
                                    "exceeds 1e-10")
        if blocks is None:
            eigmin = float(np.linalg.eigvalsh(mat)[0])
        else:
            eigmin = _block_eigmin(mat, np.asarray(blocks))
        if eigmin < -1e-8:
            raise InvalidStateError(f"negative eigenvalue {eigmin:.3e} below -1e-8")


def _square(space: HilbertSpace, mat: np.ndarray) -> np.ndarray:
    if mat.shape != (space.dim, space.dim):
        raise ValueError(
            f"matrix shape {mat.shape} does not match space dim {space.dim}")
    return mat


def hermiticity_error(mat: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)| of a square matrix, 0 for a Hermitian one,
    taken over blocks of rows of about 2^16 entries, so that it holds no
    d x d temporary."""
    step = max(1, 2**16 // len(mat))
    return float(np.max([np.abs(mat[i:i + step] - mat[:, i:i + step].conj().T).max()
                         for i in range(0, len(mat), step)], initial=0.0))


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
    """Field annihilation operator ``a`` embedded in the full space:
    a|n+1> = sqrt(n+1)|n> in every qubit configuration."""
    if space.field_dim < 2:
        raise ValueError("annihilation requires field_dim >= 2")
    d, states = space.field_dim, np.arange(space.dim)
    lower = states[states % d != d - 1]
    return Operator._summed(space, (lower, lower + 1, np.sqrt(lower % d + 1.0) + 0j))


def qubit_ops(space: HilbertSpace, which: int) -> tuple[Operator, Operator, Operator]:
    """(sigma, sigma_z, sigma_x) for qubit ``which`` (0-based), embedded in the full space.

    sigma = |g><e| with |e> at index 0.
    """
    if not 0 <= which < space.n_qubits:
        raise ValueError(f"qubit index {which} out of range for {space.n_qubits} qubits")
    # the qubit's label is the binary digit of weight dim / 2^(which + 1)
    # in a state's index, so its k-th |e> state and k-th |g> state differ
    # in that digit alone
    states = np.arange(space.dim)
    up = states // (space.dim >> (which + 1)) % 2 == 0
    sigma = Operator._summed(space, (states[~up], states[up],
                                     np.ones(space.dim // 2, dtype=complex)))
    return (sigma, Operator._summed(space, (states, states, np.where(up, 1.0, -1.0) + 0j)),
            sigma + sigma.dag())


def matrix_exponential(op: Operator) -> Operator:
    """exp(G) of an anti-Hermitian G, a unitary: with -iG = V diag(w) V^dag
    from ``eigh``, exp(G) = V diag(e^{iw}) V^dag.  A G that is not
    anti-Hermitian raises ValueError."""
    h = -1j * op.matrix
    scale = max(1.0, float(np.abs(op.data).max(initial=0.0)))
    if hermiticity_error(h) > 1e-10 * scale:
        raise ValueError("matrix_exponential needs an anti-Hermitian "
                         "generator")
    w, v = np.linalg.eigh(h)
    result = (v * np.exp(1j * w)) @ v.conj().T
    if not np.all(np.isfinite(result)):
        raise FloatingPointError("matrix exponential produced non-finite entries")
    return Operator(op.space, result)


def laguerre_functions(x, delta, count: int, chain: list | None = None):
    """Yield g_k for k = 0 .. count - 1, where

        g_k(x) = sqrt(k! / (k + delta)!) x^(delta/2) e^(-x/2) L_k^(delta)(x)

    with L the generalized Laguerre polynomial, for ``x`` >= 0 and integers
    ``delta`` >= 0 that broadcast together; the next step overwrites each
    yielded array.  ``displacement_elements`` reads these as the Fock
    elements <k + delta|D(alpha)|k> = g_k(alpha^2) of a real displacement
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), and
    ``wigner.wigner_from_density`` as its kernel, (-1)^k g_k(r^2) / (2 pi).

    g_0 is e^(-x/2) times the square root of the product of x / j over
    j <= delta, and then

        sqrt(k (k + delta)) g_k = (2k - 1 + delta - x) g_{k-1}
                                  - sqrt((k - 1)(k - 1 + delta)) g_{k-2}.

    Every |g_k| <= 1, but g_0 underflows where x passes about 1,400, and
    the recurrence can climb from a g_0 far below that.  So an entry whose
    g_0 is below about 2**-512 is carried as a mantissa times 2**scale,
    rescaled by exact powers of 2 (assuming x + delta < 2**60), and is
    multiplied by 2**scale as it is yielded, 0 below 2**-1074.  The others
    carry their own values, which stay far from subnormal numbers, so each
    is the one the scaled form gives, bit for bit.

    ``chain``, a list that the caller keeps across calls on one ``x`` with
    a scalar ``delta`` that grows, carries x^delta / delta! from each call
    to the next, which resumes it where the last one stopped.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=np.int64)
    shape = np.broadcast_shapes(x.shape, delta.shape)
    # e^(-x/2) = 2^-k e^(k ln 2 - x/2), the reduced argument exact
    half = x / 2
    k = np.floor(half / math.log(2))
    mantissa = np.exp((k * _LN2_HI - half) + k * _LN2_LO)
    # x^delta / delta!, normalised every few factors so that it neither
    # overflows nor underflows on the way; a scalar delta takes every factor
    top, first = int(delta.max(initial=0)), 1
    product, product_scale = np.ones(shape), np.zeros(shape, dtype=np.int64)
    if chain and chain[0] <= top:
        first, product[...], product_scale[...] = chain[0] + 1, *chain[1:]
    for j in range(first, top + 1):
        np.multiply(product, x / j, out=product,
                    where=delta >= j if delta.ndim else True)
        if j % _RENORMALISE_EVERY == 0:
            product, exponent = np.frexp(product)
            product_scale += exponent
    if chain is not None:
        chain[:] = top, product.copy(), product_scale.copy()
    product, exponent = np.frexp(product)
    product_scale += exponent
    cur = mantissa * np.sqrt(product * ((product_scale & 1) + 1))
    scale = (product_scale >> 1) - k.astype(np.int64)
    own = scale >= -_SCALE_STEP
    cur = np.ldexp(cur, np.where(own, scale, 0))
    factor = None if own.all() else np.ldexp(1.0, np.where(own, 0, scale))
    prev, step, out = np.zeros(shape), np.empty(shape), np.empty(shape)
    base = delta - x
    steps = np.arange(count).reshape((count,) + (1,) * delta.ndim)
    roots = np.sqrt(steps * (steps + delta))
    for n in range(count):
        if n:
            # the step in place, one operation at a time in its own order
            np.add(base, 2 * n - 1, out=step)
            step *= cur
            np.multiply(roots[n - 1], prev, out=prev)
            step -= prev
            step /= roots[n]
            prev, cur, step = cur, step, prev
        if factor is not None and n % _RENORMALISE_EVERY == 0:
            big = np.nonzero(np.maximum(np.abs(cur), np.abs(prev))
                             > _SCALE_AT)
            cur[big] = np.ldexp(cur[big], -_SCALE_STEP)
            prev[big] = np.ldexp(prev[big], -_SCALE_STEP)
            scale[big] += _SCALE_STEP
            factor[big] = np.ldexp(1.0, scale[big])
        yield cur if factor is None else np.multiply(cur, factor, out=out)


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


def expectation(op: Operator, rho: DensityMatrix) -> complex:
    """tr(op rho) = sum_k data_k rho[cols_k, rows_k], read off the
    operator's nonzeros: O(nnz) work, and no dense copy of ``op``."""
    op._check_same_space(rho)
    return complex((op.data * rho.matrix[op.cols, op.rows]).sum())


def fock_populations(rho: DensityMatrix) -> np.ndarray:
    """Field-mode populations p(n), tracing out any qubits."""
    return np.real(np.diag(rho.matrix)).reshape(-1, rho.space.field_dim).sum(axis=0)


def coherence_profile(rho: DensityMatrix) -> np.ndarray:
    """Entry delta (0 .. field_dim - 1) is the sum of |rho_ij| over the
    pairs of basis states whose photon numbers differ by delta, either
    way round, over any qubits."""
    q, d = 2**rho.space.n_qubits, rho.space.field_dim
    field = np.abs(rho.matrix).reshape(q, d, q, d).sum(axis=(0, 2))
    delta = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return np.bincount(delta.ravel(), weights=field.ravel(), minlength=d)


def truncation_edge(rho: DensityMatrix) -> float:
    """Field population in the top tenth of the Fock ladder (at least one level).

    Summed over any qubits; zero when the ladder is too short to have an edge.
    """
    d = rho.space.field_dim
    n_edge = max(1, math.ceil(_EDGE_FRACTION * d))
    if n_edge >= d:
        return 0.0
    return float(fock_populations(rho)[d - n_edge:].sum())

"""Lindblad master equations: Liouvillians and steady states.

Master equations are solved for their stationary state only, by one
direct solve (``steady_state``).  Its references live in
``tests/oracles.py``, not here: the relaxation that the tests take as
its oracle, the generator applied densely (-i[H, rho] plus every
dissipator) and the trace distance.  The one time integrator,
:func:`schrodinger_evolve`, propagates pure states (the RWA check).  It
is an in-house Dormand-Prince 5(4) loop that repeats
scipy.integrate.RK45 operation for operation, so it takes the same
steps and returns the same bits, but asks for the Hamiltonian
once per step at all of that step's stage times.

The dissipator convention carries the rate outside,

    L_{O, rate}[rho] = rate (2 O rho O^dag - O^dag O rho - rho O^dag O),

so a qubit decay term L_{sigma, gamma} relaxes <sigma_z> at 4 gamma.
Density matrices are represented in the Fock basis of the squeezed mode
A throughout; the bare-mode decay channel enters through the Bogoliubov
relation a = A cosh r - A^dag sinh r.

Vectorization is column-major: vec(A rho B) = (B^T kron A) vec(rho).
The steady-state path runs on numpy alone: generators are kept as COO
triplets (``SparseMatrix``), products of operators are formed from their
nonzeros by the sorted join ``_join``, and the bordered system is solved
by the package's own multifrontal LU (``splu``).  scipy's sparse
matrices serve only ``liouvillian_matrix``, the full complex generator
that the tests' oracles use.

Each model carries a weak symmetry (Buca & Prosen, NJP 14, 073007): a
diagonal integer charge Q over the product basis that H conserves and
each jump operator shifts by one fixed amount, modulo 2 for the Z2
parity of the squeezed models and exactly for the U(1) charge of the
plain laser.  The generator then maps the pairs (i, j) with equal charge
onto themselves, and the direct steady-state solve runs on that sector
alone, or on a band of it: the pairs whose photon numbers differ by at
most K, which the solve sizes itself (``steady_state``).  Its pairs are
numbered column by column, and the number of pair (i, j) is start[j] +
rank[i]: where column j's pairs begin, plus how many states of i's label
come before i, shifted on a band by where column j's window begins in
i's qubit configuration.  Each generator term A rho B^dag pairs the
nonzeros of A and B, found once per master equation, on equal charge,
inside the band, by a join over B's rows sorted once by label (a stable
argsort, then searchsorted and repeat), and numbers the joined pairs
from length-d arrays, so assembly takes memory in proportion to the
generator's nonzeros on the band.

The generator also maps Hermitian matrices to Hermitian matrices, so on
the sector it is a real linear map.  The direct solve factors it in real
Hermitian coordinates, numbered as the pairs: Re rho_ij for i <= j and
Im rho_ij for i > j, so the bordered system is a real sparse matrix with
as many unknowns as the sector has pairs.  Each term's complex entries
become their real pieces as soon as the term is formed, so the complex
generator is never held whole on the way.  With one label for every
state, the same numbering covers all d^2 pairs: the uniqueness screen
takes the dense SVD of that real generator, and ``liouvillian_matrix``
sums the same terms into the complex one, which the oracles use.

At resonance every model is real in the gauge |n> -> i^n |n> of the
photon number n: there -iH and each jump operator (up to a phase) are
real, so the generator commutes with complex conjugation.  The real
coordinates then split into two blocks that it never couples: Re rho_ij
with n_i - n_j even and Im rho_ij with n_i - n_j odd, which hold the
populations and so the trace, and the rest, whose right-hand side is
zero.  The direct solve finds the block of the trace row from the
assembled matrix, by a breadth-first search, and factors that alone.
Nothing declares the split: a detuning delta a^dag a stays real in the
gauge, so -i delta a^dag a is not, it joins the blocks, and the whole
sector is factored.

Each coordinate couples only to those within two photons of its pair's
photon numbers (n_i, n_j), so the block is a 2-D mesh over them, and
the solve orders it by nested dissection (A. George, SIAM J. Numer. Anal.
10, 345 (1973)) on those known points, with no graph partitioner.  Its
dense fronts pivot only inside themselves, so the order must leave no
front whose unknowns the dynamics keeps to itself: that is why the
separator of each split is taken on the high-photon side (``_dissect``),
and why the row that the trace replaces is that of the population that
leaves slowest.  That pick is factored once; only a singular front
roots it again, at the population that leaves fastest.

The solve is split, as multifrontal solvers are (Duff & Reid, ACM TOMS
9, 302 (1983)), into a symbolic plan and a numeric pass.  The plan
(``_Plan``) holds all that depends on the bordered matrix's pattern, its
mesh points and its trace row alone: those three, its lookup key; the
trace row's block and where its entries sit among the bordered
matrix's; and the block's fronts, their children, the entry order and
the front cuts, each front's boundary, and each entry's and each child's
place in its front, as int32.  It is built from one adjacency, in time
linear in each front's lists plus a sort of its boundary.  Plans are
kept in a memo of at most 32 MB (``_PLAN_BYTES``), least recently used
out, and looked up by the exact pattern (the bordered matrix's rows and
columns, in order), points and trace row, compared in full.  A sweep's
points at one field_dim and band share a pattern, so each is analysed
once.  ``splu`` is the numeric pass of the plan it is handed: front
assembly, extend-add, the dense solves and back-substitution, in the
same order on every solve, so a reused plan gives the result of a fresh
one bit for bit.  The generator is assembled for every solve: its
pattern depends on its values, because exact zeros are dropped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .dressing import DressedCoupling
from .fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    annihilation,
    coherence_profile,
    qubit_ops,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

log = logging.getLogger("squeezed_lasing.lindblad")

# Dense SVD screening for nonunique steady states is affordable only on
# small systems; larger models in scope are known to be ergodic.  Past
# it, a second stationary state inside a block that the direct solve
# leaves unfactored would no longer show up as a singular LU.
UNIQUENESS_SCREEN_MAX_DIM = 20


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


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
    shared Hilbert space, the Hamiltonian's: every jump operator must
    live on it.

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
    space: HilbertSpace = field(init=False)
    charge: np.ndarray | None = None
    modulus: int = 0
    # the nonzeros of H, then of each jump operator (``_coo``), found once
    nonzeros: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.hamiltonian, Operator):
            raise TypeError("hamiltonian must be an Operator, got "
                            f"{type(self.hamiltonian).__name__}")
        object.__setattr__(self, "space", self.hamiltonian.space)
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.jump.space != self.space:
                raise ValueError("jump operator lives on a different space")
        scale = max(1.0, float(np.max(np.abs(self.hamiltonian.matrix))))
        if not self.hamiltonian.is_hermitian(tol=1e-10 * scale):
            raise ValueError("Hamiltonian is not Hermitian")
        object.__setattr__(self, "nonzeros", tuple(
            _coo(op.matrix)
            for op in (self.hamiltonian, *(t.jump for t in self.terms))))
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

        h, *jumps = (self._reduce(charge[rows] - charge[cols])
                     for rows, cols, _ in self.nonzeros)
        if np.any(h != 0):
            raise ValueError("Hamiltonian does not conserve the charge")
        for k, shift in enumerate(jumps):
            if np.any(shift != shift[:1]):
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


def _check_trace_null(transposed_product: Callable[[np.ndarray], np.ndarray],
                      n: int, diagonal: np.ndarray, scale: float):
    """The trace functional (ones on the diagonal pairs) is a left null
    vector of the n x n generator whose transpose ``transposed_product``
    applies; ``scale`` is max(1, its largest |entry|)."""
    trace_vec = np.zeros(n)
    trace_vec[diagonal] = 1.0
    residual = np.max(np.abs(transposed_product(trace_vec)))
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
        _check_trace_null(lambda v: self.matrix.T @ v, d * d,
                          np.arange(d) * (d + 1),
                          max(1.0, np.abs(self.matrix.data).max(initial=0.0)))


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


def _coo(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, values) of the nonzeros of a dense matrix, row by
    row."""
    rows, cols = np.nonzero(matrix)
    return rows, cols, matrix[rows, cols]


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


@dataclass(frozen=True)
class SparseMatrix:
    """An n x n real sparse matrix as triplets: ``rows``, ``cols`` and
    ``data``, each position at most once."""

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    n: int

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data * x[self.cols],
                           minlength=self.n)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """The transpose's product with x."""
        return np.bincount(self.cols, weights=self.data * x[self.rows],
                           minlength=self.n)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the pattern of |A| + |A|^T: node k's
        neighbours are indices[indptr[k]:indptr[k + 1]]."""
        src = np.concatenate([self.cols, self.rows])
        dst = np.concatenate([self.rows, self.cols])
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        return indptr, dst[order]

    def submatrix(self, keep: np.ndarray) -> SparseMatrix:
        """The rows and columns ``keep``, numbered in that order; no entry
        may join a kept node to a dropped one, else ValueError."""
        index = np.full(self.n, -1, dtype=np.int32)
        index[keep] = np.arange(keep.size, dtype=np.int32)
        inside = index[self.rows] >= 0
        if np.any(inside != (index[self.cols] >= 0)):
            raise ValueError("submatrix needs the kept nodes closed under "
                             "the entries: an entry joins a kept node to a "
                             "dropped one")
        return SparseMatrix(index[self.rows[inside]],
                            index[self.cols[inside]], self.data[inside],
                            keep.size)


def _distinct(values: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, in no set order, in time
    proportional to their number.  ``stamp`` is an integer array over
    their range: each entry writes its index there, and the one entry
    per value whose index is read back is kept, so it needs no reset
    between calls."""
    at = np.arange(values.size)
    stamp[values] = at
    return values[stamp[values] == at]


def _reached(indptr: np.ndarray, indices: np.ndarray,
             start: int) -> np.ndarray:
    """The sorted nodes that a path joins to node ``start``, by a
    breadth-first search over an adjacency (``SparseMatrix.adjacency``),
    one level at a time, each in time proportional to its neighbour
    lists."""
    n = indptr.size - 1
    seen = np.zeros(n, dtype=bool)
    stamp = np.empty(n, dtype=np.intp)
    seen[start] = True
    level = np.array([start])
    while level.size:
        near = indices[_ranges(indptr[level], indptr[level + 1])]
        level = _distinct(near[~seen[near]], stamp)
        seen[level] = True
    return np.flatnonzero(seen)


class _SectorCoordinates:
    """The pairs (i, j) of basis states with equal labels and photon
    numbers at most ``band`` apart, and the real coordinates of the
    Hermitian matrices on them.

    State i holds i mod ``field_dim`` photons: the field is the last
    factor, so the states form blocks of ``field_dim``, one per
    configuration of the qubits (by default one block, photon number =
    index).  The band keeps the pairs with |n_i - n_j| <= band, and
    band >= field_dim - 1 (the default) keeps the whole sector.  Pairs
    outside the band are never formed, so a band of width K takes time
    and memory in proportion to d K, not d^2.

    The pairs are numbered column by column.  Column j lists, block by
    block, the states with j's label in the band around j, in order, so
    pair (i, j) is number start[j] + offset[j, b] + rank[i], with b the
    block of i: ``start[j]`` numbers column j's first pair, ``rank[i]``
    counts the states before i with i's label, and ``offset[j, b]``
    shifts that count to the first of them inside column j's window in
    block b (0 for the whole sector, where the number is start[j] +
    rank[i]).  ``diagonal[i]`` numbers the pair (i, i).  With one label
    for every state and the whole sector that is the vec index i + d j.
    These arrays and ``mirror`` hold int32 (n < 2^31 is checked), so the
    triplets' row and column numbers take 4 bytes each.  Coordinate k of
    pair (i, j) is Re rho_ij for i <= j and Im rho_ij for i > j.  With
    m = mirror[k] the number of the pair (j, i), rho_ij = x_k - i x_m
    above the diagonal and x_m + i x_k below it.

    Each generator term is formed from the operators' nonzeros alone: a
    sorted join pairs them on equal labels inside the band (``join``)
    and start, offset and rank number the joined pairs, so assembly
    takes memory in proportion to the generator's nonzeros on the band,
    never to d^2 pairs per term.
    """

    def __init__(self, labels: np.ndarray, field_dim: int | None = None,
                 band: int | None = None):
        d = labels.size
        self.labels = labels
        self.field_dim = d if field_dim is None else field_dim
        if band is not None and band < 1:
            raise ValueError(f"band must be at least 1, got {band}")
        self.band = self.field_dim - 1 if band is None else min(
            band, self.field_dim - 1)
        self.photons = np.arange(d) % self.field_dim
        self.block = np.arange(d) // self.field_dim
        self.blocks = d // self.field_dim
        # the states sorted by (label, index): a key per state, unique
        _, group = np.unique(labels, return_inverse=True)
        self._group_key = group.reshape(-1).astype(np.int64) * d
        self._key = self._group_key + np.arange(d)
        sorted_key = np.sort(self._key)
        # the band is symmetric, so the join, in its row-major order,
        # lists the pairs column by column
        self.cols, self.rows = self.join(np.arange(d), np.arange(d))
        self.n = self.rows.size
        if self.n >= 2**31:
            raise ValueError(f"{self.n} sector pairs overflow int32 numbers")
        self.start = np.searchsorted(self.cols, np.arange(d)).astype(np.int32)
        self.diagonal = np.flatnonzero(self.rows == self.cols).astype(np.int32)
        self.rank = (np.searchsorted(sorted_key, self._key)
                     - np.searchsorted(sorted_key, self._group_key)
                     ).astype(np.int32)
        # the first pair of each column's run inside one block
        block = self.block[self.rows]
        first = np.flatnonzero(np.concatenate(
            [[self.n > 0], (self.cols[1:] != self.cols[:-1])
             | (block[1:] != block[:-1])]))
        at = self.cols[first]
        self.offset = np.zeros((d, self.blocks), dtype=np.int32)
        self.offset[at, block[first]] = (first - self.start[at]
                                         - self.rank[self.rows[first]])
        self.mirror = self.number(self.cols, self.rows)
        # +1 below the diagonal, -1 above
        self.side = np.sign(self.rows - self.cols).astype(np.int8)

    def join(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
        """The index pairs (ka, kb) for which (a[ka], b[kb]) is a pair of
        the band, in the row-major order of ``_join(labels[a],
        labels[b])`` when b is non-decreasing, in memory proportional to
        their number.

        b's states are sorted by (label, index); a's window in each block,
        the states of its label whose photon numbers lie within the band
        of its own, is then one run of them.
        """
        key = self._key[b]
        order = np.argsort(key, kind="stable")
        key = key[order]
        fd, n = self.field_dim, self.photons[a]
        corner = self._group_key[a][:, None] + fd * np.arange(self.blocks)
        lo = np.searchsorted(key, (corner + np.maximum(n - self.band, 0)
                                   [:, None]).ravel(), side="left")
        hi = np.searchsorted(key, (corner + np.minimum(n + self.band, fd - 1)
                                   [:, None]).ravel(), side="right")
        ka = np.repeat(np.arange(a.size), self.blocks)
        return np.repeat(ka, hi - lo), order[_ranges(lo, hi)]

    def number(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The numbers of the band's pairs (i, j)."""
        return self.start[j] + self.offset[j, self.block[i]] + self.rank[i]

    def sandwiches(self, me: MasterEquation):
        """(rows, columns, values) of each generator term in turn, on the
        band's pairs, built from the operators' nonzeros; repeated
        positions add up.

        L rho = G rho + rho G^dag + sum_k 2 rate_k O_k rho O_k^dag with
        G = -iH - sum_k rate_k O_k^dag O_k.  In each sandwich A rho B^dag,
        A_ip conj(B_jq) maps pair (p, q) to pair (i, j) when i and j share
        a label; A and B shift the labels alike, which the charge checks
        guarantee, so (p, q) is then a sector pair as well.  It is kept
        when (p, q) also lies in the band: the coherences outside it are
        taken as 0.
        """
        d = self.labels.size
        eye = (np.arange(d), np.arange(d), np.ones(d, dtype=complex))
        (rows, cols, vals), *jumps = me.nonzeros
        g = [(rows, cols, -1j * vals)]
        sandwiches = []
        for term, o in zip(me.terms, jumps):
            rows, cols, vals = _product((o[1], o[0], o[2].conj()), o)
            g.append((rows, cols, -term.rate * vals))
            sandwiches.append(((o[0], o[1], (2.0 * term.rate) * o[2]), o))
        g = _coalesce([(rows.astype(np.int64) * d + cols, vals)
                       for rows, cols, vals in g], d)
        for a, b in [(g, eye), (eye, g), *sandwiches]:
            yield self._sandwich(a, b)

    def _sandwich(self, a, b):
        """The triplets of A rho B^dag on the band, from those of A and B:
        the joined pairs (i, j) are the band's, and those whose source
        (p, q) falls outside it are dropped.  The join's index arrays die
        on return, before the caller holds the triplets."""
        ka, kb = self.join(a[0], b[0])
        inside = np.abs(self.photons[a[1][ka]]
                        - self.photons[b[1][kb]]) <= self.band
        ka, kb = ka[inside], kb[inside]
        return (self.number(a[0][ka], b[0][kb]),
                self.number(a[1][ka], b[1][kb]),
                a[2][ka] * b[2][kb].conj())

    def generator(self, me: MasterEquation) -> SparseMatrix:
        """The sector generator as a real matrix: row k is the part of
        (L rho)_ij that coordinate k holds.  On a band it is the whole
        sector's generator with the rows and columns of the band's pairs
        alone.

        A complex entry c in column k (pair (p, q)) multiplies rho_pq =
        x_re + i s x_im, with s the side of (p, q) and x_re, x_im its two
        coordinates, so it contributes c to x_re and i s c to x_im; its
        row keeps the real or the imaginary part of each.  Each sandwich
        becomes its two real pieces, exact zeros dropped, as soon as it
        is formed.  The pieces are joined once, every x_re piece before
        every x_im piece, and repeated positions are summed in that
        order, which fixes the last bits of the sums.
        """
        on_re, on_im = [], []

        def piece(rows, cols, data):
            # column-major positions
            keep = data != 0
            return cols[keep].astype(np.int64) * self.n + rows[keep], data[keep]

        for rows, cols, vals in self.sandwiches(me):
            below = self.side[rows] > 0
            s = self.side[cols]
            mirror = self.mirror[cols]
            on_re.append(piece(rows, np.where(s > 0, mirror, cols),
                               np.where(below, vals.imag, vals.real)))
            # 0 when p = q
            on_im.append(piece(rows, np.where(s > 0, cols, mirror),
                               s * np.where(below, vals.real, -vals.imag)))
        pieces = on_re + on_im
        # the pieces would otherwise stay alive under the summation
        del on_re, on_im
        cols, rows, data = _coalesce(pieces, self.n)
        return SparseMatrix(rows, cols, data, self.n)

    def hermitian(self, x: np.ndarray) -> np.ndarray:
        """The d x d matrix rho, 0 off the sector, from its real
        coordinates x."""
        re = np.where(self.side > 0, x[self.mirror], x)
        im = np.where(self.side > 0, x, -x[self.mirror])
        im[self.side == 0] = 0.0
        m = np.zeros((self.labels.size,) * 2, dtype=complex)
        m[self.rows, self.cols] = re + 1j * im
        return m

    def profile(self, x: np.ndarray) -> np.ndarray:
        """``fock.coherence_profile`` of the matrix with real coordinates
        x, each |rho_ij| read from the pair's two (or one, on the diagonal)."""
        magnitude = np.hypot(x, x[self.mirror])
        magnitude[self.diagonal] = np.abs(x[self.diagonal])
        delta = np.abs(self.photons[self.rows] - self.photons[self.cols])
        return np.bincount(delta, weights=magnitude, minlength=self.field_dim)


def liouvillian_matrix(me: MasterEquation) -> Liouvillian:
    """Sparse matrix L with vec(-i[H, rho] + sum of dissipators) =
    L vec(rho), over all d^2 entries whatever the charge.

    Only the tests call it, and it needs scipy, which the ``test`` extra
    installs.  It stays here because the benchmark's tracer wraps it by
    name; it moves to ``tests/oracles.py`` with ROADMAP item 10 (the
    tracer's wrappers deleted) or item 2 (the benchmark change).
    """
    import scipy.sparse as sp

    d = me.space.dim
    coords = _SectorCoordinates(np.zeros(d, dtype=int))
    rows, cols, vals = (np.concatenate(x)
                        for x in zip(*coords.sandwiches(me)))
    return Liouvillian(matrix=sp.csc_matrix((vals, (rows, cols)),
                                            shape=(d * d, d * d)),
                       space=me.space)


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 19
# (1980)) with Shampine's quartic dense output, coefficient for
# coefficient as in scipy.integrate.RK45: nodes, stage weights, the
# fifth-order weights, the embedded error weights and the interpolant.
# The weights that meet the complex stages in np.dot are stored complex,
# the cast np.dot would otherwise make on every call.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]], dtype=complex)
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84],
                 dtype=complex)
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40], dtype=complex)
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# step-size control: safety factor, shrink/growth limits, and the
# exponent -1/(q + 1) of the order-4 error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 5
_RTOL, _ATOL = 1e-8, 1e-10


def _rms(x: np.ndarray) -> float:
    """sqrt(Re x . Re x + Im x . Im x) / sqrt(x.size) for a complex
    vector x: np.linalg.norm(x) / sqrt(x.size), operation for operation."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im)) / x.size ** 0.5


def schrodinger_evolve(hamiltonian: Callable[[np.ndarray], np.ndarray]
                       | np.ndarray,
                       psi0: np.ndarray, t_final: float, *,
                       n_store: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state propagation under a time-dependent Hamiltonian.

    ``hamiltonian`` is either a (d, d) array, for a time-independent
    Hamiltonian, or a batched callable that maps a 1-d array of n times
    to the (n, d, d) stack of Hamiltonian matrices.  The explicit
    Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
    19 (1980)) steps from 0 to ``t_final`` at rtol 1e-8 and atol 1e-10,
    with the initial step of Hairer, Norsett & Wanner (Solving ODEs I,
    Sec. II.4), an RMS error norm against atol + max(|y|, |y_new|) rtol
    and the step controller of scipy.integrate.RK45, operation for
    operation, so it takes RK45's steps and gives its bits.  Each
    attempted step asks for the Hamiltonian once, at its five distinct
    stage times t + c h; the sixth stage and the derivative carried into
    the next step (first same as last) share H(t + h).  The ``n_store``
    uniform sample times that fall inside a step come from its quartic
    dense output.  Returns (times, psis) with psis[k] the state at
    times[k] and psis[0] = psi0; ``t_final = 0`` gives ``n_store`` copies
    of psi0 at t = 0.  Norm is asserted after every accepted step but
    states are not renormalized; a step that would have to shrink below
    10 ulp of t raises RuntimeError.  Neither ``psi0`` nor a stack that
    the Hamiltonian returns is written.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    norm0 = np.linalg.norm(psi0)
    if abs(norm0 - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be non-negative and finite, "
                         f"got {t_final!r}")
    sample_times = np.linspace(0.0, t_final, max(2, n_store))
    if t_final == 0:
        return sample_times, np.repeat(psi0[np.newaxis], sample_times.size, 0)
    d = psi0.size
    if not callable(hamiltonian):
        matrix = np.asarray(hamiltonian)

        def hamiltonian(times: np.ndarray) -> np.ndarray:
            return np.broadcast_to(matrix, times.shape + matrix.shape)

    def generators(times: np.ndarray) -> np.ndarray:
        """-i H at each of the given times."""
        stack = hamiltonian(times)
        if stack.shape != (times.size, d, d):
            raise ValueError(f"hamiltonian gave shape {stack.shape} for "
                             f"{times.size} times; expected "
                             f"({times.size}, {d}, {d})")
        return -1j * stack

    t, y = 0.0, psi0
    f = np.dot(generators(np.zeros(1))[0], y)
    # initial step: Hairer, Norsett & Wanner, Sec. II.4, for order 4
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_final)
    f1 = np.dot(generators(np.array([t + h0]))[0], y + h0 * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_final)

    K = np.empty((7, d), dtype=complex)
    # stage s combines the stages before it (scipy's K[:s].T with A[s, :s])
    # into K[s]; these views, and the buffers below, serve every step
    combos = [(K[:s].T, _DP_A[s, :s], K[s]) for s in range(1, 6)]
    nodes, stage_sum, error_sum = _DP_C[1:], K[:-1].T, K.T
    dy, error = np.empty(d, dtype=complex), np.empty(d, dtype=complex)
    # h, the tolerances and the error scale are held as the operations
    # below cast them, h as (h, 0) and the scale as (scale, 0), so no
    # operation converts a Python scalar or casts an array anew
    step = np.empty((), dtype=complex)
    rtol, atol = np.array(_RTOL), np.array(_ATOL)
    complex_scale = np.zeros(d, dtype=complex)
    scale = complex_scale.real
    abs_y, abs_new = np.abs(y), np.empty(d)
    psis = [psi0]
    next_sample = 1
    while t < t_final:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # a NaN step (from a non-finite Hamiltonian) fails here too
            if not h_abs >= min_step:
                raise RuntimeError("integrator failed: Required step size is "
                                   "less than spacing between numbers.")
            t_new = min(t + h_abs, t_final)
            h = t_new - t
            h_abs = abs(h)
            step[()] = h
            stages = generators(t + nodes * h)
            K[0] = f
            # scipy's y + dot(K[:s].T, A[s, :s]) h, one operation at a time
            for stage, (prefix, a, k) in zip(stages, combos):
                np.dot(prefix, a, out=dy)
                dy *= step
                dy += y
                np.dot(stage, dy, out=k)
            np.dot(stage_sum, _DP_B, out=dy)
            dy *= step
            y_new = y + dy
            f_new = np.dot(stages[4], y_new)
            K[6] = f_new
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            np.dot(error_sum, _DP_E, out=error)
            error *= step
            error /= complex_scale
            error_norm = _rms(error)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        abs_y, abs_new = abs_new, abs_y
        norm = math.sqrt(np.vdot(y, y).real)
        if abs(norm - 1.0) > 1e-7:
            raise FloatingPointError(f"norm drifted to {norm}")
        q = None
        while (next_sample < len(sample_times)
               and sample_times[next_sample] <= t + 1e-15):
            ts = sample_times[next_sample]
            if ts < t:
                if q is None:
                    q = K.T.dot(_DP_P)
                x = (ts - t_old) / (t - t_old)
                psis.append((t - t_old) * np.dot(q, np.cumprod(np.tile(x, 4)))
                            + y_old)
            else:
                psis.append(y)
            next_sample += 1
    return sample_times[:next_sample], np.asarray(psis)


def _screen_uniqueness(me: MasterEquation):
    """Raise if the full generator, dense, has two vanishing singular
    values.

    The generator is the real one in Hermitian coordinates, with one
    label for every state, so over all d^2 coordinates: its null space
    has dimension 2 or more exactly when two independent stationary
    density matrices exist, as the complex generator's does: that one is
    spanned by Hermitian matrices, since L(rho^dag) = (L rho)^dag.

    The rule is scale-free: the second smallest singular value sigma_2
    vanishes when it is within the roundoff of the SVD itself, n eps
    sigma_1 for the n x n generator (n = d^2).  A ratio sigma_2/sigma_1
    far below 1 is no second null vector by itself: it measures the
    spread of the rates, which at squeezing r is about 1/cosh^2 r
    (1e-9 at r = 10).
    """
    d = me.space.dim
    lmat = _SectorCoordinates(np.zeros(d, dtype=int)).generator(me)
    dense = np.zeros((d * d, d * d))
    dense[lmat.rows, lmat.cols] = lmat.data
    svals = np.linalg.svd(dense, compute_uv=False)
    roundoff = d * d * np.finfo(float).eps * svals[0]
    if svals[-2] <= roundoff:
        raise DegenerateSteadyStateError(
            f"two singular values vanish (sigma_2 = {svals[-2]:.2e}, within "
            f"the roundoff n eps sigma_1 = {roundoff:.2e}); stationary "
            "state is not unique")


# Nested-dissection leaves: a part of at most this many unknowns is one
# front.  Pivoting stays inside a front, so small fronts lose digits
# (leaves of 8 lost up to 7e-13 relative against SuperLU on small random
# models, leaves of 24-96 at most 4e-14); time and stored entries move
# little between 32 and 192.  A block of at most 2 _LEAF unknowns is not
# dissected at all: split into fronts of this size, a two_qubit_full
# block at field_dim 5 landed 1.4e-12 from the exact state in trace
# distance, and 4e-15 as one front.
_LEAF = 96


def _dissect(points: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
             nodes: np.ndarray) -> tuple[list[np.ndarray], list[int]]:
    """Nested dissection of ``nodes`` by their mesh ``points``: the fronts
    in elimination order (children first) and each front's parent (-1 at
    a root).

    A part of more than ``_LEAF`` nodes is split at the median of its
    longer axis; its separator is the high-side nodes with a low-side
    neighbour in the adjacency (``SparseMatrix.adjacency``), so the two
    sides left are apart and are dissected in turn.  The low side keeps
    the nodes that reach into the separator.  In a laser, pumped up the
    photon ladder through the coherences, those are how a low-photon
    part loses its population; without them (a low-side separator) the
    part keeps it to itself, and its pivot block is singular to
    roundoff.
    """
    fronts: list[np.ndarray] = []
    parents: list[int] = []
    low_side = np.zeros(indptr.size - 1, dtype=bool)

    def front(pivots: np.ndarray, children: list[int]) -> list[int]:
        for child in children:
            parents[child] = len(fronts)
        fronts.append(pivots)
        parents.append(-1)
        return [len(fronts) - 1]

    def split(part: np.ndarray) -> list[int]:
        """The roots of the fronts that eliminate ``part``."""
        if part.size == 0:
            return []
        at = points[part]
        lo, hi = at.min(axis=0), at.max(axis=0)
        axis = int(np.argmax(hi - lo))
        if part.size <= _LEAF or hi[axis] == lo[axis]:
            return front(part, [])
        x = at[:, axis]
        cut = max(np.partition(x, x.size // 2)[x.size // 2], lo[axis] + 1)
        low, high = part[x < cut], part[x >= cut]
        low_side[low] = True
        starts, stops = indptr[high], indptr[high + 1]
        owner = np.repeat(np.arange(high.size), stops - starts)
        hits = owner[low_side[indices[_ranges(starts, stops)]]]
        low_side[low] = False
        touches = np.zeros(high.size, dtype=bool)
        touches[hits] = True
        roots = split(low) + split(high[~touches])
        return front(high[touches], roots) if touches.any() else roots

    split(nodes)
    return fronts, parents


@dataclass(frozen=True)
class Factorisation:
    """A multifrontal solve's result: the solution and the number of
    entries it stored for back-substitution."""

    solution: np.ndarray
    nnz: int


def _narrow(index: np.ndarray, bound: int) -> np.ndarray:
    """Integers in [0, ``bound``) as int16 where that holds them, else as
    int32, copied only to change type: a plan keeps its patterns, points
    and orders so, at 2 bytes an index on every desk pattern."""
    return index.astype(np.int16 if bound <= 2**15 else np.int32, copy=False)


class _Plan:
    """What a bordered solve reads from its matrix's pattern alone, made
    from one adjacency.

    It is looked up by that pattern and its mesh points (``rows``,
    ``cols``, ``points``) and the trace row ``root``.  Only the
    coordinates that the trace row reaches can be nonzero: the rest form
    blocks with a zero right-hand side, so the solve runs on the block of
    the trace row alone (``live``, root first), whose entries sit at
    ``take`` among the bordered matrix's, in the pattern ``block_rows``,
    ``block_cols``; the others stay 0.

    The block's unknown 0 is a root front of its own.  The rest are
    ordered by ``_dissect`` on the block's adjacency, or are one front
    when there are at most 2 ``_LEAF`` of them.  The fronts, children
    first, are cut at ``steps`` in the order ``perm``; ``children`` lists
    each front's.  A front's boundary (``boundaries``, as sorted places
    in that order) is the later unknowns that its pivots or its
    children's boundaries touch, found in time proportional to those
    lists (``_distinct``) and sorted; one position map then numbers the
    pivots and the boundary inside the front.  The entries are listed
    front by front (``order``), each at the front that eliminates its
    earlier endpoint, and ``at`` holds each entry's flat place in its
    front, ``child_at`` each child's boundary rows in its parent, as
    int32 (a front past int32 places would have over 46,000 unknowns,
    17 GB dense).
    """

    def __init__(self, bordered: SparseMatrix, points: np.ndarray,
                 root: int):
        indptr, indices = bordered.adjacency()
        live = _reached(indptr, indices, root)
        live = np.concatenate([[root], live[live != root]])
        # the block of the entries' numbers carries their places as its data
        block = SparseMatrix(bordered.rows, bordered.cols,
                             np.arange(bordered.rows.size),
                             bordered.n).submatrix(live)
        index = np.empty(bordered.n, dtype=np.int32)
        index[live] = np.arange(live.size, dtype=np.int32)
        starts, stops = indptr[live], indptr[live + 1]
        block_indptr = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(stops - starts, out=block_indptr[1:])
        block_indices = index[indices[_ranges(starts, stops)]]
        n = live.size
        self.block_rows = _narrow(block.rows, n)
        self.block_cols = _narrow(block.cols, n)
        if n > 2 * _LEAF:
            fronts, parents = _dissect(points[live], block_indptr,
                                       block_indices, np.arange(1, n))
        else:
            fronts, parents = ([np.arange(1, n)], [-1]) if n > 1 else ([], [])
        fronts.append(np.zeros(1, dtype=np.int64))
        parents = [len(fronts) - 1 if p < 0 else p for p in parents] + [-1]
        self.children: list[list[int]] = [[] for _ in fronts]
        for f, p in enumerate(parents[:-1]):
            self.children[p].append(f)
        perm = np.concatenate(fronts)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        starts = np.cumsum([0] + [f.size for f in fronts]).tolist()
        # each entry goes to the front of its earlier endpoint
        r, c = pos[block.rows], pos[block.cols]
        first = np.minimum(r, c)
        order = np.argsort(first, kind="stable")
        r, c = r[order], c[order]
        cuts = np.searchsorted(first[order], starts).tolist()
        stamp = np.empty(n, dtype=np.intp)
        local = np.empty(n, dtype=np.int64)
        self.at = np.empty(order.size, dtype=np.int32)
        self.boundaries: list[np.ndarray] = []
        self.child_at: list[list[np.ndarray]] = []
        # (first pivot, last pivot + 1, front size, first entry, last
        # entry + 1) per front
        self.steps: list[tuple[int, int, int, int, int]] = []
        for f, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            pivots = perm[lo:hi]
            near = np.concatenate(
                [pos[block_indices[_ranges(block_indptr[pivots],
                                           block_indptr[pivots + 1])]],
                 *(self.boundaries[k] for k in self.children[f])])
            bound = np.sort(_distinct(near[near >= hi], stamp))
            p, m = hi - lo, hi - lo + bound.size
            local[lo:hi] = np.arange(p)
            local[bound] = np.arange(p, m)
            e0, e1 = cuts[f], cuts[f + 1]
            self.at[e0:e1] = local[r[e0:e1]] * (m + 1) + local[c[e0:e1]]
            self.child_at.append([local[self.boundaries[k]].astype(np.int32)
                                  for k in self.children[f]])
            self.boundaries.append(_narrow(bound, n))
            self.steps.append((lo, hi, m, e0, e1))
        self.perm = _narrow(perm, n)
        self.order = order.astype(np.int32)
        # the lookup key and the block's place, made after the front
        # analysis: made before it, they raised perfbench two_qubit's peak
        # RSS in every pair measured (heap layout, not live memory)
        self.rows = _narrow(bordered.rows, bordered.n)
        self.cols = _narrow(bordered.cols, bordered.n)
        self.points = _narrow(points, points.max(initial=0) + 1)
        self.root = root
        self.live = _narrow(live, bordered.n)
        self.take = block.data.astype(np.int32)

    def nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self.rows, self.cols, self.points, self.live, self.take,
            self.block_rows, self.block_cols, self.perm, self.order, self.at,
            *self.boundaries, *(at for ats in self.child_at for at in ats)))

    def fits(self, matrix: SparseMatrix, points: np.ndarray,
             root: int) -> bool:
        """Whether this is the plan of ``matrix``'s pattern at ``points``
        and ``root``, compared in full."""
        return (root == self.root and np.array_equal(matrix.rows, self.rows)
                and np.array_equal(matrix.cols, self.cols)
                and np.array_equal(points, self.points))


# The plans kept for reuse, least recently used first, and the bytes they
# may hold together.  A sweep's points at one field_dim and band share a
# pattern: desk squeezed_sweep solves 2 patterns 5 times, paper-2013
# fidelity_sweep 3 patterns 20 times.  A plan takes 13-20 bytes per
# entry of the bordered matrix: 0.35-1.75 MB at desk size, 27 MB for the
# fd-500 band of 66 at paper-2013 C' = 0.01.  32 MB keep every pattern of
# a desk or fd-60 sweep, or that one fd-500 plan, and a new large pattern
# drops the old ones rather than stacking on them: kept, the fd-500
# panels' earlier plans raised that run's peak from 359 to 394 MB.
_PLAN_BYTES = 32 * 2**20
_plans: list[_Plan] = []


def _plan(bordered: SparseMatrix, points: np.ndarray,
          root: int) -> tuple[_Plan, bool]:
    """The memo's plan for this exact pattern, points and root, made now
    if there is none, and whether it was reused.  It becomes the most
    recently used, and the least recently used go while the memo holds
    more than ``_PLAN_BYTES``; the newest always stays, since it is the
    one that a sweep's next point at this field_dim and band reuses."""
    for k, plan in enumerate(_plans):
        if plan.fits(bordered, points, root):
            _plans.append(_plans.pop(k))
            return plan, True
    plan = _Plan(bordered, points, root)
    _plans.append(plan)
    held = [p.nbytes() for p in _plans]
    while len(held) > 1 and sum(held) > _PLAN_BYTES:
        del _plans[0], held[0]
    return plan, False


def splu(matrix: SparseMatrix, rhs: np.ndarray,
         plan: _Plan) -> Factorisation:
    """Solve matrix x = rhs, the trace row's block of a bordered matrix
    (``_Plan``), by a multifrontal LU in the plan's nested-dissection
    order, on numpy alone.  The steady-state solve looks it up here.

    This is the numeric pass: the order, the fronts and their boundaries
    and where each entry lands are the plan's.  Each entry is assembled
    at the front that eliminates its earlier endpoint, and each child's
    Schur complement is extend-added into its parent.  A front with
    pivots P and later unknowns B (its boundary) then runs one
    np.linalg.solve of its pivot block against [coupling to B |
    right-hand side], with partial pivoting inside the block, keeps that
    result for the back-substitution, and passes the Schur complement of
    B and its right-hand side on.  A singular pivot block raises
    DegenerateSteadyStateError.  Every solve on one plan runs these
    operations in the same order, so a reused plan gives the result of a
    fresh one bit for bit.
    """
    v = matrix.data[plan.order]
    b = rhs[plan.perm]
    updates, kept = {}, []
    for f, (lo, hi, m, e0, e1) in enumerate(plan.steps):
        p = hi - lo
        front = np.zeros((m, m + 1))
        flat = front.reshape(-1)
        flat[plan.at[e0:e1]] = v[e0:e1]
        front[:p, m] = b[lo:hi]
        for k, at in zip(plan.children[f], plan.child_at[f]):
            # at the child boundary's rows and its columns plus the
            # right-hand side, through flat indices: faster than np.ix_
            flat[(at[:, None] * (m + 1) + np.append(at, m)).ravel()] += (
                updates.pop(k).reshape(-1))
        try:
            x = np.linalg.solve(front[:p, :p], front[:p, p:])
        except np.linalg.LinAlgError as exc:
            raise DegenerateSteadyStateError(
                f"multifrontal solve met a singular pivot block of "
                f"{p} unknowns") from exc
        updates[f] = front[p:, p:] - front[p:, :p] @ x
        kept.append(x)
    y = np.zeros(matrix.n)
    for (lo, hi, *_), x, bound in zip(reversed(plan.steps), reversed(kept),
                                      reversed(plan.boundaries)):
        y[lo:hi] = x[:, -1] - x[:, :-1] @ y[bound]
    solution = np.empty(matrix.n)
    solution[plan.perm] = y
    return Factorisation(solution, sum(x.size for x in kept))


def _bordered_solve(me: MasterEquation, band: int | None):
    """The band's coordinates (``_SectorCoordinates``), its sector
    generator, the generator's scale (its largest entry, at least 1), the
    solution of its bordered system with the trace pinned to 1, in those
    coordinates, unchecked (``steady_state`` checks it), and the
    solution's coherence profile.

    The generator is assembled anew, because its pattern depends on its
    values (exact zeros are dropped).  Everything that depends on the
    bordered matrix's pattern alone, with the mesh points and the trace
    row, is a plan (``_Plan``): the trace row's block and where its
    entries sit, and the block's nested dissection and fronts.  Plans
    are kept in a memo of at most ``_PLAN_BYTES``, least recently used
    out, and looked up by that exact pattern, points and root, compared
    in full.  So a sweep analyses each field_dim and band once, and each
    later solve on it runs the numeric pass (``splu``) alone, bit for bit
    as a fresh analysis would.  A call factors once, and a second time
    only after a singular front.
    """
    # the stationary state lies in the equal-charge sector, which the
    # generator maps onto itself, and is Hermitian
    coords = _SectorCoordinates(me._labels(), me.space.field_dim, band)
    lmat = coords.generator(me)
    scale = max(1.0, np.abs(lmat.data).max(initial=0.0))
    # the diagonal coordinates are the populations, so they carry the trace
    _check_trace_null(lmat.rmatvec, coords.n, coords.diagonal, scale)
    # Trace preservation makes the population rows sum to zero, so
    # replacing one of them keeps full rank, and pinning tr(rho) = 1 there
    # makes the bordered system square.  The solve pivots on the replaced
    # row's population (the root) last, so that must be one the steady
    # state holds: take the one that leaves slowest, |L_kk| least.  A dark
    # state leaves not at all: its column is zero, so only the trace row
    # can pivot on it.  A population that leaves slowly may still be one
    # the state does not hold, such as |g,0> of a laser pumped up to the
    # truncation.  Where a front then turns out singular, the solve is
    # rooted once more, at the population that leaves fastest; a zero
    # column keeps its own row.  A root that the state barely holds but
    # whose fronts are regular needs no second solve: the checks of the
    # kept pass (``_checked_state``) judge its solution as any other.
    outflow = np.zeros(coords.n)
    on_diagonal = lmat.rows == lmat.cols
    outflow[lmat.rows[on_diagonal]] = np.abs(lmat.data[on_diagonal])
    order = coords.diagonal[np.argsort(outflow[coords.diagonal],
                                       kind="stable")]
    try:
        y = _rooted_solve(coords, lmat, int(order[0]))
    except DegenerateSteadyStateError:
        if not np.any(lmat.cols == order[0]):
            raise
        y = _rooted_solve(coords, lmat, int(order[-1]))
    return coords, lmat, scale, y, coords.profile(y)


def _rooted_solve(coords: _SectorCoordinates, lmat: SparseMatrix,
                  root: int) -> np.ndarray:
    """The solution, in ``coords``, of the generator's bordered system
    with population ``root``'s row replaced by the trace row."""
    d = coords.diagonal.size
    keep = lmat.rows != root
    bordered = SparseMatrix(
        np.concatenate([np.full(d, root, dtype=np.int32), lmat.rows[keep]]),
        np.concatenate([coords.diagonal, lmat.cols[keep]]),
        np.concatenate([np.ones(d), lmat.data[keep]]), coords.n)
    # each coordinate sits at its pair's photon numbers, folded so that
    # both coordinates of a pair share a point
    ni, nj = coords.photons[coords.rows], coords.photons[coords.cols]
    points = np.stack([np.minimum(ni, nj), np.maximum(ni, nj)], axis=1,
                      dtype=np.int32)
    plan, reused = _plan(bordered, points, root)
    b = np.zeros(plan.live.size)
    b[0] = 1.0
    block = SparseMatrix(plan.block_rows, plan.block_cols,
                         bordered.data[plan.take], plan.live.size)
    y = np.zeros(coords.n)
    y[plan.live] = splu(block, b, plan).solution
    log.info("field_dim %d, band %d: %d unknowns factored, pattern %s",
             coords.field_dim, coords.band, plan.live.size,
             "reused" if reused else "analysed")
    return y


# The band rule.  A steady state solved on a band of K is kept once its
# band edge, the sum of |rho_ij| at photon distance K - 1 and K, is below
# _BAND_TOL; else its band grows _BAND_GROWTH times.  A predicted start is
# never narrower than _MIN_BAND, so every field_dim up to _MIN_BAND + 1
# solves its whole sector.  A start whose solve would cost _PROBE_RATIO
# times one on _MIN_BAND or more is first probed on _MIN_BAND.
_BAND_TOL = 1e-12
_MIN_BAND = 16
_PROBE_RATIO = 4
_BAND_GROWTH = 1.5


def predicted_band(field_dim: int, predict: Callable[[], Operator]) -> int:
    """The narrowest band K >= _MIN_BAND at which ``predict()``, a state
    whose coherences fall off as the stationary one's, has its band edge
    below _BAND_TOL, else field_dim - 1; ``predict`` is called only when
    _MIN_BAND < field_dim - 1."""
    if field_dim - 1 <= _MIN_BAND:
        return field_dim - 1
    profile = coherence_profile(predict())
    # the edge of each band K from _MIN_BAND to field_dim - 1
    edges = profile[_MIN_BAND - 1:-1] + profile[_MIN_BAND:]
    passing = np.flatnonzero(edges < _BAND_TOL)
    return _MIN_BAND + int(passing[0]) if passing.size else field_dim - 1


def _probed_width(profile: np.ndarray, whole: int) -> int:
    """The band at which the profile of the probe, the bordered solve on
    _MIN_BAND, extrapolated geometrically from its band edges at
    _MIN_BAND / 2 and _MIN_BAND - 2, falls two decades below _BAND_TOL,
    else the whole sector.  The far coherences can fall slower (desk
    C' = 0.01: 0.54 per photon at distance 8-14, 0.64 at 60-70)."""
    lo, hi = _MIN_BAND // 2, _MIN_BAND - 2
    edge_lo, edge_hi = (profile[k - 1] + profile[k] for k in (lo, hi))
    target = 1e-2 * _BAND_TOL
    if edge_hi <= target:
        return _MIN_BAND
    if not edge_hi < edge_lo:
        return whole
    steps = (hi - lo) * math.log(target / edge_hi) / math.log(edge_hi
                                                              / edge_lo)
    return max(_MIN_BAND, hi + math.ceil(steps))


def _checked_state(space: HilbertSpace, coords: _SectorCoordinates,
                   lmat: SparseMatrix, scale: float,
                   y: np.ndarray) -> DensityMatrix:
    """The normalised state of a bordered solution y, its generator
    residual and positivity checked; else DegenerateSteadyStateError."""
    residual = np.max(np.abs(lmat @ y))
    if residual > 1e-8 * scale:
        raise DegenerateSteadyStateError(
            f"bordered solve left a generator residual of {residual:.2e}; "
            "the stationary state is not unique or the solve is "
            "ill-conditioned")
    m = coords.hermitian(y)
    try:
        return DensityMatrix(space, m / np.trace(m).real,
                             blocks=coords.labels)
    except InvalidStateError as exc:
        raise DegenerateSteadyStateError(
            f"bordered solve returned an invalid state: {exc}") from exc


def steady_state(me: MasterEquation,
                 band: int | None = None) -> DensityMatrix:
    """Stationary state of a time-independent master equation.

    Solves L vec(rho) = 0 on the equal-charge sector of the master
    equation (all of rho without a charge), in real Hermitian
    coordinates, with the trace pinned through a bordered multifrontal LU
    (``splu``), and scatters the solution back.  The LU factors only the
    connected block of the bordered matrix that holds the trace row,
    about half the sector at resonance by the i^n gauge symmetry (module
    docstring), and all of it once a detuning couples the blocks; the
    other coordinates are 0.

    ``band`` = K is the first band tried, sized by the band rule above.
    A band of K keeps only the pairs whose photon numbers differ by at
    most K (``_SectorCoordinates``): coherences further apart are taken
    as 0, and the LU costs O(field_dim K).  A start that holds
    _PROBE_RATIO times the pairs of _MIN_BAND or more is narrowed to the
    probe's band (``_probed_width``) where that is narrower, and a probe
    that picks _MIN_BAND is kept as that band's pass.  Each pass reads
    its band edge once, from its coordinates, and the band grows while
    the edge is _BAND_TOL or more or the pass fails its checks.  The
    whole sector, K >= field_dim - 1, is kept whatever its edge; None
    solves it with no probe.  Each LU logs, at INFO, its field_dim, band
    and unknowns, and each call the band kept, its edge and its growths.

    Only the kept pass is checked: its ||L rho|| residual on the band's
    generator, then its positivity block by block over the sector.  On
    systems small enough for a dense SVD the full generator is also
    screened for a degenerate stationary subspace.
    """
    if me.space.dim <= UNIQUENESS_SCREEN_MAX_DIM:
        _screen_uniqueness(me)
    fd = me.space.field_dim
    whole = fd - 1

    def pairs(k: int) -> int:
        # the pairs of photon numbers below fd at most k apart
        return fd * (2 * k + 1) - k * (k + 1)

    solved, grown, probe = None, 0, band is not None
    band = whole if band is None else min(band, whole)
    if (probe and band > _MIN_BAND
            and pairs(band) >= _PROBE_RATIO * pairs(_MIN_BAND)):
        solved = _bordered_solve(me, _MIN_BAND)
        band = min(band, _probed_width(solved[-1], whole))
        if band != _MIN_BAND:
            solved = None
    while True:
        try:
            coords, lmat, scale, y, profile = solved or _bordered_solve(
                me, None if band == whole else band)
            edge = float(profile[band - 1:band + 1].sum())
            if edge < _BAND_TOL or band == whole:
                rho = _checked_state(me.space, coords, lmat, scale, y)
                log.info("steady state at field_dim %d: band %d, band edge "
                         "%.2e, band grown %d times", fd, band, edge, grown)
                return rho
        except DegenerateSteadyStateError:
            if band == whole:
                raise
        solved = None
        band, grown = min(math.ceil(_BAND_GROWTH * band), whole), grown + 1


def _excitations(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """Photon number and number of excited qubits of each basis state."""
    labels = np.indices(space.factor_dims).reshape(len(space.factor_dims), -1)
    return labels[-1], np.sum(labels[:-1] == 0, axis=0)  # index 0 is |e>


def _exchange(mode: Operator, sigma: Operator) -> np.ndarray:
    """mode^dag sigma^dag + mode sigma, each product formed from the
    factors' nonzeros.  A ladder times a qubit operator has one nonzero
    product per entry, so this equals the dense product entry for entry."""
    d = mode.space.dim
    out = np.zeros((d, d), dtype=complex)
    for a, b in [(mode.dag(), sigma.dag()), (mode, sigma)]:
        rows, cols, vals = _product(_coo(a.matrix), _coo(b.matrix))
        np.add.at(out, (rows, cols), vals)
    return out


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
    h = Operator(space, -g * _exchange(a, sigma))
    terms = (LindbladTerm(sigma, gamma), LindbladTerm(a, kappa))
    photons, excited = _excitations(space)
    return MasterEquation(hamiltonian=h, terms=terms,
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
    h = Operator(space, -dressed.g_tilde * _exchange(mode, sigma))
    terms = (LindbladTerm(sigma, gamma),
             LindbladTerm(dressed.bare_from_mode(space), kappa),
             LindbladTerm(mode, kappa * c_prime))
    photons, excited = _excitations(space)
    return MasterEquation(hamiltonian=h, terms=terms,
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
    h = Operator(space, -dressed.g_tilde * _exchange(mode, sigma)
                 - dressed_aux.g_tilde * _exchange(aux_mode, sigma_aux))
    terms = (LindbladTerm(sigma, gamma), LindbladTerm(sigma_aux, gamma_prime),
             LindbladTerm(bare, kappa))
    photons, excited = _excitations(space)
    return MasterEquation(hamiltonian=h, terms=terms,
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

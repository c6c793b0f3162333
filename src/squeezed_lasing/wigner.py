"""Wigner functions of the field, in either the squeezed or the bare basis.

Quadratures follow the rest of the package: x = A + A^dag, so the
vacuum is an isotropic Gaussian of variance 1 and a coherent state sits
at (2 Re alpha, 2 Im alpha).  With that scaling the Fock-basis kernel
carries a 1/(2 pi) prefactor; everything here is pinned to the single
normalization choice that any Wigner function integrates to 1 over
(X, P).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, annihilation, expectation

# fraction of total mass a grid may miss before reconstruction is refused
MASS_TOL = 1e-3

# half-width of auto-sized grids, in standard deviations per axis
AUTO_GRID_SIGMAS = 6.0

# slack, relative to their width, with which a grid spans the moment
# extents: a grid built from them under another BLAS thread count can
# differ from a fresh evaluation in the last bits
_EXTENT_RTOL = 1e-9

# radius past which f_0 = e^{-r^2/2} / (2 pi) of the Fock-basis kernels
# is subnormal (r ~ 37.6), so the kernels' recurrence loses digits there
KERNEL_RADIUS = math.sqrt(-2.0 * math.log(2 * math.pi * np.finfo(float).tiny))


class GridCoverageError(ValueError):
    """The grid misses more than ``MASS_TOL`` of the state's Wigner mass."""


class ModeBasis(enum.Enum):
    MODE_A = "mode_A"
    MODE_a = "mode_a"


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular midpoint grid over the (X, P) plane."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int

    def __post_init__(self):
        for v in (self.x_min, self.x_max, self.p_min, self.p_max):
            if not math.isfinite(v):
                raise ValueError("grid extents must be finite")
        if self.x_max <= self.x_min or self.p_max <= self.p_min:
            raise ValueError("grid extents must be increasing")
        if self.nx < 16 or self.np < 16:
            raise ValueError("need at least 16 points per axis")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.np

    @property
    def cell_area(self) -> float:
        return self.dx * self.dp

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def p_centers(self) -> np.ndarray:
        return self.p_min + (np.arange(self.np) + 0.5) * self.dp

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable (X, P) arrays; values[i, j] sits at (x_i, p_j)."""
        return self.x_centers[:, None], self.p_centers[None, :]


@dataclass(frozen=True)
class WignerField:
    """Wigner values on a grid, tagged with the basis they live in."""

    grid: PhaseGrid
    values: np.ndarray
    basis_tag: ModeBasis
    squeeze_r: float = 0.0

    def __post_init__(self):
        values = self.values
        # a read-only float64 array that owns its data, such as another
        # field's values, is kept as it is (no view of a writable array
        # gets in); any other input is copied
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and values.flags.c_contiguous and values.flags.owndata
                and not values.flags.writeable):
            values = np.array(values, dtype=float)
        if values.shape != (self.grid.nx, self.grid.np):
            raise ValueError(f"values shape {values.shape} does not match "
                             f"grid ({self.grid.nx}, {self.grid.np})")
        if not np.all(np.isfinite(values)):
            raise ValueError("Wigner values must be finite")
        mass = float(values.sum()) * self.grid.cell_area
        if abs(mass - 1.0) > MASS_TOL:
            raise GridCoverageError(
                f"Wigner mass on the grid is {mass:.6f}; the grid misses "
                "more than 0.1% of the state")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_area



def _operator_extents(rho: DensityMatrix) -> tuple[float, float, float, float]:
    a = annihilation(rho.space)
    x_op = a + a.dag()
    p_op = 1j * (a.dag() - a)
    mx = expectation(x_op, rho).real
    mp = expectation(p_op, rho).real
    vx = expectation(x_op @ x_op, rho).real - mx**2
    vp = expectation(p_op @ p_op, rho).real - mp**2
    sx = AUTO_GRID_SIGMAS * math.sqrt(max(vx, 1e-12))
    sp = AUTO_GRID_SIGMAS * math.sqrt(max(vp, 1e-12))
    return mx - sx, mx + sx, mp - sp, mp + sp


def grid_for_density(rho: DensityMatrix, points: int = 129) -> PhaseGrid:
    """Grid sized from the operator moments of the state."""
    x_lo, x_hi, p_lo, p_hi = _operator_extents(rho)
    return PhaseGrid(x_min=x_lo, x_max=x_hi, p_min=p_lo, p_max=p_hi,
                     nx=points, np=points)


def wigner_from_density(rho_A: DensityMatrix, grid: PhaseGrid) -> WignerField:
    """Reconstruct W(X, P) from a field-mode density matrix.

    rho is Hermitian by its type, so W sums real terms, one per diagonal
    delta >= 0 and its mirror: w_delta Re(e^{-i delta theta} sum_n c_n f_n),
    w_0 = 1 and w_delta = 2 above it, with c_n = (rho[n + delta, n]
    + conj rho[n, n + delta]) / 2 the diagonal's Hermitian part, read once.
    The normalised Fock-basis kernels f_n = (-1)^n sqrt(n! / (n + delta)!)
    r^delta e^{-r^2/2} L_n^delta(r^2) / (2 pi) are bounded by 1/(2 pi), so
    no term overflows however large the state.  From f_{-1} = 0 and f_0
    formed in the log domain, the Laguerre recurrence gives
    f_n = -[(2n - 1 + delta - r^2) f_{n-1}
    + sqrt((n - 1)(n - 1 + delta)) f_{n-2}] / sqrt(n (n + delta)).
    Terms with |c_n| < 1e-18 are dropped, and each diagonal's recurrence
    stops at the last n it keeps.  f_n and sum_n c_n f_n depend on a cell
    only through r^2, so the recurrence runs once per distinct radius,
    and only the phase factor is formed cell by cell.
    """
    if not isinstance(rho_A, DensityMatrix):
        raise TypeError("wigner_from_density needs a DensityMatrix")
    if rho_A.space.n_qubits != 0:
        raise ValueError("wigner_from_density needs a field-only state; "
                         "trace out the qubits first")
    mat = rho_A.matrix
    d = rho_A.space.field_dim
    x_arr, p_arr = grid.mesh()
    cell_r2 = x_arr**2 + p_arr**2
    r2, radius_of = np.unique(cell_r2.ravel(), return_inverse=True)
    radius_of = radius_of.reshape(cell_r2.shape)
    phase_unit = np.exp(-1j * np.arctan2(p_arr, x_arr))

    values = np.zeros_like(cell_r2)
    inner = np.empty(cell_r2.shape, dtype=complex)
    # Re and Im of sum_n c_n f_n per radius: c_n f_n as a complex product
    # has parts c_n.real f_n and c_n.imag f_n up to the sign of a zero,
    # which no sum into the grid can keep
    inner_re, inner_im, term = (np.empty_like(r2) for _ in range(3))
    # f_{n-2}, f_{n-1} and the step under way, reused at every step
    f_prev, f, step = (np.empty_like(r2) for _ in range(3))
    for delta in range(d):
        c = (np.diagonal(mat, offset=-delta)
             + np.diagonal(mat, offset=delta).conj()) / 2
        kept = np.flatnonzero(np.abs(c) >= 1e-18)
        if not kept.size:
            continue
        inner_re.fill(0.0)
        inner_im.fill(0.0)
        f_prev.fill(0.0)
        # r^delta, with 0^0 = 1 at the origin
        with np.errstate(divide="ignore"):
            log_power = (delta / 2) * np.log(r2) if delta else 0.0
        np.exp(log_power - r2 / 2 - 0.5 * math.lgamma(delta + 1), out=f)
        f /= 2 * math.pi
        # the f_n past the last kept c_n are never summed
        for n in range(kept[-1] + 1):
            if n:
                # the recurrence above, in place, one operation at a time
                # in its own order, so every value is the same bit for bit
                # (-x / s and x / -s round alike)
                np.subtract(2 * n - 1 + delta, r2, out=step)
                step *= f
                np.multiply(math.sqrt((n - 1) * (n - 1 + delta)), f_prev,
                            out=f_prev)
                step += f_prev
                step /= -math.sqrt(n * (n + delta))
                f_prev, f, step = f, step, f_prev
            if abs(c[n]) >= 1e-18:
                inner_re += np.multiply(c[n].real, f, out=term)
                # a real c_n adds only zeros to the imaginary part
                if c[n].imag:
                    inner_im += np.multiply(c[n].imag, f, out=term)
        np.take(inner_re, radius_of, out=inner.real)
        np.take(inner_im, radius_of, out=inner.imag)
        values += (2.0 if delta else 1.0) * (phase_unit**delta * inner).real

    mass = float(values.sum()) * grid.cell_area
    if abs(mass - 1.0) > MASS_TOL:
        x_lo, x_hi, p_lo, p_hi = _operator_extents(rho_A)
        sx = _EXTENT_RTOL * (x_hi - x_lo)
        sp = _EXTENT_RTOL * (p_hi - p_lo)
        if not (grid.x_min <= x_lo + sx and x_hi - sx <= grid.x_max
                and grid.p_min <= p_lo + sp and p_hi - sp <= grid.p_max):
            raise GridCoverageError(
                f"grid captures mass {mass:.6f}; suggest extents "
                f"x in [{x_lo:.2f}, {x_hi:.2f}], p in [{p_lo:.2f}, {p_hi:.2f}]")
        reach = _reach(rho_A)
        points = _resolving_points(grid, reach)
        if points > min(grid.nx, grid.np):
            raise GridCoverageError(
                f"grid captures mass {mass:.6f} although it spans the "
                "moment extents; the quadrature is too coarse: suggest "
                f"{max(points, grid.nx, grid.np)} grid points per axis "
                f"(have {grid.nx} x {grid.np})")
        if reach > KERNEL_RADIUS:
            raise GridCoverageError(
                f"grid captures mass {mass:.6f} although it spans the "
                "moment extents and its points resolve the state; the "
                f"state reaches radius {reach:.1f}, and the Fock-basis "
                f"kernels lose their precision past radius "
                f"{KERNEL_RADIUS:.1f}, where f_0 underflows")
        raise GridCoverageError(
            f"grid captures mass {mass:.6f} although it spans the moment "
            "extents and its points resolve the state; its mass lies "
            f"beyond them: suggest extents out to radius {reach:.1f}")
    return WignerField(grid=grid, values=values, basis_tag=ModeBasis.MODE_A)


def _reach(rho_A: DensityMatrix) -> float:
    """The radius sqrt(4N + 2) that the state's Wigner function reaches,
    with N the highest level whose tail population exceeds MASS_TOL: the
    turning radius of |N>."""
    pops = np.clip(np.diagonal(rho_A.matrix).real, 0.0, None)
    tail = np.cumsum(pops[::-1])[::-1]
    top = int(np.flatnonzero(tail > MASS_TOL)[-1])
    return math.sqrt(4 * top + 2)


def _resolving_points(grid: PhaseGrid, reach: float) -> int:
    """Points per axis at which the midpoint rule resolves a state that
    reaches radius ``reach`` (``_reach``).

    The rule's mass error is the characteristic function at the alias
    frequency 2 pi / h.  For |n><n| that function, exp(-k^2/2) L_n(k^2),
    dies off beyond k^2 = 4n + 2, so the spacing h must stay below
    2 pi / reach.
    """
    width = max(grid.x_max - grid.x_min, grid.p_max - grid.p_min)
    return math.ceil(width * reach / (2 * math.pi))


def wigner_change_basis(w: WignerField, r: float) -> WignerField:
    """Re-express a squeezed-mode Wigner function for the bare mode.

    The two phase spaces are related by W_a(X_a, P_a) =
    W_A(e^r X_a, e^-r P_a).  The output grid is the image of the input
    one, so the sample points coincide and no interpolation is needed.
    """
    if w.basis_tag is not ModeBasis.MODE_A:
        raise ValueError("input field must be in the squeezed-mode basis")
    g = w.grid
    out_grid = PhaseGrid(
        x_min=g.x_min * math.exp(-r), x_max=g.x_max * math.exp(-r),
        p_min=g.p_min * math.exp(r), p_max=g.p_max * math.exp(r),
        nx=g.nx, np=g.np)
    return WignerField(grid=out_grid, values=w.values,
                       basis_tag=ModeBasis.MODE_a, squeeze_r=r)

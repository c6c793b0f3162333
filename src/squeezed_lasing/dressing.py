"""Bichromatic drive dressing of a transversal qubit-cavity coupling.

A qubit with splitting ``epsilon`` couples to a cavity of frequency
``omega`` through g sigma_x (a + a^dag).  Two longitudinal drives with
dimensionless depths ``eta_j`` at the sideband frequencies
Omega_1 = epsilon - omega and Omega_2 = epsilon + omega phase-modulate
the qubit.  In the co-moving frame the modulation expands into Bessel
sidebands; the static terms form

    H = -g_tilde (A^dag sigma^dag + A sigma),   A = u a + v a^dag,

a coupling to a Bogoliubov mode.  The weights come from zeroth/first
order Bessel factors of the two drive depths,

    p_u = J_0(2 eta_1) J_1(2 eta_2),   p_v = J_0(2 eta_2) J_1(2 eta_1),

normalized by N = sqrt(|p_u^2 - p_v^2|) so that |u^2 - v^2| = 1 and
g_tilde = g N.  Swapping eta_1 <-> eta_2 swaps u <-> v, which turns the
counter-rotating coupling above into a rotating one; this is how the
auxiliary qubit used for engineered dissipation is driven.

The module also audits the discarded sidebands for near-resonances and
builds the interaction-picture Hamiltonian (a closure for
``schrodinger_evolve`` that maps a time to a dense matrix and a 1-d
array of times to the stack of them, every sideband summed in closed
form by the Jacobi-Anger identity sum_n J_n(x) e^{i n phi} =
e^{i x sin phi}, DLMF 10.12.1) and the static effective Hamiltonian of
the RWA check.  The lab-frame Hamiltonian and the co-moving frame that
conjugates it into the interaction picture are the tests' references
(``tests/test_dressing.py``).

The Bessel weights come from ``_bessel_j``, which returns J_0 .. J_M(x)
as a list of Python floats, from one of two regimes:

- for x up to max(25, M), Miller's backward recurrence (DLMF 3.6(iii)
  and 10.74(iv); W. Gautschi, SIAM Rev. 9, 24 (1967)), started about
  sqrt(40 max(M, x)) + 10 orders above max(M, x), normalised by
  J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4) and rescaled before it can
  overflow.  Below x = 1e-8 the first term of the power series,
  (x/2)^n / n!, is already exact to rounding;
- past that, J_0 and J_1 from Hankel's expansion (DLMF 10.17.3), summed
  until a term falls below 1e-17, and the recurrence run upward, which
  is stable for n < x.  The phase x - (2 nu + 1) pi/4 enters only
  through cos x and sin x, so the result keeps its accuracy up to
  x = 1e300 with bounded work.

Negative orders and arguments follow from J_{-n} = J_n(-x) = (-1)^n J_n.
Against mpmath, on a few thousand sampled (n, x), the error stayed below
4e-16 for n <= 30 and x <= 60, and below 5e-16 of the amplitude
sqrt(2/(pi x)) from x = 1e3 to 1e300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fock import HilbertSpace, Operator, annihilation, qubit_ops

# |p_u^2 - p_v^2| at or below this is treated as a degenerate dressing.
DEGENERACY_TOL = 1e-12


class DegenerateDressingError(ValueError):
    """The two Bessel weights balance, so no normalizable mode exists."""


# Past this argument (or past the highest order, if larger) the Bessel
# functions come from Hankel's expansion instead of Miller's recurrence.
_HANKEL_FROM = 25.0
# Below this argument (x/2)^2 < eps/4, so (x/2)^n / n! is J_n(x) to rounding.
_SERIES_BELOW = 1e-8
_RESCALE = 1e250


def _bessel_j(max_order: int, x: float) -> list[float]:
    """[J_0(x), ..., J_max_order(x)] for finite x (module docstring)."""
    if max_order < 0 or not math.isfinite(x):
        raise ValueError(f"need max_order >= 0 and a finite x, got "
                         f"{max_order!r}, {x!r}")
    if x < 0:  # J_n(-x) = (-1)^n J_n(x)
        return [-j if n % 2 else j
                for n, j in enumerate(_bessel_j(max_order, -x))]
    if x < _SERIES_BELOW:
        out = [1.0]
        for n in range(1, max_order + 1):
            out.append(out[-1] * (0.5 * x) / n)
        return out
    if x <= max(_HANKEL_FROM, max_order):
        return _bessel_miller(max_order, x)
    return _bessel_hankel(max_order, x)


def _bessel_miller(max_order: int, x: float) -> list[float]:
    """Miller's algorithm: the recurrence J_{n-1} = (2n/x) J_n - J_{n+1}
    run down from J_{start+1} = 0, J_start = 1, which converges to the
    minimal solution J_n, then scaled so that J_0 + 2 sum_k J_2k = 1."""
    top = max(max_order, math.ceil(x))
    start = top + int(math.sqrt(40 * top)) + 10
    start += start % 2
    out = [0.0] * (max_order + 1)
    above, j = 0.0, 1.0  # the unscaled J_{n+1} and J_n
    even_sum = 0.0
    for n in range(start, 0, -1):
        if n <= max_order:
            out[n] = j
        if n % 2 == 0:
            even_sum += j
        above, j = j, (2 * n / x) * j - above
        if abs(j) > _RESCALE:
            j, above, even_sum = (v / _RESCALE for v in (j, above, even_sum))
            out[n:] = [v / _RESCALE for v in out[n:]]
    out[0] = j
    norm = j + 2 * even_sum
    return [v / norm for v in out]


def _hankel_pq(mu: float, x: float) -> tuple[float, float]:
    """P and Q of Hankel's expansion for 4 nu^2 = mu (DLMF 10.17.3):
    the sums of (-1)^k a_2k / x^2k and of (-1)^k a_{2k+1} / x^{2k+1}."""
    p, q, term = 1.0, 0.0, 1.0
    for k in range(1, 40):
        term *= (mu - (2 * k - 1) ** 2) / (8 * k * x)
        if k % 2:
            q += term if k % 4 == 1 else -term
        else:
            p += term if k % 4 == 0 else -term
        if abs(term) < 1e-17:
            break
    return p, q


def _bessel_hankel(max_order: int, x: float) -> list[float]:
    """J_0 and J_1 from Hankel's expansion, then the recurrence upward,
    which is stable while n < x.  J_nu = sqrt(2/(pi x)) (P cos w - Q sin w)
    with w = x - (2 nu + 1) pi/4, taken from cos x and sin x, so that no
    phase is subtracted from a large x."""
    amplitude = math.sqrt(2 / (math.pi * x)) * math.sqrt(0.5)
    c, s = math.cos(x), math.sin(x)
    p0, q0 = _hankel_pq(0.0, x)
    p1, q1 = _hankel_pq(4.0, x)
    # sqrt(2) cos w and sqrt(2) sin w: (c + s, s - c) at nu = 0 and
    # (s - c, -(c + s)) at nu = 1
    out = [amplitude * (p0 * (c + s) - q0 * (s - c)),
           amplitude * (p1 * (s - c) + q1 * (c + s))][:max_order + 1]
    for n in range(1, max_order):
        out.append((2 * n / x) * out[n] - out[n - 1])
    return out


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the driven qubit-cavity model.

    All frequencies are angular.  ``eta1``/``eta2`` are the dimensionless
    drive depths (drive amplitude over drive frequency).
    """

    epsilon: float
    omega: float
    g: float
    eta1: float
    eta2: float
    Omega1: float
    Omega2: float

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be non-negative and finite")
        if not self.epsilon > self.omega:
            raise ValueError("epsilon must exceed omega (the difference sideband "
                             "epsilon - omega must be a positive drive frequency)")

    @classmethod
    def at_sidebands(cls, epsilon: float, omega: float, g: float,
                     eta1: float, eta2: float) -> "SystemParams":
        """Parameters with the drives placed exactly on the two sidebands."""
        return cls(epsilon=epsilon, omega=omega, g=g, eta1=eta1, eta2=eta2,
                   Omega1=epsilon - omega, Omega2=epsilon + omega)

    @property
    def on_sidebands(self) -> bool:
        tol = 1e-9 * self.epsilon
        return (abs(self.Omega1 - (self.epsilon - self.omega)) <= tol
                and abs(self.Omega2 - (self.epsilon + self.omega)) <= tol)


@dataclass(frozen=True)
class DressedCoupling:
    """Bogoliubov weights and strength of the dressed interaction.

    A = u a + v a^dag with |u^2 - v^2| = 1 and g_tilde = g * norm_N.
    The usual branch has |u| > |v| (then u = cosh r, v = sinh r with
    u > 0); drive depths with eta1 > eta2 produce the swapped branch
    u^2 - v^2 = -1, where the mode operator is the adjoint of a
    normalizable Bogoliubov mode and r = artanh(u/v).
    """

    u: float
    v: float
    r: float
    g_tilde: float
    norm_N: float

    def __post_init__(self):
        s = self.u**2 - self.v**2
        # the squares lose ~u^2 ulps, so scale the tolerance with magnitude
        tol = 1e-12 * max(1.0, self.u**2 + self.v**2)
        if abs(abs(s) - 1.0) > tol:
            raise ValueError(f"|u^2 - v^2| = {abs(s)} is not 1")
        if abs(self.u) > abs(self.v) and self.u <= 0:
            raise ValueError("sign convention requires u > 0 when |u| > |v|")

    @property
    def signature(self) -> int:
        """+1 on the lasing branch (|u| > |v|), -1 on the swapped branch."""
        return 1 if abs(self.u) > abs(self.v) else -1

    @classmethod
    def from_r(cls, r: float, g_tilde: float = 1.0) -> "DressedCoupling":
        """Synthetic coupling with a prescribed squeezing parameter and
        norm_N = 1."""
        return cls(u=math.cosh(r), v=math.sinh(r), r=r,
                   g_tilde=g_tilde, norm_N=1.0)

    def mode_operator(self, space: HilbertSpace) -> Operator:
        """A = u a + v a^dag on the given space."""
        a = annihilation(space)
        return self.u * a + self.v * a.dag()

    def bare_from_mode(self, space: HilbertSpace) -> Operator:
        """The bare operator a written in terms of the mode operator.

        On the usual branch a = u A - v A^dag; the swapped branch picks
        up an overall sign from u^2 - v^2 = -1.
        """
        a = annihilation(space)
        return float(self.signature) * (self.u * a - self.v * a.dag())


def dress(eta1: float, eta2: float, g: float = 1.0) -> DressedCoupling:
    """Dressed Bogoliubov coupling for drive depths (eta1, eta2).

    Raises :class:`DegenerateDressingError` when the two Bessel weights
    balance and the normalization N vanishes.
    """
    j0_1, j1_1 = _bessel_j(1, 2 * eta1)
    j0_2, j1_2 = _bessel_j(1, 2 * eta2)
    p_u, p_v = j0_1 * j1_2, j0_2 * j1_1
    if abs(p_u - p_v) * abs(p_u + p_v) <= DEGENERACY_TOL:
        raise DegenerateDressingError(
            f"|p_u| = |p_v| = {abs(p_u):.3e} at eta1={eta1}, eta2={eta2}; "
            "the Bogoliubov normalization vanishes")
    # Work with the ratio q = smaller/larger weight: q = 0 gives exactly
    # (1, 0), and 1 - q^2 avoids the cancellation in p_u^2 - p_v^2.  The
    # larger weight's coefficient is taken positive; on the swapped branch
    # (|p_v| > |p_u|) that is v.
    swapped = abs(p_u) < abs(p_v)
    big, small = (p_v, p_u) if swapped else (p_u, p_v)
    q = small / big
    root = math.sqrt(1.0 - q * q)
    lead = 1.0 / root
    trail = lead * q
    norm = abs(big) * root
    r = math.atanh(trail / lead)
    u, v = (trail, lead) if swapped else (lead, trail)
    return DressedCoupling(u=u, v=v, r=r, g_tilde=g * norm, norm_N=norm)


def small_amplitude_estimates(eta1: float, eta2: float,
                              g: float = 1.0) -> tuple[float, float]:
    """Leading-order (r, g_tilde) for small drive depths.

    tanh r = v/u is approximately eta1/eta2 and g_tilde is approximately
    g sqrt(eta2^2 - eta1^2); useful for parameter planning only.
    """
    if not (eta1 <= 0.3 and eta2 <= 0.3):
        raise ValueError("small-amplitude estimates assume eta <= 0.3")
    if eta1 >= eta2:
        raise ValueError("small-amplitude branch requires eta1 < eta2")
    r_approx = math.atanh(eta1 / eta2)
    g_tilde_approx = g * math.sqrt(eta2**2 - eta1**2)
    return r_approx, g_tilde_approx


@dataclass(frozen=True)
class SidebandTerm:
    """One Bessel sideband of the expanded interaction.

    ``kind`` is "rotating" for a sigma^dag a process and "counter" for
    sigma^dag a^dag.  ``indices`` are the Bessel orders of the two
    drives, ``detuning`` the residual oscillation frequency, and
    ``weight`` the magnitude |J_{m1}(2 eta1) J_{m2}(2 eta2)|.
    """

    kind: str
    indices: tuple[int, int]
    detuning: float
    weight: float


@dataclass(frozen=True)
class ResonanceReport:
    kept_terms: list[SidebandTerm]
    spurious_terms: list[SidebandTerm]
    threshold: float


def resonance_audit(params: SystemParams, max_index: int = 30,
                    g_threshold: float | None = None) -> ResonanceReport:
    """Scan the sideband expansion for terms oscillating slower than a threshold.

    With the drives on the sidebands, the (m1, m2) rotating term detunes by
    (1 + m1 + m2) omega - (1 + m1 - m2) epsilon and the (q1, q2) counter-rotating
    one by (1 - q1 + q2) omega + (1 + q1 + q2) epsilon.  The kept pair, rotating
    (-1, 0) and counter-rotating (0, -1), sits at exactly zero.  All terms with
    |detuning| < g_threshold are reported; spurious ones are sorted by
    |detuning|, then by descending Bessel weight.

    ``g_threshold`` defaults to the bare coupling g, below which a sideband
    can no longer be adiabatically neglected.
    """
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    if not params.on_sidebands:
        raise ValueError("audit assumes drives exactly on the two sidebands")
    if g_threshold is None:
        g_threshold = params.g
    eps, om = params.epsilon, params.omega
    kept: list[SidebandTerm] = []
    spurious: list[SidebandTerm] = []
    orders = range(-max_index, max_index + 1)
    # |J_-m| = |J_m|
    weights1, weights2 = ([abs(j) for j in _bessel_j(max_index, 2 * eta)]
                          for eta in (params.eta1, params.eta2))
    for m1 in orders:
        for m2 in orders:
            weight = weights1[abs(m1)] * weights2[abs(m2)]
            det_rot = (1 + m1 + m2) * om - (1 + m1 - m2) * eps
            det_cnt = (1 - m1 + m2) * om + (1 + m1 + m2) * eps
            for kind, det in (("rotating", det_rot), ("counter", det_cnt)):
                is_kept = (m1, m2) == ((-1, 0) if kind == "rotating" else (0, -1))
                if is_kept:
                    kept.append(SidebandTerm(kind, (m1, m2), det, weight))
                elif abs(det) < g_threshold:
                    spurious.append(SidebandTerm(kind, (m1, m2), det, weight))
    spurious.sort(key=lambda t: (abs(t.detuning), -t.weight, t.indices))
    return ResonanceReport(kept_terms=kept, spurious_terms=spurious,
                           threshold=g_threshold)


def interaction_picture_hamiltonian(params: SystemParams, space: HilbertSpace):
    """Interaction-picture Hamiltonian with every Bessel sideband retained.

    Returns t -> H_I(t) as a dense matrix, where

        H_I(t) = g [alpha(t) a sigma^dag + beta(t) a sigma] + h.c.,
        alpha(t) = e^{i [(epsilon - omega) t + theta(t)]},
        beta(t)  = e^{-i [(epsilon + omega) t + theta(t)]},
        theta(t) = 2 eta_1 sin(Omega_1 t) + 2 eta_2 sin(Omega_2 t).

    By Jacobi-Anger (DLMF 10.12.1), e^{i theta} sums every Bessel sideband
    J_{n1}(2 eta_1) J_{n2}(2 eta_2) e^{i (n1 Omega_1 + n2 Omega_2) t}.  A call
    multiplies (alpha, beta, conj alpha, conj beta) into the stacked g a sigma^dag,
    g a sigma and adjoints, whose disjoint nonzeros keep H_I(t) Hermitian.
    A scalar t gives one (d, d) matrix.  A 1-d array of n times gives the
    (n, d, d) stack from one (n, 4) @ (4, d^2) product: the form
    ``schrodinger_evolve`` asks for once per step, at all its stage times.
    Both forms take each time's phases from one loop of scalar math.cos
    and math.sin calls, written as a flat list of (real, imaginary)
    pairs: e^{+-i x} is (cos x, +-sin x), the bits that cmath.exp(+-1j x)
    gives at every t >= 0.
    """
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    up = params.g * (a @ sigma.dag()).matrix
    down = params.g * (a @ sigma).matrix
    stack = np.stack([up, down, up.conj().T, down.conj().T]).reshape(4, -1)
    shape = (space.dim, space.dim)
    eta1, eta2, omega1, omega2 = (params.eta1, params.eta2,
                                  params.Omega1, params.Omega2)
    difference, total = params.epsilon - params.omega, params.epsilon + params.omega
    sin, cos = math.sin, math.cos

    def hamiltonian(t) -> np.ndarray:
        times = np.asarray(t, dtype=float)
        table: list[float] = []
        for s in times.ravel().tolist():
            theta = 2 * (eta1 * sin(omega1 * s) + eta2 * sin(omega2 * s))
            x, y = difference * s + theta, total * s + theta
            cos_x, sin_x, cos_y, sin_y = cos(x), sin(x), cos(y), sin(y)
            # alpha, beta, conj alpha, conj beta
            table += (cos_x, sin_x, cos_y, -sin_y, cos_x, -sin_x, cos_y, sin_y)
        phases = np.array(table).view(complex).reshape(-1, 4)
        return (phases @ stack).reshape(times.shape + shape)

    return hamiltonian


def effective_H(dressed: DressedCoupling, space: HilbertSpace) -> Operator:
    """Static dressed Hamiltonian -g_tilde (A^dag sigma^dag + A sigma)."""
    sigma, _, _ = qubit_ops(space, 0)
    mode = dressed.mode_operator(space)
    return -dressed.g_tilde * (mode.dag() @ sigma.dag() + mode @ sigma)

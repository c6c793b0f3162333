import contextlib
import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from oracles import normalised_state, rhs, steady_evolve, trace_distance
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import splu as scipy_splu

from squeezed_lasing.dressing import (
    DressedCoupling,
    SystemParams,
    dress,
    interaction_picture_hamiltonian,
)
from squeezed_lasing.fock import (
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    annihilation,
    coherence_profile,
    expectation,
    qubit_ops,
)
import squeezed_lasing.lindblad as lindblad
from squeezed_lasing.lindblad import (
    DegenerateSteadyStateError,
    LindbladTerm,
    Liouvillian,
    MasterEquation,
    adiabatic_elimination_ok,
    dissipator,
    fidelity,
    liouvillian_matrix,
    model_single_qubit_laser,
    model_squeezed_laser_effective,
    model_two_qubit_full,
    partial_trace,
    schrodinger_evolve,
    steady_state,
)
from squeezed_lasing import scenarios
from squeezed_lasing.scenarios import build_config, resolve_point


def fock_projector(space, *labels):
    idx = space.basis_index(*labels)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[idx, idx] = 1.0
    return m


def random_density(space, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(space.dim, space.dim)) \
        + 1j * rng.normal(size=(space.dim, space.dim))
    m = m @ m.conj().T
    return DensityMatrix(space, m / np.trace(m).real)


def test_dissipator_vacuum_dark():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    term = LindbladTerm(annihilation(space), 0.7)
    out = dissipator(term, fock_projector(space, 0))
    np.testing.assert_allclose(out, 0, atol=1e-15)


def test_dissipator_single_photon():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    kappa = 0.31
    term = LindbladTerm(annihilation(space), kappa)
    out = dissipator(term, fock_projector(space, 1))
    expected = 2 * kappa * (fock_projector(space, 0) - fock_projector(space, 1))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_dissipator_qubit_decay_rate():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    sigma, sigma_z, _ = qubit_ops(space, 0)
    gamma = 0.85
    out = dissipator(LindbladTerm(sigma, gamma), fock_projector(space, 0, 0))
    assert np.trace(sigma_z.matrix @ out).real == pytest.approx(-4 * gamma,
                                                                rel=1e-12)


def test_dissipator_traceless_and_mismatch():
    space = HilbertSpace(n_qubits=1, field_dim=5)
    rho = random_density(space, 3)
    term = LindbladTerm(annihilation(space), 1.3)
    assert abs(np.trace(dissipator(term, rho))) < 1e-12
    other = HilbertSpace(n_qubits=0, field_dim=5)
    with pytest.raises(ValueError):
        dissipator(term, random_density(other, 4))


def test_rhs_zero_generator():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    me = MasterEquation(hamiltonian=0.0 * annihilation(space), terms=())
    out = rhs(me, random_density(space, 5))
    np.testing.assert_allclose(out, 0, atol=1e-15)


def test_rhs_traceless_and_matches_liouvillian():
    space = HilbertSpace(n_qubits=1, field_dim=6)
    me = model_single_qubit_laser(g=0.9, gamma=1.0, kappa=0.3, space=space)
    rho = random_density(space, 11)
    out = rhs(me, rho)
    assert abs(np.trace(out)) < 1e-12
    lmat = liouvillian_matrix(me).matrix
    via_matrix = (lmat @ rho.matrix.reshape(-1, order="F")).reshape(
        (space.dim, space.dim), order="F")
    np.testing.assert_allclose(out, via_matrix, atol=1e-12)


def test_rhs_rejects_nonfinite():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    me = MasterEquation(hamiltonian=0.0 * annihilation(space),
                        terms=(LindbladTerm(annihilation(space), 1.0),))
    bad = np.full((3, 3), np.inf, dtype=complex)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        rhs(me, bad)


def test_master_equation_rejects_nonhermitian_h():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    with pytest.raises(ValueError):
        MasterEquation(hamiltonian=annihilation(space), terms=())


def test_liouvillian_damped_oscillator_spectrum():
    space = HilbertSpace(n_qubits=0, field_dim=5)
    kappa = 0.37
    me = MasterEquation(hamiltonian=0.0 * annihilation(space),
                        terms=(LindbladTerm(annihilation(space), kappa),))
    lmat = liouvillian_matrix(me)
    assert lmat.matrix.shape == (25, 25)
    eigs = np.linalg.eigvals(lmat.matrix.toarray())
    expected = sorted(-kappa * (m + n) for m in range(5) for n in range(5))
    np.testing.assert_allclose(np.sort(eigs.real), expected, atol=1e-8)
    np.testing.assert_allclose(eigs.imag, 0, atol=1e-8)


def test_master_equation_takes_the_hamiltonians_space():
    laser = model_single_qubit_laser(g=0.9, gamma=1.0, kappa=0.3,
                                     space=HilbertSpace(n_qubits=1,
                                                        field_dim=6))
    assert laser.space == laser.hamiltonian.space
    # a field-only Hamiltonian of the same dimension, 12, is still on
    # another space than the laser's jumps
    field = HilbertSpace(n_qubits=0, field_dim=12)
    a = annihilation(field)
    with pytest.raises(ValueError, match="different space"):
        MasterEquation(hamiltonian=0.5 * (a.dag() @ a), terms=laser.terms)


def test_master_equation_rejects_callable_hamiltonian():
    space = HilbertSpace(n_qubits=0, field_dim=3)
    with pytest.raises(TypeError, match="Operator"):
        MasterEquation(hamiltonian=lambda t: 0.0 * annihilation(space),
                       terms=())
    with pytest.raises(TypeError, match="ndarray"):
        MasterEquation(hamiltonian=np.zeros((3, 3)), terms=())


def build_model(kind, g, gamma, kappa, c_prime, r, field_dim):
    """One of the three model constructors at the given rates."""
    if kind == "single_qubit_laser":
        return model_single_qubit_laser(
            g, gamma, kappa, HilbertSpace(n_qubits=1, field_dim=field_dim))
    dressed = DressedCoupling.from_r(r, g_tilde=g)
    if kind == "squeezed_laser_effective":
        return model_squeezed_laser_effective(
            dressed, gamma, kappa, c_prime,
            HilbertSpace(n_qubits=1, field_dim=field_dim))
    # exactly swapped drive depths put the auxiliary coupling on the
    # u^2 - v^2 = -1 branch
    aux = DressedCoupling(u=math.sinh(r), v=math.cosh(r), r=r,
                          g_tilde=c_prime * g, norm_N=1.0)
    return model_two_qubit_full(dressed, aux, gamma, c_prime * gamma, kappa,
                                HilbertSpace(n_qubits=2, field_dim=field_dim))


rates = st.floats(0.01, 5.0)


@pytest.mark.parametrize("kind", ["single_qubit_laser",
                                  "squeezed_laser_effective",
                                  "two_qubit_full"])
@settings(max_examples=25, deadline=None)
@given(g=rates, gamma=rates, kappa=rates, c_prime=rates,
       r=st.floats(0.0, 1.5), field_dim=st.integers(2, 7),
       seed=st.integers(0, 2**32 - 1))
def test_generator_preserves_trace_and_hermiticity(kind, g, gamma, kappa,
                                                   c_prime, r, field_dim,
                                                   seed):
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    lmat = liouvillian_matrix(me).matrix
    d = me.space.dim
    scale = abs(lmat).max()
    # the trace functional is a left null vector: d tr(rho)/dt = 0
    trace_vec = np.zeros(d * d)
    trace_vec[np.arange(d) * (d + 1)] = 1.0
    assert np.max(np.abs(lmat.T @ trace_vec)) <= 1e-12 * scale
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = m + m.conj().T
    out = (lmat @ herm.reshape(-1, order="F")).reshape((d, d), order="F")
    tol = 1e-12 * scale * np.max(np.abs(herm))
    assert np.max(np.abs(out - out.conj().T)) <= tol
    # the sparse matrix and the operator-level generator agree
    assert np.max(np.abs(out - rhs(me, herm))) <= tol


def charge_free(me):
    """The same master equation without its charge: one sector, all of rho."""
    return MasterEquation(hamiltonian=me.hamiltonian, terms=me.terms)


def off_sector(me) -> np.ndarray:
    """Mask of the entries of rho that join states of unequal charge."""
    labels = me.charge % me.modulus if me.modulus else me.charge
    return labels[:, None] != labels[None, :]


MODELS = ["single_qubit_laser", "squeezed_laser_effective", "two_qubit_full"]


def complex_full_steady(me) -> np.ndarray:
    """rho from the complex generator over all d^2 entries of rho: the
    first row of L vec(rho) = 0 replaced by tr(rho) = 1, solved dense.

    The bordered matrix's condition number reaches ~3e4 (two_qubit_full,
    r = 1.5, field_dim 2), where one dense solve is ~1e-12 off in trace
    distance, so a few steps of refinement against residuals in extended
    precision bring it to roundoff."""
    d = me.space.dim
    lmat = liouvillian_matrix(me).matrix.toarray()
    lmat[0] = 0.0
    lmat[0, np.arange(d) * (d + 1)] = 1.0
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    x = np.linalg.solve(lmat, b)
    wide = lmat.astype(np.clongdouble)
    for _ in range(3):
        residual = b - wide @ x.astype(np.clongdouble)
        x = x + np.linalg.solve(lmat, residual.astype(complex))
    return x.reshape((d, d), order="F")


@pytest.mark.parametrize("kind", MODELS)
@settings(max_examples=15, deadline=None)
@given(g=rates, gamma=rates, kappa=rates, c_prime=rates,
       r=st.floats(0.0, 1.5), field_dim=st.integers(2, 7))
# the reference's worst conditioning met so far (see complex_full_steady)
@example(g=1.0, gamma=0.25, kappa=4.0, c_prime=0.01171875, r=1.5,
         field_dim=2)
def test_sector_steady_state_matches_full_solve(kind, g, gamma, kappa,
                                                c_prime, r, field_dim):
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    # the join itself: the sector's complex triplets sum to the full
    # generator on the equal-charge pairs, numbered column by column ...
    lfull = liouvillian_matrix(me).matrix
    inside = ~off_sector(me).reshape(-1, order="F")
    vec, outside = np.flatnonzero(inside), np.flatnonzero(~inside)
    terms = lindblad._SectorCoordinates(me._labels()).sandwiches(me)
    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    sector = sp.csc_matrix((vals, (rows, cols)), shape=(vec.size, vec.size))
    diff = (sector - lfull[vec][:, vec]).toarray()
    assert np.max(np.abs(diff)) <= 1e-13 * abs(lfull).max()
    # ... and the full generator takes no sector column out of the sector
    assert np.all(lfull[outside][:, vec].data == 0)
    rho = steady_state(me)
    # the real sector solve against the complex generator, solved apart
    # from the code under test
    assert trace_distance(rho, complex_full_steady(me)) <= 1e-12
    assert np.all(rho.matrix[off_sector(me)] == 0)
    full = steady_state(charge_free(me))
    assert trace_distance(rho, full) <= 1e-12
    # the full solve, which knows nothing of the charge, does not leak
    # out of the sector either
    assert np.max(np.abs(full.matrix[off_sector(me)]), initial=0.0) <= 1e-12


label_arrays = st.lists(st.integers(-2, 2), max_size=25).map(
    lambda x: np.array(x, dtype=int))


@settings(max_examples=200, deadline=None)
@given(la=label_arrays, lb=label_arrays)
@example(la=np.array([], dtype=int), lb=np.array([], dtype=int))
@example(la=np.array([], dtype=int), lb=np.array([3, 3]))
@example(la=np.array([3, 3, 3]), lb=np.array([], dtype=int))
@example(la=np.array([7, 7, 7]), lb=np.array([7, 7]))
def test_sorted_join_matches_dense_join(la, lb):
    # the dense join is the reference: the same pairs in the same order
    dense = np.nonzero(la[:, None] == lb)
    for got, want in zip(lindblad._join(la, lb), dense, strict=True):
        assert np.array_equal(got, want)


sector_labels = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6,
                         unique=True).flatmap(
    lambda values: st.lists(st.sampled_from(values), min_size=1,
                            max_size=40)).map(np.array)


@settings(max_examples=200, deadline=None)
@given(labels=sector_labels)
@example(labels=np.array([5]))
@example(labels=np.array([0, 0, 0]))
def test_sector_pairs_are_numbered_from_their_labels(labels):
    coords = lindblad._SectorCoordinates(labels)
    cols, rows = np.nonzero(labels[:, None] == labels)
    assert np.array_equal(coords.cols, cols)
    assert np.array_equal(coords.rows, rows)
    # the reference: a dense d x d table of the column-major pair numbers
    index = np.full((labels.size,) * 2, -1)
    index[rows, cols] = np.arange(rows.size)
    numbers = coords.start[cols] + coords.rank[rows]
    assert np.array_equal(numbers, np.arange(rows.size))
    # each column's first pair
    assert np.array_equal(coords.start,
                          np.where(index < 0, rows.size, index).min(axis=0))
    assert np.array_equal(coords.mirror, index[cols, rows])
    assert np.array_equal(coords.diagonal, index.diagonal())
    for table in (coords.start, coords.rank, coords.diagonal, coords.mirror,
                  numbers):
        assert table.dtype == np.int32
    # rho_ji is written as the exact conjugate of rho_ij, with a real
    # diagonal, so the steady state needs no re-symmetrising
    x = np.random.default_rng(labels.size).standard_normal(coords.n)
    m = coords.hermitian(x)
    assert np.array_equal(m, m.conj().T)
    assert not np.any(np.diagonal(m).imag)


@pytest.mark.parametrize("scenario, model, field_dim", [
    ("squeezed_laser", "effective", 60),
    ("two_qubit_full", "two_qubit", 40),
    ("single_laser", "single", 1000),
])
def test_generator_assembly_memory_tracks_its_nonzeros(scenario, model,
                                                       field_dim):
    r = resolve_point(build_config(scenario, preset="desk").params, model)
    space = HilbertSpace(n_qubits=2 if model == "two_qubit" else 1,
                         field_dim=field_dim)
    if model == "two_qubit":
        me = model_two_qubit_full(r.dressed, r.aux, r.gamma, r.gamma_prime,
                                  r.kappa, space)
    elif model == "single":
        me = model_single_qubit_laser(r.g_tilde, r.gamma, r.kappa, space)
    else:
        me = model_squeezed_laser_effective(r.dressed, r.gamma, r.kappa,
                                            r.c_prime, space)
    tracemalloc.start()
    try:
        lmat = lindblad._SectorCoordinates(me._labels()).generator(me)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense pairing of each term's nonzeros took 10-12x a CSC matrix's
    # bytes; the single laser's U(1) sector holds 4 fd - 2 pairs, where a
    # d x d pair table took 101x.  Triplets take 16 bytes an entry, 4
    # more than CSC, so 4.5x and 7.5x of them is the 6x and 10x that
    # bounded a CSC matrix
    bound = 7.5 if model == "single" else 4.5
    assert peak <= bound * (lmat.data.nbytes + lmat.rows.nbytes
                            + lmat.cols.nbytes)


def test_submatrix_refuses_an_entry_that_leaves_the_kept_nodes():
    # 0 - 1 are joined, 2 stands alone
    matrix = lindblad.SparseMatrix(np.array([0, 1, 2]), np.array([1, 0, 2]),
                                   np.array([1.0, 2.0, 3.0]), 3)
    kept = matrix.submatrix(np.array([2]))
    assert (kept.n, kept.rows.tolist(), kept.data.tolist()) == (1, [0], [3.0])
    for keep in ([0], [1, 2]):
        with pytest.raises(ValueError, match="joins a kept node"):
            matrix.submatrix(np.array(keep))


band_sectors = st.tuples(st.integers(1, 9), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(st.just(shape[0]), st.lists(
        st.integers(-2, 2), min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1]).map(np.array)))


@settings(max_examples=200, deadline=None)
@given(sector=band_sectors, band=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1))
@example(sector=(3, np.array([0, 1, 0, 1, 0, 1])), band=1, seed=0)
def test_band_pairs_are_numbered_from_their_labels(sector, band, seed):
    field_dim, labels = sector
    coords = lindblad._SectorCoordinates(labels, field_dim, band)
    # the reference: a dense d x d mask of the band's pairs and a table of
    # their column-major numbers
    photons = np.arange(labels.size) % field_dim
    mask = ((labels[:, None] == labels)
            & (np.abs(photons[:, None] - photons) <= band))
    cols, rows = np.nonzero(mask)
    assert np.array_equal(coords.cols, cols)
    assert np.array_equal(coords.rows, rows)
    index = np.full(mask.shape, -1)
    index[rows, cols] = np.arange(rows.size)
    numbers = coords.number(rows, cols)
    assert np.array_equal(numbers, np.arange(rows.size))
    assert np.array_equal(coords.mirror, index[cols, rows])
    assert np.array_equal(coords.diagonal, index.diagonal())
    for table in (coords.start, coords.rank, coords.offset, coords.diagonal,
                  coords.mirror, numbers):
        assert table.dtype == np.int32
    # the join of any states with non-decreasing ones lists the band's
    # pairs among them in row-major order
    rng = np.random.default_rng(seed)
    a = rng.integers(0, labels.size, size=rng.integers(0, 12))
    b = np.sort(rng.integers(0, labels.size, size=rng.integers(0, 12)))
    for got, want in zip(coords.join(a, b), np.nonzero(mask[a][:, b]),
                         strict=True):
        assert np.array_equal(got, want)


def dense_generator(coords, me) -> np.ndarray:
    lmat = coords.generator(me)
    out = np.zeros((lmat.n, lmat.n))
    out[lmat.rows, lmat.cols] = lmat.data
    return out


@pytest.mark.parametrize("kind", MODELS)
def test_band_generator_is_the_sector_generator_cut_to_the_band(kind):
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 9)
    whole = lindblad._SectorCoordinates(me._labels())
    full = dense_generator(whole, me)
    for band in (1, 2, 5):
        coords = lindblad._SectorCoordinates(me._labels(), 9, band)
        assert np.all(np.abs(coords.photons[coords.rows]
                             - coords.photons[coords.cols]) <= band)
        at = whole.number(coords.rows, coords.cols)
        # every term's entries on the band, summed in the same order
        assert np.array_equal(dense_generator(coords, me), full[at][:, at])
    # a band as wide as the field is the whole sector, bit for bit
    rho = steady_state(me)
    for band in (8, 20):
        assert np.array_equal(steady_state(me, band=band).matrix, rho.matrix)
    with pytest.raises(ValueError, match="band must be at least 1"):
        steady_state(me, band=0)


@pytest.mark.parametrize("kind", MODELS)
@settings(max_examples=15, deadline=None)
@given(g=rates, gamma=rates, kappa=rates, c_prime=rates,
       r=st.floats(0.0, 0.6), field_dim=st.integers(8, 24),
       band=st.integers(1, 22))
def test_band_solve_is_within_its_edge_of_the_whole_sector(
        kind, g, gamma, kappa, c_prime, r, field_dim, band):
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    whole = steady_state(me)
    with band_log() as kept:
        rho = steady_state(me, band=min(band, field_dim - 2))
    [(_, band, _)] = kept
    edge = coherence_profile(rho)[band - 1:band + 1].sum()
    # the band grew until its edge passed, or to the whole sector
    assert edge < lindblad._BAND_TOL or band == field_dim - 1
    assert trace_distance(rho, whole) <= edge + 1e-13


@contextlib.contextmanager
def band_log():
    """Yields a list that fills, inside the block, with the (field_dim,
    band kept, times the band grew) of each steady state solved, read
    from lindblad's INFO summary lines."""
    found = []

    class Summaries(logging.Handler):
        def emit(self, record):
            m = re.fullmatch(r"steady state at field_dim (\d+): band (\d+), "
                             r"band edge \S+, band grown (\d+) times",
                             record.getMessage())
            if m:
                found.append(tuple(map(int, m.groups())))

    logger = logging.getLogger("squeezed_lasing.lindblad")
    level = logger.level
    handler = Summaries(logging.INFO)
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield found
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@pytest.mark.parametrize("kind", MODELS)
def test_a_band_pass_reads_the_profile_of_its_state(kind):
    me = build_model(kind, 1.0, 0.5, 0.3, 2.0, 0.3, 12)
    # on a band that passes, the profile of the state it returns
    for band in (11, 8):
        *solved, profile = lindblad._bordered_solve(me, band)
        rho = lindblad._checked_state(me.space, *solved)
        assert np.allclose(profile, coherence_profile(rho), rtol=1e-12,
                           atol=1e-16)
    # a band too narrow for a state still has a profile, 0 outside it
    profile = lindblad._bordered_solve(me, 1)[-1]
    assert np.all(profile[:2] > 0) and np.all(profile[2:] == 0)


def test_wide_start_is_narrowed_by_a_probe(monkeypatch):
    # desk C' = 0.01 at field_dim 150: the coherences need a band of 54,
    # and a start of the whole sector holds 4.8 times the pairs of the
    # narrowest band, so that band is probed first
    cfg = build_config("wigner_panels", preset="desk",
                       overrides={"params": {"c_prime": 0.01}})
    [resolved] = cfg.points
    me = model_squeezed_laser_effective(
        resolved.dressed, resolved.gamma, resolved.kappa, resolved.c_prime,
        HilbertSpace(n_qubits=1, field_dim=150))
    factored = record_splu(monkeypatch)
    with band_log() as kept:
        rho = steady_state(me, band=149)
    assert kept == [(150, 54, 0)]
    edge = coherence_profile(rho)[53:55].sum()
    assert edge < lindblad._BAND_TOL
    # the probe, then the band it picked, together less than the whole
    probe, band = (n for n, _ in factored)
    whole = steady_state(me)
    assert probe < band and probe + band < factored[-1][0]
    assert trace_distance(rho, whole) <= edge + 1e-13


def test_a_probe_that_picks_its_own_band_is_that_bands_solve(monkeypatch):
    # the single laser's sector holds no pair more than one photon apart,
    # so a probe on the narrowest band reads no fall-off to extrapolate,
    # picks that band, and is kept as its solve
    me = build_model("single_qubit_laser", 1.0, 1.0, 0.3, 1.0, 0.0, 130)
    factored = record_splu(monkeypatch)
    with band_log() as kept:
        rho = steady_state(me, band=129)
    assert kept == [(130, lindblad._MIN_BAND, 0)] and len(factored) == 1
    assert np.array_equal(
        steady_state(me, band=lindblad._MIN_BAND).matrix, rho.matrix)


def record_splu(monkeypatch) -> list:
    """Patch lindblad.splu to record the order and dtype of each matrix it
    factors; the solve looks splu up on the module, where tracers patch
    it too."""
    factored = []
    real = lindblad.splu

    def recording(matrix, *args):
        factored.append((matrix.n, matrix.data.dtype))
        return real(matrix, *args)

    monkeypatch.setattr(lindblad, "splu", recording)
    return factored


@pytest.mark.parametrize("scenario, field_dim, live", [
    ("squeezed_laser", 60, [3660]),
    # the two-qubit model, then the effective one it is compared with
    ("two_qubit_full", 40, [6480, 1640]),
])
def test_desk_points_factor_each_model_once_on_a_band(monkeypatch, scenario,
                                                       field_dim, live):
    factored = record_splu(monkeypatch)
    cfg = build_config(scenario, preset="desk",
                       overrides={"numerics": {"field_dim": field_dim}})
    point = scenarios._Point(cfg.points[0], cfg.numerics, {})
    if scenario == "two_qubit_full":
        assert point.fidelity_vs_effective > 0.9
    assert point.field_dim == field_dim
    # one factorisation per model, each smaller than its whole live block
    assert len(factored) == len(live)
    assert all(n < whole for (n, _), whole in zip(factored, live))
    whole = steady_state(point._build(field_dim))
    assert trace_distance(point.rho, whole) <= 1e-12


def test_desk_weak_engineering_panel_factors_its_whole_block_once(
        monkeypatch):
    factored = record_splu(monkeypatch)
    cfg = build_config("wigner_panels", preset="desk",
                       overrides={"params": {"c_prime": 0.01}})
    [resolved] = cfg.points
    point = scenarios._Point(resolved, cfg.numerics, {})
    # at C' = 0.01 the ansatz keeps its band edge over 1e-12 up to the
    # last band, so the whole live block is solved, once
    assert point.field_dim == 60
    assert factored == [(3660, np.float64)]


# The sector has 38 / 200 / 800 real coordinates at field_dim 10 (2x2 U(1)
# blocks plus two 1x1 ends, or half of rho for the Z2 models).  At
# resonance the generator splits in the gauge |n> -> i^n |n>, and only
# the block that the trace row reaches is factored: the 20 / 20 / 40
# populations plus one of the two coordinates of every pair i < j.
@pytest.mark.parametrize("kind, unknowns", [
    ("single_qubit_laser", (38 + 20) // 2),
    ("squeezed_laser_effective", (200 + 20) // 2),
    ("two_qubit_full", (800 + 40) // 2),
])
def test_direct_solve_factors_only_the_sector(monkeypatch, kind, unknowns):
    factored = record_splu(monkeypatch)
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 10)
    rho = steady_state(me)
    # one real system in Hermitian coordinates
    assert factored == [(unknowns, np.float64)]
    assert np.all(rho.matrix[off_sector(me)] == 0)


def full_sector_solve(me):
    """The bordered sector system over all its real coordinates, factored
    whole with scipy's splu: (its solution, mask of the coordinates that
    the i^n gauge keeps apart from the trace row, state).

    The state is that solution refined against residuals in extended
    precision, as in complex_full_steady: unrefined, SuperLU's whole-
    sector solve is itself ~1e-12 off on stiff models (1.7e-12 at
    two_qubit_full, g = 1, gamma = 1/32, kappa = 2.75, C' = 1/64, r = 1,
    field_dim 3)."""
    d = me.space.dim
    coords = lindblad._SectorCoordinates(me._labels())
    lmat = coords.generator(me)
    keep = lmat.rows != 0
    bordered = sp.csc_matrix(
        (np.concatenate([lmat.data[keep], np.ones(d)]),
         (np.concatenate([lmat.rows[keep], np.zeros(d, dtype=int)]),
          np.concatenate([lmat.cols[keep], coords.diagonal]))),
        shape=(lmat.n, lmat.n))
    b = np.zeros(coords.n)
    b[0] = 1.0
    lu = scipy_splu(bordered)
    y = lu.solve(b)
    # the residual summed entry by entry in extended precision, which
    # holds the matrix's nonzeros alone (dense, two_qubit_full at
    # field_dim 20 took 164 MB)
    entries = bordered.tocoo()
    wide = entries.data.astype(np.longdouble)
    x = y
    for _ in range(3):
        residual = b.astype(np.longdouble)
        np.subtract.at(residual, entries.row, wide * x[entries.col])
        x = x + lu.solve(residual.astype(float))
    # basis states list the qubits first, so k mod field_dim is the
    # photon number; coordinate k holds Re rho_ij for i <= j, else Im
    photons = np.arange(d) % me.space.field_dim
    even = (photons[coords.rows] - photons[coords.cols]) % 2 == 0
    dead = even != (coords.rows <= coords.cols)
    return y, dead, normalised_state(coords.hermitian(x), me.space,
                                     blocks=coords.labels)


@pytest.mark.parametrize("kind", MODELS)
@settings(max_examples=15, deadline=None)
@given(g=rates, gamma=rates, kappa=rates, c_prime=rates,
       r=st.floats(0.0, 1.5), field_dim=st.integers(2, 7))
# a two_qubit_full block of 120 unknowns, which fronts of at most _LEAF
# left 1.4e-12 from the whole-sector state and one front leaves 4e-15
@example(g=4.0, gamma=1 / 32, kappa=1 / 32, c_prime=1 / 32, r=0.5,
         field_dim=5)
# where the unrefined SuperLU reference was 1.7e-12 off (full_sector_solve)
@example(g=1.0, gamma=1 / 32, kappa=2.75, c_prime=1 / 64, r=1.0,
         field_dim=3)
def test_unfactored_block_is_exactly_zero(kind, g, gamma, kappa, c_prime, r,
                                          field_dim):
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    y, dead, expected = full_sector_solve(me)
    # the whole-sector factorization leaves the block away from the trace
    # row at exactly 0, and its refined state is the block solve's,
    # another factorisation, to roundoff
    assert np.all(y[dead] == 0)
    assert trace_distance(steady_state(me), expected) <= 1e-12


@pytest.mark.parametrize("kind, unknowns", [
    ("single_qubit_laser", 38),
    ("squeezed_laser_effective", 200),
    ("two_qubit_full", 800),
])
def test_detuning_joins_the_blocks(monkeypatch, kind, unknowns):
    factored = record_splu(monkeypatch)
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 10)
    a = annihilation(me.space)
    # delta a^dag a conserves the charge but is real, not imaginary, in
    # the i^n gauge, so it couples Re and Im of every pair it dephases
    me = dataclasses.replace(me, hamiltonian=me.hamiltonian
                             + 0.4 * (a.dag() @ a))
    rho = steady_state(me)
    assert factored == [(unknowns, np.float64)]
    assert trace_distance(rho, complex_full_steady(me)) <= 1e-12


def scipy_block_solve(matrix, rhs, plan):
    """lindblad.splu's stand-in: scipy's SuperLU, with its default
    COLAMD order and threshold pivoting over the whole block."""
    block = sp.csc_matrix((matrix.data, (matrix.rows, matrix.cols)),
                          shape=(matrix.n, matrix.n))
    return lindblad.Factorisation(scipy_splu(block).solve(rhs), 0)


@pytest.mark.parametrize("kind", MODELS)
@settings(max_examples=20, deadline=None)
@given(g=rates, gamma=rates, kappa=rates, c_prime=rates,
       r=st.floats(0.0, 1.5), field_dim=st.integers(2, 12),
       delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
# a laser pumped up to the truncation: the slowest-leaving population,
# |g,0>, holds next to nothing, and rooted there a front is singular
@example(g=2.0, gamma=5.0, kappa=0.01, c_prime=1.0, r=0.0, field_dim=11,
         delta=0.0)
def test_multifrontal_solve_matches_superlu(kind, g, gamma, kappa, c_prime,
                                            r, field_dim, delta):
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    a = annihilation(me.space)
    me = dataclasses.replace(me, hamiltonian=me.hamiltonian
                             + delta * (a.dag() @ a))
    rho = steady_state(me)
    # a re-solve repeats the bits
    assert np.array_equal(steady_state(me).matrix, rho.matrix)
    # the same bordered block, solved by SuperLU instead, with pivoting
    # across all of it rather than inside each front
    real = lindblad.splu
    lindblad.splu = scipy_block_solve
    try:
        expected = steady_state(me)
    finally:
        lindblad.splu = real
    assert trace_distance(rho, expected) <= 1e-12


@contextlib.contextmanager
def plan_memo():
    """lindblad's plan memo, empty inside the block and restored after;
    yields the list that the solves fill."""
    saved = lindblad._plans
    lindblad._plans = []
    try:
        yield lindblad._plans
    finally:
        lindblad._plans = saved


def record_analyses(monkeypatch) -> list:
    """Patch lindblad._Plan to record the order of each bordered matrix
    whose pattern it analyses."""
    analysed = []
    real = lindblad._Plan

    def recording(bordered, *args):
        analysed.append(bordered.n)
        return real(bordered, *args)

    monkeypatch.setattr(lindblad, "_Plan", recording)
    return analysed


def bordered_outcome(me, band):
    """The bytes of the bordered solve's unchecked solution, or the error
    that stopped it."""
    try:
        return lindblad._bordered_solve(me, band)[3].tobytes()
    except DegenerateSteadyStateError as exc:
        return str(exc)


model_rates = st.tuples(rates, rates, rates, rates)


def same_pattern(a, b) -> bool:
    """Whether two plans were made for one bordered pattern, mesh and
    trace row."""
    return (a.root == b.root and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
            and np.array_equal(a.points, b.points))


@pytest.mark.parametrize("kind", MODELS)
@settings(max_examples=10, deadline=None)
@given(first=model_rates, second=model_rates, r=st.floats(0.0, 1.5),
       field_dim=st.integers(3, 20), band=st.integers(1, 19))
# at r = 5e-324 one model's generator entry underflows to an exact zero,
# which the assembly drops: the two bordered patterns differ
@example(first=(1.0, 1.0, 1.0, 1.0), second=(1.0, 1.0, 0.5, 1.0), r=5e-324,
         field_dim=3, band=1)
# for the single laser, the second model's root holds 7.5e-11 of the
# largest population, and is factored once like any other
@example(first=(1.0, 1.0, 1.0, 1.0), second=(1.0, 3.0, 0.03125, 1.0), r=0.0,
         field_dim=13, band=1)
# and the first model's, 7.7e-11
@example(first=(1.0, 3.0, 0.01171875, 1.0), second=(1.0, 1.0, 1.0, 1.0),
         r=0.0, field_dim=8, band=1)
def test_a_reused_plan_solves_bit_for_bit_as_a_fresh_one(
        kind, first, second, r, field_dim, band):
    band = min(band, field_dim - 1)
    me = build_model(kind, *second, r, field_dim)
    with plan_memo() as plans:
        cold = bordered_outcome(me, band)
        fresh = list(plans)
    with plan_memo() as plans:
        bordered_outcome(build_model(kind, *first, r, field_dim), band)
        made = list(plans)
        warm = bordered_outcome(me, band)
        # each plan of the fresh solve is one the first model made, reused
        # for other rates on the same pattern, or one analysed anew; a
        # reused plan moves to the end of the memo, and none is dropped
        new = [p for p in plans if not any(p is q for q in made)]
        assert len(plans) == len(made) + len(new)
        assert len(new) == sum(not any(same_pattern(p, q) for q in made)
                               for p in fresh)
        assert all(any(same_pattern(p, q) for q in fresh) for p in new)
    assert warm == cold


def test_a_new_pattern_gets_its_own_analysis(monkeypatch):
    analysed = record_analyses(monkeypatch)
    squeezed = build_model("squeezed_laser_effective", 0.7, 1.0, 0.3, 2.0,
                           0.5, 12)
    # v = 0 drops the bare decay's squeezing terms: as many unknowns, a
    # sparser pattern
    plain = build_model("squeezed_laser_effective", 0.7, 1.0, 0.3, 2.0,
                        0.0, 12)
    cases = [(plain, None), (squeezed, 6), (squeezed, 7)]
    with plan_memo():
        cold = [bordered_outcome(me, band) for me, band in cases]
    del analysed[:]
    with plan_memo() as plans:
        warm = [bordered_outcome(me, band)
                for me, band in [(squeezed, None), *cases]]
        assert len(plans) == len(analysed) == 4
    assert warm[1:] == cold
    assert analysed[0] == analysed[1] > analysed[3] > analysed[2]


# the bands that each run factors, in order
SWEEP_BANDS = {"squeezed_laser": [20, 30, 20, 20, 20],
               "two_qubit_full": [20, 20], "wigner_panels": [20, 59]}


@pytest.mark.parametrize("scenario, settings, solves, patterns", [
    # the perfbench squeezed_sweep: the C~ = 1.5 point grows its band once
    ("squeezed_laser", {"sweep": {"param": "c_tilde", "start": 1.5,
                                  "stop": 6.0, "steps": 4},
                        "numerics": {"field_dim": 60}}, 5, 2),
    # the two-qubit model and the effective one
    ("two_qubit_full", {"numerics": {"field_dim": 40}}, 2, 2),
    # the desk panels: C' = 10 on the ansatz's band, C' = 0.01 whole
    ("wigner_panels", {}, 2, 2),
])
def test_a_sweep_analyses_each_pattern_once(monkeypatch, caplog, scenario,
                                            settings, solves, patterns):
    monkeypatch.setattr(lindblad, "_plans", [])
    analysed = record_analyses(monkeypatch)
    factored = record_splu(monkeypatch)
    bands = factored_bands(caplog, build_config(scenario, preset="desk",
                                                overrides=settings))
    assert (len(factored), len(analysed)) == (solves, patterns)
    assert bands == SWEEP_BANDS[scenario]


def factored_bands(caplog, config) -> list[int]:
    """Run a scenario and return the band of each LU it factored, in
    order, from the LUs' INFO lines."""
    with caplog.at_level(logging.INFO, logger="squeezed_lasing.lindblad"):
        scenarios.run_scenario(config)
    return [int(m.group(1)) for m in map(
        re.compile(r"field_dim \d+, band (\d+): \d+ unknowns factored").match,
        caplog.messages) if m]


# paper-2013 runs whose roots the state barely holds: the single laser's
# at fd 40 and 60, and the C' = 0.01 panel's at fd 60, 90 and 135 after
# the C' = 8.808 panel's band of 30 at fd 60.  Each band is factored once.
@pytest.mark.parametrize("scenario, bands", [
    ("single_laser", [39, 59]),
    ("wigner_panels", [30, 28, 50, 84]),
])
def test_a_paper_run_factors_each_band_once(monkeypatch, caplog, scenario,
                                            bands):
    monkeypatch.setattr(lindblad, "_plans", [])
    factored = record_splu(monkeypatch)
    assert factored_bands(caplog, build_config(
        scenario, preset="paper-2013")) == bands
    assert len(factored) == len(bands)


def root_shares(me) -> tuple[list, DensityMatrix]:
    """steady_state(me) on its whole sector, and for each root that its
    bordered solve factored, in order, what the root holds as a fraction
    of the largest population, or None where a front was singular."""
    shares = []
    real = lindblad._rooted_solve

    def recording(coords, lmat, root):
        try:
            y = real(coords, lmat, root)
        except DegenerateSteadyStateError:
            shares.append(None)
            raise
        shares.append(y[root] / y[coords.diagonal].max())
        return y

    lindblad._rooted_solve = recording
    try:
        return shares, steady_state(me)
    finally:
        lindblad._rooted_solve = real


# two_qubit_full at g = 1, kappa = 1/64, C' = 1/8, r ~ 0: the root, the
# population that leaves slowest, holds 3e-12 to 7e-11 of the largest
# one, and its solve leaves 2e-17 of the scale.  Factored once, the state
# lands at roundoff from the whole-sector one; rooted again at the largest
# population, the solve left 1e-8 of the scale or more, which failed the
# residual or the positivity check.
@pytest.mark.parametrize("gamma, field_dim", [(2.0, 12), (3.0, 12),
                                              (4.0, 11)])
def test_a_barely_held_root_is_factored_once(gamma, field_dim):
    me = build_model("two_qubit_full", 1.0, gamma, 1 / 64, 1 / 8, 1.2e-38,
                     field_dim)
    [share], rho = root_shares(me)
    assert share < 1e-10
    assert trace_distance(rho, full_sector_solve(me)[2]) <= 1e-12


@pytest.mark.parametrize("kind", MODELS)
@settings(max_examples=15, deadline=None)
@given(g=rates, gamma=rates, kappa=st.one_of(rates, st.floats(0.01, 0.05)),
       c_prime=rates, r=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
       field_dim=st.integers(3, 20))
@example(g=1.0, gamma=2.0, kappa=1 / 64, c_prime=1 / 8, r=1.2e-38,
         field_dim=12)
@example(g=1.0, gamma=3.0, kappa=1 / 64, c_prime=1 / 8, r=1.2e-38,
         field_dim=12)
@example(g=1.0, gamma=4.0, kappa=1 / 64, c_prime=1 / 8, r=1.2e-38,
         field_dim=11)
@example(g=1.0, gamma=3.0, kappa=1 / 32, c_prime=1.0, r=0.0, field_dim=13)
def test_a_root_is_factored_again_only_after_a_singular_front(
        kind, g, gamma, kappa, c_prime, r, field_dim):
    # kappa << gamma pumps the laser up to the truncation, where the
    # root can be a population that the state barely holds
    me = build_model(kind, g, gamma, kappa, c_prime, r, field_dim)
    shares, rho = root_shares(me)
    *singular, kept = shares
    assert singular in ([], [None])
    target(-math.log10(max(abs(kept), 1e-300)),
           label="decades the root holds below the largest population")
    # a barely held root passes its checks in one factorisation, and so
    # does the root after a singular front: both land at roundoff from
    # the refined whole-sector state
    if singular or kept < 1e-10:
        assert trace_distance(rho, full_sector_solve(me)[2]) <= 1e-12


def test_a_plan_from_copied_arrays_solves_as_the_memos_did(monkeypatch):
    # the bordered solve's pattern, analysed again from copies of its
    # arrays: the new plan's numeric pass repeats the memo plan's bits
    made, factored = [], []
    real_plan, real_splu = lindblad._Plan, lindblad.splu

    def planning(*args):
        made.append(args)
        return real_plan(*args)

    def recording(*args):
        factored.append(args)
        return real_splu(*args)

    monkeypatch.setattr(lindblad, "_Plan", planning)
    monkeypatch.setattr(lindblad, "splu", recording)
    me = build_model("two_qubit_full", 0.7, 1.0, 0.3, 2.0, 0.5, 10)
    with plan_memo():
        lindblad._bordered_solve(me, None)
    [(bordered, points, root)] = made
    [(block, b, plan)] = factored
    copy = real_plan(lindblad.SparseMatrix(
        bordered.rows.copy(), bordered.cols.copy(), bordered.data.copy(),
        bordered.n), points.copy(), root)
    assert copy is not plan and copy.fits(bordered, points, root)
    again = lindblad.SparseMatrix(copy.block_rows, copy.block_cols,
                                  bordered.data[copy.take], copy.live.size)
    assert (real_splu(again, b, copy).solution.tobytes()
            == real_splu(block, b, plan).solution.tobytes())
    # nbytes counts every array that the plan keeps, in lists or not
    kept = []
    for value in vars(copy).values():
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, np.ndarray):
                kept.append(item)
            elif isinstance(item, list):
                stack += item
    assert len(kept) > 10
    assert copy.nbytes() == sum(a.nbytes for a in kept)


def test_the_plan_memo_keeps_at_most_its_bytes(monkeypatch):
    me = build_model("squeezed_laser_effective", 0.7, 1.0, 0.3, 2.0, 0.5, 12)
    bands = range(1, 8)
    with plan_memo() as widest:
        lindblad._bordered_solve(me, bands[-1])
    # room for two plans of the widest band
    monkeypatch.setattr(lindblad, "_PLAN_BYTES", 2 * widest[0].nbytes())
    plans = []
    monkeypatch.setattr(lindblad, "_plans", plans)
    analysed = record_analyses(monkeypatch)
    for band in bands:
        lindblad._bordered_solve(me, band)
        assert sum(plan.nbytes() for plan in plans) <= lindblad._PLAN_BYTES
    assert len(analysed) == len(bands) and 1 < len(plans) < len(bands)
    # the most recent band is kept, the least recent is analysed again
    for band in (bands[-1], bands[0]):
        lindblad._bordered_solve(me, band)
    assert len(analysed) == len(bands) + 1
    # a plan larger than the memo stays alone, until the next one
    monkeypatch.setattr(lindblad, "_PLAN_BYTES", widest[0].nbytes() - 1)
    lindblad._bordered_solve(me, 11)
    assert len(plans) == 1 and len(analysed) == len(bands) + 2


def dense_hamiltonian(kind, me, g, c_prime, r):
    """The model Hamiltonian from dense Operator products, as written in
    the model docstrings."""
    mode = annihilation(me.space)
    sigma, _, _ = qubit_ops(me.space, 0)
    h = -g * (mode.dag() @ sigma.dag() + mode @ sigma)
    if kind != "two_qubit_full":
        return h
    bare = DressedCoupling.from_r(r, g_tilde=g).bare_from_mode(me.space)
    aux_mode = math.sinh(r) * bare + math.cosh(r) * bare.dag()
    sigma_aux, _, _ = qubit_ops(me.space, 1)
    return h - c_prime * g * (aux_mode.dag() @ sigma_aux.dag()
                              + aux_mode @ sigma_aux)


@pytest.mark.parametrize("kind", MODELS)
def test_model_operators_equal_dense_products(kind):
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 10)
    expected = dense_hamiltonian(kind, me, 0.7, 2.0, 0.5)
    assert np.array_equal(me.hamiltonian.matrix, expected.matrix)
    sigma, _, _ = qubit_ops(me.space, 0)
    mode = annihilation(me.space)
    bare = DressedCoupling.from_r(0.5, g_tilde=0.7).bare_from_mode(me.space)
    if kind == "single_qubit_laser":
        jumps = [sigma, mode]
    elif kind == "squeezed_laser_effective":
        jumps = [sigma, bare, mode]
    else:
        jumps = [sigma, qubit_ops(me.space, 1)[0], bare]
    assert len(me.terms) == len(jumps)
    for term, jump in zip(me.terms, jumps):
        assert np.array_equal(term.jump.matrix, jump.matrix)


@pytest.mark.parametrize("kind", MODELS)
def test_broken_charge_raises(kind):
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 5)
    a = annihilation(me.space)
    # a coherent drive changes the photon number by one either way
    with pytest.raises(ValueError, match="Hamiltonian does not conserve"):
        dataclasses.replace(me, hamiltonian=me.hamiltonian
                            + 0.4 * (a + a.dag()))
    # loss plus dephasing in one jump mixes a parity-odd and a parity-even
    # part, so it maps the sector onto its complement as well
    mixed = LindbladTerm(a + a.dag() @ a, 0.2)
    with pytest.raises(ValueError, match=f"jump operator {len(me.terms)}"):
        dataclasses.replace(me, terms=(*me.terms, mixed))
    with pytest.raises(ValueError, match="one integer per basis state"):
        dataclasses.replace(me, charge=me.charge[:-1])


@pytest.mark.parametrize("kind", MODELS)
def test_charge_preserving_dephasing_keeps_the_sector(kind):
    # pure dephasing shifts no charge, so the sector stays closed
    me = build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, 6)
    a = annihilation(me.space)
    dephased = dataclasses.replace(
        me, terms=(*me.terms, LindbladTerm(a.dag() @ a, 0.3)))
    assert trace_distance(steady_state(dephased),
                          steady_state(charge_free(dephased))) <= 1e-12


def test_liouvillian_trace_null_enforced():
    import scipy.sparse as sp

    space = HilbertSpace(n_qubits=0, field_dim=2)
    with pytest.raises(ValueError):
        Liouvillian(matrix=sp.identity(4, format="csc"), space=space)


def test_pump_inversion_conjugation_spectrum():
    # relabeling sigma <-> sigma^dag maps the inverted-coupling laser onto
    # the co-rotating laser with pumped qubit; spectra must coincide
    space = HilbertSpace(n_qubits=1, field_dim=6)
    g, gamma, kappa = 0.8, 1.0, 0.25
    a = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    inverted = model_single_qubit_laser(g, gamma, kappa, space)
    h = -g * (a.dag() @ sigma + a @ sigma.dag())
    pumped = MasterEquation(
        hamiltonian=h,
        terms=(LindbladTerm(sigma.dag(), gamma), LindbladTerm(a, kappa)))
    e1 = np.linalg.eigvals(liouvillian_matrix(inverted).matrix.toarray())
    e2 = np.linalg.eigvals(liouvillian_matrix(pumped).matrix.toarray())
    cost = np.abs(e1[:, None] - e2[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8


def test_evolve_zero_generator_and_store():
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 /= np.linalg.norm(psi0)
    times, psis = schrodinger_evolve(np.zeros((3, 3)), psi0, 2.0,
                                     n_store=5)
    assert times.shape == (5,)
    np.testing.assert_allclose(times, np.linspace(0.0, 2.0, 5))
    assert psis.shape == (5, 3)
    for psi in psis:
        np.testing.assert_allclose(psi, psi0, atol=1e-9)


def test_evolve_coherence_rotation():
    space = HilbertSpace(n_qubits=0, field_dim=4)
    omega = 1.3
    a = annihilation(space)
    h = omega * (a.dag() @ a)
    psi = np.zeros(4, dtype=complex)
    psi[:3] = 1 / math.sqrt(3)
    t = 0.7
    _, psis = schrodinger_evolve(h.matrix, psi, t)
    final = np.outer(psis[-1], psis[-1].conj())
    levels = np.arange(4)
    expected = np.outer(psi, psi.conj()) * np.exp(
        -1j * omega * t * (levels[:, None] - levels[None, :]))
    np.testing.assert_allclose(final, expected, atol=1e-7)


def test_single_qubit_laser_steady_methods_agree():
    space = HilbertSpace(n_qubits=1, field_dim=14)
    me = model_single_qubit_laser(g=math.sqrt(0.8), gamma=1.0, kappa=0.2,
                                  space=space)
    direct = steady_state(me)
    relaxed = steady_evolve(me)
    assert trace_distance(direct, relaxed) < 1e-6
    a = annihilation(space)
    n_direct = expectation(a.dag() @ a, direct).real
    n_relaxed = expectation(a.dag() @ a, relaxed).real
    assert n_direct == pytest.approx(n_relaxed, abs=1e-6)


def test_steady_state_pure_decay():
    space = HilbertSpace(n_qubits=0, field_dim=5)
    me = MasterEquation(hamiltonian=0.0 * annihilation(space),
                        terms=(LindbladTerm(annihilation(space), 0.4),))
    rho = steady_state(me)
    np.testing.assert_allclose(rho.matrix, fock_projector(space, 0),
                               atol=1e-10)


def test_steady_state_dark_laser():
    space = HilbertSpace(n_qubits=1, field_dim=6)
    me = model_single_qubit_laser(g=0.0, gamma=1.0, kappa=0.3, space=space)
    rho = steady_state(me)
    np.testing.assert_allclose(rho.matrix, fock_projector(space, 1, 0),
                               atol=1e-10)


def test_steady_state_degeneracy_detected():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    _, sigma_z, _ = qubit_ops(space, 0)
    free = MasterEquation(hamiltonian=1.0 * sigma_z, terms=())
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(free)
    nothing = MasterEquation(hamiltonian=0.0 * sigma_z, terms=())
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(nothing)


def degenerate_models() -> list:
    """The two models of test_steady_state_degeneracy_detected: a free
    qubit and nothing at all."""
    space = HilbertSpace(n_qubits=1, field_dim=1)
    _, sigma_z, _ = qubit_ops(space, 0)
    return [MasterEquation(hamiltonian=h * sigma_z, terms=())
            for h in (1.0, 0.0)]


@pytest.mark.parametrize("me", [
    *(build_model(kind, 0.7, 1.0, 0.3, 2.0, 0.5, fd)
      for kind, fd in zip(MODELS, (10, 10, 5))),
    # rates spread over cosh^2 r ~ 1e8: sigma_2 is 1e-10 of sigma_1
    build_model("squeezed_laser_effective", 1.0, 1.0, 0.002, 1.0, 10.0, 8),
    *degenerate_models(),
], ids=[*MODELS, "r10", "free_qubit", "nothing"])
def test_real_generator_screen_decides_as_the_complex_svd(me):
    d = me.space.dim
    svals = np.linalg.svd(liouvillian_matrix(me).matrix.toarray(),
                          compute_uv=False)
    degenerate = svals[-2] <= d * d * np.finfo(float).eps * svals[0]
    try:
        lindblad._screen_uniqueness(me)
    except DegenerateSteadyStateError:
        assert degenerate
    else:
        assert not degenerate
        # the real Hermitian coordinates scale each entry of rho by 1 or
        # sqrt(2), so the two SVDs' sigma_2 / sigma_1 agree within 4x
        lmat = lindblad._SectorCoordinates(
            np.zeros(d, dtype=int)).generator(me)
        real = np.linalg.svd(sp.csc_matrix(
            (lmat.data, (lmat.rows, lmat.cols)), shape=(d * d,) * 2
        ).toarray(), compute_uv=False)
        ratio = (real[-2] / real[0]) / (svals[-2] / svals[0])
        assert 0.25 <= ratio <= 4.0


def test_laser_cooperativity_scaling():
    # photon number approaches gamma/(2 kappa) from below as C grows
    gamma, kappa = 1.0, 0.1
    space = HilbertSpace(n_qubits=1, field_dim=24)
    numbers = {}
    for c in (3.0, 20.0):
        g = math.sqrt(c * gamma * kappa)
        rho = steady_state(model_single_qubit_laser(g, gamma, kappa, space))
        a = annihilation(space)
        numbers[c] = expectation(a.dag() @ a, rho).real
    assert numbers[20.0] > numbers[3.0]
    assert numbers[20.0] < gamma / (2 * kappa)
    pump = gamma * (20.0 - 1) / (2 * kappa * 20.0)
    assert numbers[20.0] == pytest.approx(pump, rel=0.15)


def test_laser_steady_field_is_number_diagonal():
    space = HilbertSpace(n_qubits=1, field_dim=16)
    me = model_single_qubit_laser(g=math.sqrt(0.5), gamma=1.0, kappa=0.1,
                                  space=space)
    rho_f = partial_trace(steady_state(me), keep=[1])
    off = rho_f.matrix - np.diag(np.diag(rho_f.matrix))
    assert np.max(np.abs(off)) < 1e-8


def test_squeezed_model_reduces_to_plain_laser():
    space = HilbertSpace(n_qubits=1, field_dim=7)
    plain = model_single_qubit_laser(g=0.83, gamma=1.0, kappa=0.2, space=space)
    dressed = DressedCoupling.from_r(0.0, g_tilde=0.83)
    squeezed = model_squeezed_laser_effective(dressed, 1.0, 0.2, 0.0, space)
    diff = (liouvillian_matrix(plain).matrix
            - liouvillian_matrix(squeezed).matrix)
    assert abs(diff).max() < 1e-15


def test_squeezed_model_rejects_swapped_branch():
    space = HilbertSpace(n_qubits=1, field_dim=7)
    with pytest.raises(ValueError):
        model_squeezed_laser_effective(dress(0.2, 0.16), 1.0, 0.2, 1.0, space)


@pytest.fixture(scope="module")
def squeezed_operating_point():
    gamma, kappa, c_prime, r = 1.0, 0.02, 10.0, 1.15
    g_tilde = math.sqrt(5 * gamma * kappa * (1 + c_prime))
    dressed = DressedCoupling.from_r(r, g_tilde=g_tilde)
    space = HilbertSpace(n_qubits=1, field_dim=30)
    me = model_squeezed_laser_effective(dressed, gamma, kappa, c_prime, space)
    return me, steady_state(me)


def test_squeezed_steady_photon_number(squeezed_operating_point):
    # cooperativity 5 at kappa/gamma = 0.02, r = 1.15, engineered-channel
    # cooperativity 10: the mean-field photon number is the coherent pump
    # gamma(C-1)/(2 kappa C (1+C')) plus the squeezed-ring width
    # sinh^2 r/(1+C'); the exact solve sits within the finite-size band
    me, rho = squeezed_operating_point
    a = annihilation(me.space)
    n_mode = expectation(a.dag() @ a, rho).real
    pump = 1.0 * (5 - 1) / (2 * 0.02 * 5 * (1 + 10.0))
    ring = math.sinh(1.15) ** 2 / (1 + 10.0)
    assert n_mode == pytest.approx(pump + ring, rel=0.25)


def test_squeezed_steady_parity_and_squeeze_axis(squeezed_operating_point):
    # the bare-mode decay channel mixes A and A^dag, which breaks the
    # phase symmetry of the plain laser down to photon-number parity:
    # odd coherences vanish identically and <A> = 0, but the squeeze
    # axis stays pinned and shows up as a Delta n = 2 coherence whose
    # size the Gaussian fluctuation ellipse predicts
    me, rho = squeezed_operating_point
    a = annihilation(me.space)
    assert abs(expectation(a, rho)) < 1e-8
    rho_f = partial_trace(rho, keep=[1])
    fd = me.space.field_dim
    m, n = np.meshgrid(np.arange(fd), np.arange(fd), indexing="ij")
    assert np.max(np.abs(rho_f.matrix[(m - n) % 2 == 1])) < 1e-10
    r, cp = 1.15, 10.0
    r_t = 0.25 * math.log((math.exp(2 * r) + cp) / (math.exp(-2 * r) + cp))
    n_t = (math.sqrt((math.exp(2 * r) + cp) * (math.exp(-2 * r) + cp))
           / (1 + cp) - 1) / 2
    predicted = (2 * n_t + 1) * math.sinh(2 * r_t) / 2
    mom2 = expectation(a @ a, rho)
    assert abs(mom2.imag) < 1e-10
    assert mom2.real == pytest.approx(predicted, rel=0.25)


def test_two_qubit_aux_coupling_is_rotating():
    # with exactly swapped drive depths the auxiliary mode is the adjoint
    # of the lasing mode, so its coupling term is a plain rotating one
    space = HilbertSpace(n_qubits=2, field_dim=6)
    dressed = dress(0.1, 0.2, g=1.7)
    dressed_aux = dress(0.2, 0.1, g=0.4)
    me = model_two_qubit_full(dressed, dressed_aux, 1.0, 0.8, 0.1, space)
    mode = annihilation(space)
    sigma, _, _ = qubit_ops(space, 0)
    sigma_aux, _, _ = qubit_ops(space, 1)
    expected = (-dressed.g_tilde * (mode.dag() @ sigma.dag() + mode @ sigma)
                - dressed_aux.g_tilde * (mode @ sigma_aux.dag()
                                         + mode.dag() @ sigma_aux))
    np.testing.assert_allclose(me.hamiltonian.matrix, expected.matrix,
                               atol=1e-12)


def test_two_qubit_decoupled_aux_traces_out():
    space2 = HilbertSpace(n_qubits=2, field_dim=8)
    space1 = HilbertSpace(n_qubits=1, field_dim=8)
    dressed = dress(0.1, 0.2, g=2.0)
    silent_aux = dress(0.2, 0.1, g=0.0)
    full = model_two_qubit_full(dressed, silent_aux, 1.0, 0.8, 0.1, space2)
    reduced = partial_trace(steady_state(full), keep=[0, 2])
    effective = model_squeezed_laser_effective(dressed, 1.0, 0.1, 0.0, space1)
    assert trace_distance(reduced, steady_state(effective)) < 1e-6


def test_adiabatic_elimination_flag():
    assert adiabatic_elimination_ok(10.0, 0.1, 4.0)
    assert not adiabatic_elimination_ok(1.0, 0.1, 4.0)
    assert adiabatic_elimination_ok(0.0, 0.0, 0.0)


def test_partial_trace_product_state():
    qubit = HilbertSpace(n_qubits=1, field_dim=1)
    space = HilbertSpace(n_qubits=1, field_dim=4)
    rho_q = np.array([[0.7, 0.2j], [-0.2j, 0.3]], dtype=complex)
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_f = m @ m.conj().T
    rho_f /= np.trace(rho_f).real
    joint = DensityMatrix(space, np.kron(rho_q, rho_f))
    np.testing.assert_allclose(partial_trace(joint, [0]).matrix, rho_q,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, [1]).matrix, rho_f,
                               atol=1e-12)
    assert partial_trace(joint, [0]).space == qubit


def test_partial_trace_bell_pair():
    space = HilbertSpace(n_qubits=2, field_dim=1)
    psi = np.zeros(4, dtype=complex)
    psi[space.basis_index(0, 0, 0)] = 1 / math.sqrt(2)
    psi[space.basis_index(1, 1, 0)] = 1 / math.sqrt(2)
    rho = DensityMatrix(space, np.outer(psi, psi.conj()))
    for keep in ([0], [1]):
        red = partial_trace(rho, keep)
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
        assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bad_factors():
    space = HilbertSpace(n_qubits=1, field_dim=3)
    rho = random_density(space, 9)
    for keep in ([], [1, 0], [0, 0], [2]):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)


def test_fidelity_identity_and_pure_overlap():
    space = HilbertSpace(n_qubits=0, field_dim=5)
    rho = random_density(space, 21)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(22)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    p1 = DensityMatrix(space, np.outer(psi, psi.conj()))
    p2 = DensityMatrix(space, np.outer(phi, phi.conj()))
    overlap = abs(np.vdot(psi, phi)) ** 2
    assert fidelity(p1, p2) == pytest.approx(overlap, rel=1e-8)


def test_fidelity_symmetric_and_validates():
    space = HilbertSpace(n_qubits=0, field_dim=6)
    rho = random_density(space, 31)
    sigma = random_density(space, 32)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho),
                                                 abs=1e-8)
    assert 0.0 <= fidelity(rho, sigma) <= 1.0
    bad = np.eye(6, dtype=complex)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        fidelity(rho, Operator(space, bad))


def test_fidelity_rejects_deep_negativity():
    space = HilbertSpace(n_qubits=0, field_dim=2)
    m = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(InvalidStateError):
        fidelity(Operator(space, m), Operator(space, np.eye(2) / 2))


def test_trace_distance_basics():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    e = DensityMatrix(space, fock_projector(space, 0, 0))
    g = DensityMatrix(space, fock_projector(space, 1, 0))
    assert trace_distance(e, g) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(e, e) == pytest.approx(0.0, abs=1e-12)


def test_schrodinger_evolve_rabi():
    space = HilbertSpace(n_qubits=1, field_dim=1)
    _, _, sigma_x = qubit_ops(space, 0)
    omega = 2.1
    h = 0.5 * omega * sigma_x

    times, psis = schrodinger_evolve(h.matrix, np.array([0.0, 1.0]), 3.0,
                                     n_store=7)
    for t, psi in zip(times, psis):
        u = expm(-1j * h.matrix * t)
        np.testing.assert_allclose(psi, u @ np.array([0, 1.0]), atol=1e-7)
    with pytest.raises(ValueError):
        schrodinger_evolve(h.matrix, np.array([0.0, 2.0]), 1.0)
    with pytest.raises(ValueError, match="t_final"):
        schrodinger_evolve(h.matrix, np.array([0.0, 1.0]), -3.0)


def test_schrodinger_evolve_zero_time_returns_psi0_at_every_sample():
    psi0 = np.array([0.6, 0.8j])
    times, psis = schrodinger_evolve(np.eye(2), psi0, 0.0, n_store=5)
    assert np.array_equal(times, np.zeros(5))
    assert psis.shape == (5, 2)
    for psi in psis:
        assert np.array_equal(psi, psi0)


def test_schrodinger_evolve_rejects_a_bad_hamiltonian():
    psi0 = np.array([1.0, 0.0])
    # the batched contract: a callable that ignores the times is refused
    with pytest.raises(ValueError, match="shape"):
        schrodinger_evolve(lambda t: np.eye(2), psi0, 1.0)
    with pytest.raises(ValueError, match="shape"):
        schrodinger_evolve(np.eye(3), psi0, 1.0)
    with pytest.raises(ValueError, match="t_final"):
        schrodinger_evolve(np.eye(2), psi0, math.inf)
    # a non-finite Hamiltonian fails the minimum-step check, not a loop
    with pytest.raises(RuntimeError, match="integrator failed"):
        schrodinger_evolve(np.full((2, 2), np.nan), psi0, 1.0)


def test_schrodinger_evolve_writes_none_of_its_inputs():
    rng = np.random.default_rng(7)
    d = 4
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    matrix = m + m.conj().T
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 /= np.linalg.norm(psi0)
    psi0_bytes, matrix_bytes = psi0.tobytes(), matrix.tobytes()
    _, constant = schrodinger_evolve(matrix, psi0, 2.0, n_store=5)
    assert psi0.tobytes() == psi0_bytes
    assert matrix.tobytes() == matrix_bytes
    # a callable that returns one cached, writable stack per batch size
    cache = {}

    def cached(times):
        if times.size not in cache:
            cache[times.size] = np.repeat(matrix[np.newaxis], times.size, 0)
        return cache[times.size]

    _, psis = schrodinger_evolve(cached, psi0, 2.0, n_store=5)
    assert psi0.tobytes() == psi0_bytes
    assert sorted(cache) == [1, 5]
    for n, stack in cache.items():
        assert stack.flags.writeable
        assert stack.tobytes() == np.repeat(matrix[np.newaxis], n, 0).tobytes()
    assert np.array_equal(psis, constant)
    # the returned states are the caller's to write
    assert not np.shares_memory(psis, psi0)


def _rk45_samples(hamiltonian, psi0, t_final, n_store):
    """scipy's RK45 on -i H(t) psi with one H(t) per call, sampled as
    ``schrodinger_evolve`` samples, with the counts of accepted and
    attempted steps and whether the last step was clipped to t_final."""
    from scipy.integrate import RK45

    sample_times = np.linspace(0.0, t_final, max(2, n_store))
    stepper = RK45(lambda t, psi: -1j * (hamiltonian(t) @ psi), 0.0, psi0,
                   t_final, rtol=1e-8, atol=1e-10)
    psis, accepted = [psi0], 0
    while stepper.status == "running":
        proposed = stepper.h_abs
        assert stepper.step() is None
        accepted += 1
        while (len(psis) < len(sample_times)
               and sample_times[len(psis)] <= stepper.t + 1e-15):
            ts = sample_times[len(psis)]
            psis.append(stepper.dense_output()(ts) if ts < stepper.t
                        else stepper.y)
    # six right-hand sides per attempt, plus two for the initial step
    attempts, spare = divmod(stepper.nfev - 2, 6)
    assert spare == 0
    clipped = stepper.t_old + proposed > t_final
    return (sample_times[:len(psis)], np.asarray(psis), accepted, attempts,
            clipped)


def test_schrodinger_evolve_takes_scipy_rk45_steps_bit_for_bit():
    # the desk RWA check's Hamiltonian at field_dim 6, over g~t <= 0.5
    params = SystemParams.at_sidebands(epsilon=250.0, omega=112.5, g=1.0,
                                       eta1=0.1, eta2=0.2)
    space = HilbertSpace(n_qubits=1, field_dim=6)
    hamiltonian = interaction_picture_hamiltonian(params, space)
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[space.basis_index(0, 0)] = 1.0
    t_final = 0.5 / dress(0.1, 0.2).g_tilde
    times, psis, accepted, attempts, clipped = _rk45_samples(
        hamiltonian, psi0, t_final, 11)
    # the run exercises the rejected-step branch and the clipped last step
    assert attempts > accepted
    assert clipped
    calls = []

    def counted(t):
        calls.append(np.size(t))
        return hamiltonian(t)

    new_times, new_psis = schrodinger_evolve(counted, psi0, t_final,
                                             n_store=11)
    assert np.array_equal(new_times, times)
    assert np.array_equal(new_psis, psis)
    # one call at the five stage times of each attempt, two to start
    assert calls == [1, 1] + [5] * attempts


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       t_final=st.floats(0.05, 4.0), n_store=st.integers(2, 9))
def test_schrodinger_evolve_matches_scipy_rk45_property(dim, seed, t_final,
                                                        n_store):
    # H(t) = sum_k cos(w_k t + phi_k) M_k over a random Hermitian 4-stack
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
    stack = (m + np.conj(np.swapaxes(m, 1, 2))).reshape(4, -1)
    freqs = rng.uniform(0.0, 40.0, size=4)
    phases = rng.uniform(0.0, 2 * np.pi, size=4)

    def hamiltonian(t):
        t = np.asarray(t, dtype=float)
        weights = np.cos(t[..., np.newaxis] * freqs + phases)
        return (weights @ stack).reshape(t.shape + (dim, dim))

    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    times, psis, *_ = _rk45_samples(hamiltonian, psi0, t_final, n_store)
    new_times, new_psis = schrodinger_evolve(hamiltonian, psi0, t_final,
                                             n_store=n_store)
    assert np.array_equal(new_times, times)
    np.testing.assert_allclose(new_psis, psis, rtol=0, atol=1e-13)

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx import (
    CyclicGroup,
    DirectProductGroup,
    EigenResult,
    FreeAbelianGroup,
    FreeGroup,
    GaussianRational,
    Homomorphism,
    RingElement,
    RingMatrix,
    SpectralDensity,
    TrivialGroup,
    betti,
    density_from_eigs,
    finite_spectrum,
    free_abelian_quotient,
    log_det,
    positive_square,
    product_group,
    symmetric_group,
)
from l2approx import schemes, spectral, verdicts
from l2approx.cw import laplacians
from l2approx.errors import InfiniteGroup, MalformedGroup, NotHermitian
from l2approx.oracles import torus_eigen_result
from l2approx.spectral import _cyclic_split, default_kernel_threshold
from l2approx.verdicts import Context, densities_match

from conftest import (
    SEED,
    at_threshold,
    density_of_counts,
    fixture_complex,
    random_group_element,
    random_self_adjoint,
    trace_power_exact,
)
from dense_reference import (
    DEFAULT_EIG_TOL,
    _require_hermitian,
    hermitian_eigenvalues,
    outer_phase,
    regular_representation,
    symbol_stack,
)


@pytest.fixture(scope="module")
def z4_circulant(z_laplacian):
    q4 = free_abelian_quotient(1, 4)
    return z_laplacian.push_forward(q4)


def test_regular_representation_circulant(z4_circulant):
    h = regular_representation(z4_circulant)
    assert h.shape == (4, 4)
    assert np.allclose(h[0], [2, -1, 0, -1])
    assert np.allclose(h, h.T)


def test_regular_representation_identity_and_shift(s3):
    group = CyclicGroup(5)
    ident = RingMatrix.identity(group, 3)
    assert np.allclose(regular_representation(ident), np.eye(15))
    shift = RingMatrix.from_element(RingElement.delta(group, 2))
    h = regular_representation(shift)
    assert h.shape == (5, 5)
    assert np.allclose(h @ h.T, np.eye(5))  # permutation matrix
    assert np.allclose(h.sum(axis=0), 1)
    # a non-central element of S3 tells left from right multiplication
    elems = s3.elements()
    idx = {x: i for i, x in enumerate(elems)}
    g = next(
        x for x in elems if any(s3.multiply(x, y) != s3.multiply(y, x) for y in elems)
    )
    h = regular_representation(RingMatrix.from_element(RingElement.delta(s3, g)))
    expected = np.zeros((len(elems), len(elems)))
    for y in elems:
        expected[idx[s3.multiply(g, y)], idx[y]] = 1.0
    assert np.array_equal(h, expected)
    right = np.zeros_like(expected)
    for y in elems:
        right[idx[s3.multiply(y, g)], idx[y]] = 1.0
    assert not np.array_equal(h, right)


def test_regular_representation_infinite_raises(z_laplacian):
    with pytest.raises(InfiniteGroup):
        regular_representation(z_laplacian)


def test_hermitian_eigenvalues_examples(z4_circulant):
    w = hermitian_eigenvalues(regular_representation(z4_circulant))
    assert np.allclose(w, [0, 2, 2, 4], atol=1e-12)
    assert np.allclose(hermitian_eigenvalues(np.eye(6)), np.ones(6))
    assert np.allclose(hermitian_eigenvalues(np.zeros((4, 4))), np.zeros(4))
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def jacobi_eigenvalues(h: np.ndarray, tol: float = DEFAULT_EIG_TOL, max_sweeps: int = 100) -> np.ndarray:
    """Cyclic Jacobi eigenvalues of a Hermitian matrix.

    Self-contained cross-check for the LAPACK backend; complex input is
    handled through the 2n real embedding [[Re, -Im], [Im, Re]], whose
    spectrum is that of the input with every eigenvalue doubled.  Converges
    when the off-diagonal Frobenius norm drops below tol times the Frobenius
    norm of the input.  Intended for modest sizes (n up to a few hundred).
    """
    h = _require_hermitian(h, tol)
    if h.size == 0:
        return np.zeros(0)
    if np.iscomplexobj(h):
        a = np.block([[h.real, -h.imag], [h.imag, h.real]])
        w = jacobi_eigenvalues(a, tol=tol, max_sweeps=max_sweeps)
        return w[::2]
    a = np.array(h, dtype=np.float64)
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    if norm == 0.0 or n == 1:
        return np.sort(np.diag(a))
    threshold = tol * norm
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off < threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
    else:
        raise ArithmeticError(f"Jacobi sweep limit {max_sweeps} reached before convergence")
    return np.sort(np.diag(a))


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(SEED)
    for n in (2, 5, 17, 40):
        a = rng.standard_normal((n, n))
        h = a + a.T
        assert np.allclose(jacobi_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-9)
    for n in (3, 12, 25):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        assert np.allclose(jacobi_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-9)


def test_character_path_matches_dense():
    rng = random.Random(SEED)
    groups = [
        CyclicGroup(6),
        product_group([CyclicGroup(2), CyclicGroup(4)]),
        product_group([CyclicGroup(3), CyclicGroup(3), CyclicGroup(2)]),
        TrivialGroup(),
    ]
    for group in groups:
        for _ in range(5):
            delta = random_self_adjoint(group, rng, d=2)
            dense = hermitian_eigenvalues(regular_representation(delta))
            chars = finite_spectrum(delta).eigenvalues
            assert np.allclose(dense, chars, atol=1e-9)


def test_density_examples(z4_circulant):
    eig = finite_spectrum(z4_circulant)
    f = density_from_eigs(eig)
    assert f.evaluate(0.0) == 0.25
    assert f.evaluate(2.0) == 0.75
    assert f.evaluate(4.0) == 1.0
    assert betti(f) == 0.25
    assert math.isclose(log_det(eig), math.log(2))

    group = CyclicGroup(3)
    ident = RingMatrix.identity(group, 2)
    f_id = density_from_eigs(finite_spectrum(ident))
    assert f_id.jumps == ((1.0, 6),)
    assert betti(f_id) == 0.0
    assert log_det(finite_spectrum(ident)) == 0.0

    zero = RingMatrix.zero(group, 2, 2)
    f_zero = density_from_eigs(finite_spectrum(zero))
    assert f_zero.jumps == ((0.0, 6),)
    assert betti(f_zero) == 2.0
    assert log_det(finite_spectrum(zero)) == 0.0


@st.composite
def _split_spectra(draw):
    """An EigenResult with negatives, zeros and values exactly at -thr and
    thr, for thresholds that include 0."""
    thr = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.5]))
    values = draw(
        st.lists(
            st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-thr, -0.0, 0.0, thr])),
            max_size=40,
        )
    )
    return EigenResult(np.sort(values), draw(st.integers(1, 5)), thr)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(e=_split_spectra())
def test_kernel_split_is_read_by_f0_density_and_log_det(e):
    """One split: F(0) = kernel_end() / denom is betti of the clustered
    density (its jumps below 0 and at 0 hold exactly the eigenvalues <= thr),
    and log_det sums exactly the logs of eigenvalues[kernel_end():]."""
    w, end = e.eigenvalues, e.kernel_end()
    assert np.all(w[:end] <= e.kernel_threshold) and np.all(w[end:] > e.kernel_threshold)
    f = density_from_eigs(e)
    assert e.kernel_end() / e.denom == betti(f)
    assert int(f.counts[f.positions <= 0.0].sum()) == end
    assert log_det(e) == float(np.sum(np.log(w[end:]))) / e.denom
    assert log_det(at_threshold(e, 0.0)) == float(np.sum(np.log(w[w > 0.0]))) / e.denom


@pytest.mark.bitwise
def test_log_det_in_place_is_bitwise_the_selected_log():
    """log_det takes the log of the sorted tail above the threshold, with no
    mask or selected copy: bit for bit the log of the selection, summed,
    over odd lengths, with values exactly at the threshold (excluded) and
    below it, and the input left unchanged."""
    rng = np.random.default_rng(SEED)
    for n in (1, 3, 7, 101, 1001, 4097):
        thr = 1e-3
        w = np.sort(np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-5, 3, size=n))
        w[rng.integers(0, n, size=max(1, n // 10))] = thr
        kept = w.copy()
        for denom in (1, n):
            want = float(np.sum(np.log(w[w > thr]))) / denom
            got = log_det(EigenResult(w, denom, thr))
            assert got == want
        assert np.array_equal(w, kept)


def _density_jumps_loop(e: EigenResult) -> tuple:
    """Per-cluster loop that density_from_eigs replaced; the reference below."""
    w = np.sort(np.asarray(e.eigenvalues, dtype=np.float64))
    thr = e.kernel_threshold
    jumps = []
    below = int(np.searchsorted(w, -thr, side="left"))
    kernel = int(np.searchsorted(w, thr, side="right")) - below
    i = 0
    while i < below:
        # genuinely negative spectrum (non-positive input); cluster as usual
        j = i + 1
        while j < below and w[j] - w[j - 1] <= thr:
            j += 1
        jumps.append((float(np.mean(w[i:j])), j - i))
        i = j
    # eigenvalues within the threshold of zero are the kernel; A*A spectra
    # may round slightly negative
    if kernel:
        jumps.append((0.0, kernel))
    i = below + kernel
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] - w[j - 1] <= thr:
            j += 1
        jumps.append((float(np.mean(w[i:j])), j - i))
        i = j
    return tuple(jumps)


def _assert_density_matches_loop(values, thr, denom=1):
    eig = EigenResult(np.asarray(values, dtype=np.float64), denom, thr)
    got = density_from_eigs(eig).jumps
    want = _density_jumps_loop(eig)
    assert [c for _, c in got] == [c for _, c in want]
    assert all(type(c) is int for _, c in got)
    for (pos, count), (ref, _) in zip(got, want):
        assert type(pos) is float
        if count <= 2:
            assert pos == ref
        else:
            assert math.isclose(pos, ref, rel_tol=1e-13, abs_tol=0.0)
    return got


def test_density_clustering_edge_cases():
    thr = 0.25
    assert _assert_density_matches_loop([], thr) == ()
    assert _assert_density_matches_loop([0.0, -0.1, 0.2, 1e-17], thr) == ((0.0, 4),)
    assert _assert_density_matches_loop([3.5], thr) == ((3.5, 1),)
    # a gap of exactly thr merges, the next float above it splits
    w0, w1 = 1.0, 1.3
    gap = w1 - w0
    assert _assert_density_matches_loop([w0, w1], gap) == (((w0 + w1) / 2, 2),)
    below_gap = float(np.nextafter(gap, -np.inf))
    assert np.nextafter(below_gap, np.inf) == gap
    assert _assert_density_matches_loop([w0, w1], below_gap) == ((w0, 1), (w1, 1))
    # a chain spaced thr/2 is one jump however far it reaches
    chain = 1.0 + np.arange(400) * (thr / 2)
    (jump,) = _assert_density_matches_loop(chain, thr)
    assert jump[1] == 400 and chain[-1] - chain[0] > 100 * thr
    # the kernel window cuts a chain that runs through it
    through = np.arange(-0.6, 0.61, 0.12)
    jumps = _assert_density_matches_loop(through, thr)
    assert [c for _, c in jumps] == [3, 5, 3]
    assert jumps[0][0] < -thr and jumps[1][0] == 0.0 and jumps[2][0] > thr
    # values at exactly -thr and thr belong to the kernel, their neighbours do not
    edges = [float(np.nextafter(-thr, -np.inf)), -thr, thr, float(np.nextafter(thr, np.inf))]
    jumps = _assert_density_matches_loop(edges, thr)
    assert jumps == ((edges[0], 1), (0.0, 2), (edges[3], 1))
    # clusters of 1, 2, 3, 9 and 200 values, far apart
    rng = np.random.default_rng(SEED)
    sizes = (1, 2, 3, 9, 200)
    values = np.concatenate(
        [5.0 * (k + 1) + rng.uniform(0.0, 1.0, size) for k, size in enumerate(sizes)]
    )
    jumps = _assert_density_matches_loop(values, 1.0)
    assert [c for _, c in jumps] == list(sizes)


def test_density_clustering_matches_loop_on_random_lists():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(40):
        thr = float(10.0 ** rng.uniform(-9, -1))
        centres = rng.uniform(-3.0, 6.0, rng.integers(1, 30))
        sizes = rng.integers(1, 60, len(centres))
        spreads = thr * rng.uniform(0.0, 3.0, len(centres))
        values = np.concatenate(
            [c + s * rng.standard_normal(n) for c, n, s in zip(centres, sizes, spreads)]
            + [thr * rng.uniform(-1.0, 1.0, rng.integers(0, 5))]
        )
        _assert_density_matches_loop(rng.permutation(values), thr, denom=int(rng.integers(1, 9)))


def test_negative_kernel_threshold_is_rejected():
    w = np.array([0.0, 0.0, 1.0, 2.0])
    for thr in (-0.5, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="kernel threshold"):
            EigenResult(w, 4, thr)
    assert density_from_eigs(EigenResult(w, 4, 0.0)).jumps == ((0.0, 2), (1.0, 1), (2.0, 1))


def test_eigen_result_sorts_only_unsorted_input():
    """EigenResult holds float64 eigenvalues in ascending order: a sorted
    float64 array is kept as it is, with no copy; anything else is sorted
    once, into a new array, leaving the input unchanged."""
    rng = np.random.default_rng(SEED)
    w = np.sort(rng.standard_normal(1001))
    w[3:6] = w[4]  # ties are sorted
    assert EigenResult(w, 7, 1e-9).eigenvalues is w
    assert EigenResult(w[:0], 1, 0.0).eigenvalues.shape == (0,)
    shuffled = rng.permutation(w)
    kept = shuffled.copy()
    got = EigenResult(shuffled, 7, 1e-9).eigenvalues
    assert np.array_equal(got, w) and np.array_equal(shuffled, kept)
    ints = EigenResult([2, 0, 1], 3, 0.0).eigenvalues
    assert ints.dtype == np.float64 and ints.tolist() == [0.0, 1.0, 2.0]


def test_eigen_result_sortedness_check_runs_in_chunks(monkeypatch):
    """The order is checked CHUNK pairs at a time: one pair out of order
    inside a chunk, across a chunk boundary or at the very end, or a NaN
    anywhere, makes EigenResult sort; a sorted array passes as it is."""
    monkeypatch.setattr(spectral, "CHUNK", 4)
    w = np.arange(13, dtype=np.float64)
    assert EigenResult(w, 1, 0.0).eigenvalues is w
    for i in (1, 3, 4, 7, 11):
        swapped = w.copy()
        swapped[[i, i + 1]] = swapped[[i + 1, i]]
        assert np.array_equal(EigenResult(swapped, 1, 0.0).eigenvalues, w), i
    for i in (0, 4, 12):
        holed = w.copy()
        holed[i] = np.nan
        got = EigenResult(holed, 1, 0.0).eigenvalues
        assert got is not holed and np.isnan(got[-1]) and np.array_equal(got[:-1], np.delete(w, i))


def _density_concatenated(e: EigenResult) -> SpectralDensity:
    """The build that density_from_eigs replaced: each segment outside the
    kernel window clustered by a float diff, its start indices and counts,
    and the three parts concatenated; the reference below."""

    def cluster(seg, thr):
        if not len(seg):
            return np.empty(0), np.empty(0, dtype=np.int64)
        starts = np.concatenate(([0], np.flatnonzero(np.diff(seg) > thr) + 1))
        counts = np.diff(np.append(starts, len(seg)))
        return np.add.reduceat(seg, starts) / counts, counts

    w, thr = e.eigenvalues, e.kernel_threshold
    below, end = int(w.searchsorted(-thr, "left")), e.kernel_end()
    neg, neg_counts = cluster(w[:below], thr)
    pos, pos_counts = cluster(w[end:], thr)
    at_zero = 1 if end > below else 0
    return density_of_counts(
        np.concatenate((neg, np.zeros(at_zero), pos)),
        np.concatenate((neg_counts, np.full(at_zero, end - below), pos_counts)),
        e.denom,
    )


@st.composite
def _chunked_spectra(draw):
    """(CHUNK, EigenResult): sorted spectra with negative parts, kernel
    windows, ties, clusters, all-kernel input, an empty negative or
    positive segment, a single eigenvalue and lengths of CHUNK - 1, CHUNK
    and CHUNK + 1, for a CHUNK small enough that many chunks run."""
    chunk = draw(st.sampled_from([1, 2, 3, 4, 8]))
    thr = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
    n = draw(st.one_of(st.integers(0, 5 * chunk + 3), st.sampled_from([chunk - 1, chunk, chunk + 1])))
    value = st.one_of(
        st.floats(-3.0, 3.0),
        st.floats(-2.0 * thr, 2.0 * thr),
        st.sampled_from([-thr, -0.0, 0.0, thr, -1.0, 1.0, 1.0 + thr / 2]),
    )
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64)
    sign = draw(st.sampled_from(["both", "nonnegative", "nonpositive", "kernel"]))
    if sign == "nonnegative":
        values = np.abs(values)
    elif sign == "nonpositive":
        values = -np.abs(values)
    elif sign == "kernel":
        values = np.clip(values, -thr, thr)
    return chunk, EigenResult(np.sort(values), draw(st.integers(1, 5)), thr)


@pytest.mark.bitwise
@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_chunked_spectra())
def test_density_in_place_is_bitwise_the_concatenated_build(case):
    """density_from_eigs, with its gap test and division run CHUNK at a
    time and the jump starts written into the cumulative counts, is bit for
    bit the concatenated build: the same positions and counts, jumps,
    rows, total mass and F at every jump and between them."""
    chunk, e = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "CHUNK", chunk)
        got = density_from_eigs(e)
    want = _density_concatenated(e)
    assert got.positions.dtype == np.float64 and got.counts.dtype == np.int64
    assert got.positions.tobytes() == want.positions.tobytes()
    assert np.array_equal(got.counts, want.counts)
    assert got.jumps == want.jumps and got.rows() == want.rows()
    assert got.total_mass == want.total_mass and got.denom == want.denom
    probes = [-np.inf, -0.0, 0.0, np.inf] + want.positions.tolist()
    probes += [float(np.nextafter(p, -np.inf)) for p in want.positions.tolist()]
    for lam in probes:
        assert got.evaluate(lam) == want.evaluate(lam), lam


def test_density_build_memory_stays_near_its_spectrum():
    """The Z/2^18 level of 2 - t^3 - t^-3 (about 2^17 jumps, most of two
    eigenvalues):
    density_from_eigs peaks within 1.25 times the eigenvalue bytes and
    keeps 1.05 times, its positions and cumulative counts (the concatenated
    build peaked at 3.0 and kept 1.5 times).  EigenResult confirms a sorted
    2^20 spectrum with one CHUNK of comparisons at a time."""
    z = FreeAbelianGroup(1)
    t3 = RingElement.delta(z, (3,))
    delta = RingMatrix.from_element(2 * RingElement.one(z) - t3 - t3.star())
    e = finite_spectrum(delta.push_forward(free_abelian_quotient(1, 2 ** 18)))
    eig_bytes = e.eigenvalues.nbytes
    density_from_eigs(e)  # warm
    tracemalloc.start()
    try:
        f = density_from_eigs(e)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 ** 17 - 8 <= len(f.positions) <= 2 ** 17 + 1
    assert peak <= 1.25 * eig_bytes and kept <= 1.05 * eig_bytes, (peak / eig_bytes, kept / eig_bytes)
    w = np.sort(np.random.default_rng(SEED).standard_normal(2 ** 20))
    EigenResult(w, 1, 0.0)  # warm
    tracemalloc.start()
    try:
        assert EigenResult(w, 1, 0.0).eigenvalues is w
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * spectral.CHUNK, peak


def _evaluate_loop(f: SpectralDensity, lam: float) -> float:
    """Linear scan that SpectralDensity.evaluate replaced; the reference below."""
    acc = 0
    for pos, count in f.jumps:
        if pos <= lam:
            acc += count
        else:
            break
    return acc / f.denom


def _assert_evaluate_matches_loop(f: SpectralDensity):
    probes = [0.0, -1.0, 1.0, -np.inf, np.inf]
    for pos in f.positions.tolist():
        probes += [pos, float(np.nextafter(pos, -np.inf)), float(np.nextafter(pos, np.inf))]
    if len(f.positions):
        probes += [f.positions[0] - 1.0, f.positions[-1] + 1.0]
    for lam in probes:
        got = f.evaluate(lam)
        assert type(got) is float
        assert got == _evaluate_loop(f, lam)
    assert f.total_mass == sum(c for _, c in f.jumps) / f.denom
    acc = 0
    for (lam, mass), (pos, count) in zip(f.rows(), f.jumps, strict=True):
        acc += count
        assert (lam, mass) == (pos, acc / f.denom)


def test_evaluate_matches_linear_scan():
    rng = np.random.default_rng(SEED + 4)
    empty = density_of_counts([], [], 3)
    _assert_evaluate_matches_loop(empty)
    assert empty.jumps == () and empty.rows() == [] and empty.total_mass == 0.0
    for _ in range(40):
        positions = np.unique(rng.uniform(-2.0, 5.0, rng.integers(1, 200)))
        if rng.integers(2):
            positions = np.unique(np.append(positions, 0.0))
        counts = rng.integers(1, 50, len(positions))
        f = density_of_counts(positions, counts, int(rng.integers(1, 100)))
        assert f.jumps == tuple(zip(positions.tolist(), counts.tolist()))
        _assert_evaluate_matches_loop(f)
        thr = float(10.0 ** rng.uniform(-9, -1))
        values = rng.uniform(-0.5, 3.0, rng.integers(0, 300)).round(int(rng.integers(1, 4)))
        _assert_evaluate_matches_loop(density_from_eigs(EigenResult(values, 7, thr)))


def test_total_mass_is_exact(s3):
    rng = random.Random(SEED + 1)
    for group in (CyclicGroup(3), CyclicGroup(7), s3):
        for d in (1, 2):
            delta = random_self_adjoint(group, rng, d=d)
            f = density_from_eigs(finite_spectrum(delta))
            assert f.total_mass == float(d)


def test_density_is_right_continuous_step(z4_circulant):
    f = density_from_eigs(finite_spectrum(z4_circulant))
    # the kernel jump sits at exactly zero: invisible from the left,
    # included at lambda = 0 (right continuity)
    assert f.evaluate(-1e-9) == 0.0
    assert f.evaluate(0.0) == 0.25
    assert f.evaluate(1.999999) == 0.25
    assert f.evaluate(2.0000001) == 0.75
    rows = f.rows()
    assert rows[-1][1] == 1.0


def test_square_comparison_density():
    # F_Delta(lambda) = F_{Delta^2}(lambda^2): squaring the matrix squares
    # the spectrum, so the densities agree after the change of variable
    rng = random.Random(SEED + 2)
    group = CyclicGroup(9)
    for _ in range(10):
        delta = random_self_adjoint(group, rng, d=1)
        eig = at_threshold(finite_spectrum(delta), 1e-8)
        eig_sq = at_threshold(finite_spectrum(delta @ delta), 1e-8)
        scale = max(1.0, eig_sq.max_eigenvalue)
        assert np.allclose(
            eig_sq.eigenvalues,
            np.sort(eig.eigenvalues**2),
            atol=1e-9 * scale,
        )
        f = density_from_eigs(eig)
        f_sq = density_from_eigs(eig_sq)
        for pos, _ in f.jumps:
            nudge = 1e-9 * max(1.0, pos * pos)
            assert math.isclose(
                f.evaluate(pos), f_sq.evaluate(pos * pos + nudge), abs_tol=1e-12
            )


def test_moment_consistency(s3):
    rng = random.Random(SEED + 3)
    for group in (CyclicGroup(8), s3):
        for _ in range(5):
            delta = random_self_adjoint(group, rng, d=2)
            eig = finite_spectrum(delta)
            for m in range(1, 7):
                exact = trace_power_exact(delta, m)
                assert abs(eig.moment(m) - exact) <= 1e-8 * max(1.0, abs(exact))


def test_log_det_unitary_invariance():
    rng = np.random.default_rng(SEED)
    w = np.abs(rng.standard_normal(12)) + 0.1
    h = np.diag(w)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    conj = q @ h @ q.T
    e1 = EigenResult(np.sort(w), 1, 1e-9)
    e2 = EigenResult(hermitian_eigenvalues(conj), 1, 1e-9)
    assert abs(log_det(e1) - log_det(e2)) <= 1e-9


def test_subgroup_invariance_examples(s3):
    # Z/2 into Z/4 sending the generator to the square
    z2 = CyclicGroup(2)
    s = RingElement.delta(z2, 1)
    delta = RingMatrix.from_element(2 - s - s.star())
    emb = Homomorphism(z2, CyclicGroup(4), generator_images=[2])
    verdict = verdicts.subgroup(Context(delta, embedding=emb))
    assert verdict["ok"] and verdict["max_deviation"] <= 1e-9
    f = density_from_eigs(finite_spectrum(delta))
    assert f.jumps == ((0.0, 1), (4.0, 1))

    # trivial group into any finite group: integer matrix diagonal blocks
    triv = TrivialGroup()
    m = RingMatrix(
        triv,
        [
            [RingElement.scalar(triv, 2), RingElement.scalar(triv, 1)],
            [RingElement.scalar(triv, 1), RingElement.scalar(triv, 2)],
        ],
    )
    emb2 = Homomorphism(triv, s3, element_map={(): s3.identity()})
    verdict = verdicts.subgroup(Context(m, embedding=emb2))
    assert verdict["ok"] and verdict["max_deviation"] <= 1e-9

    ident = RingMatrix.identity(z2, 2)
    assert verdicts.subgroup(Context(ident, embedding=emb))["ok"]


def test_subgroup_push_forward_keeps_the_kernel_threshold(s3):
    """An injective embedding keeps every coefficient of delta, in term
    order, so the push-forward has delta's default kernel threshold, float
    for float, and the subgroup verdict needs no threshold of its own.  The
    coefficients are Gaussian rationals with irrational moduli, whose float
    sum depends on its order.  A non-injective embedding is refused."""
    rng = random.Random(SEED + 6)
    z2, z3, z4 = CyclicGroup(2), CyclicGroup(3), CyclicGroup(4)
    embeddings = [
        Homomorphism(z2, z4, generator_images=[2]),
        Homomorphism(z3, s3, generator_images=[3]),
        Homomorphism(s3, product_group([s3, z4]), element_map={g: (g, 0) for g in s3.elements()}),
    ]

    def element(group):
        terms = {
            random_group_element(group, rng): GaussianRational.of(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-3, 3)
            )
            for _ in range(4)
        }
        return RingElement(group, terms)

    for emb, d in itertools.product(embeddings, (1, 2)):
        a = RingMatrix(emb.source, [[element(emb.source) for _ in range(d)] for _ in range(d)])
        delta = positive_square(a)
        assert default_kernel_threshold(delta.push_forward(emb)) == default_kernel_threshold(delta)
        assert verdicts.subgroup(Context(delta, embedding=emb))["ok"]
    folded = Homomorphism(z4, z2, generator_images=[1])
    with pytest.raises(MalformedGroup, match="not injective"):
        verdicts.subgroup(Context(RingMatrix.identity(z4, 1), embedding=folded))


def test_densities_match_detects_difference():
    f1 = density_of_counts([0.0, 2.0], [1, 1], 2)
    f2 = density_of_counts([0.0, 2.5], [1, 1], 2)
    ok, dev = densities_match(f1, f2, atol=1e-9)
    assert not ok and dev >= 0.5 - 1e-12


# ---------------------------------------------------------------------------
# block spectra over G = H x C against the dense regular representation
# ---------------------------------------------------------------------------

def _assert_blocks_match_dense(delta):
    eig = finite_spectrum(delta)
    dense = hermitian_eigenvalues(regular_representation(delta))
    assert eig.denom == delta.group.order
    assert eig.eigenvalues.shape == dense.shape
    assert np.allclose(eig.eigenvalues, dense, rtol=0, atol=1e-12)
    thr = eig.kernel_threshold
    assert np.sum(np.abs(eig.eigenvalues) <= thr) == np.sum(np.abs(dense) <= thr)
    return eig


S3 = symmetric_group(3)
TABLE_PRODUCTS = {
    "S3 x Z/4": product_group([S3, CyclicGroup(4)]),
    "Z/3 x S3": product_group([CyclicGroup(3), S3]),
    "S3 x Z/2 x Z/3": product_group([S3, CyclicGroup(2), CyclicGroup(3)]),
    "Z/2 x (S3 x Z/3)": DirectProductGroup((CyclicGroup(2), product_group([S3, CyclicGroup(3)]))),
    "S3 x Z/1": product_group([S3, CyclicGroup(1)]),
    "S3": S3,
    "S3 x Z/2 x S3": product_group([S3, CyclicGroup(2), S3]),
    "(S3 x Z/2) x S3": product_group([product_group([S3, CyclicGroup(2)]), S3]),
}


@pytest.mark.parametrize("name", sorted(TABLE_PRODUCTS))
def test_block_spectrum_matches_dense(name):
    rng = random.Random(SEED)
    for d in (1, 2):
        for _ in range(4):
            _assert_blocks_match_dense(random_self_adjoint(TABLE_PRODUCTS[name], rng, d=d))


def test_block_spectrum_complex_non_diagonal():
    group = TABLE_PRODUCTS["S3 x Z/4"]
    elems = group.elements()
    rng = random.Random(SEED)
    for _ in range(3):
        entries = [
            [
                RingElement(
                    group,
                    {
                        elems[rng.randrange(len(elems))]: GaussianRational.of(
                            rng.randint(-3, 3), rng.randint(1, 3)
                        )
                        for _ in range(3)
                    },
                )
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        delta = positive_square(RingMatrix(group, entries))
        assert not delta.is_integral()
        assert any(not e.is_real() for row in delta.entries for e in row)
        assert not delta.entries[0][1].is_zero()
        eig = _assert_blocks_match_dense(delta)
        assert eig.eigenvalues.dtype == np.float64


def test_block_spectrum_bare_table_keeps_real_dense_solve():
    s4 = symmetric_group(4)
    rng = random.Random(SEED)
    for group in (s4, product_group([s4, CyclicGroup(1)])):
        delta = random_self_adjoint(group, rng, d=2)
        h = regular_representation(delta)
        assert h.dtype == np.float64
        assert np.array_equal(finite_spectrum(delta).eigenvalues, np.linalg.eigvalsh(h))


def _subgroup_order(group, gens):
    seen = {group.identity()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.multiply(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def test_block_spectrum_kernel_is_subgroup_index():
    """4 - a - 1/a - b - 1/b over F2 pushed to S4 x Z/k: its kernel is the
    functions constant on cosets of <a, b>, so F(0) |G| = [G : <a, b>]."""
    s4 = symmetric_group(4)
    f2 = FreeGroup(2)
    a, b = RingElement.delta(f2, (1,)), RingElement.delta(f2, (2,))
    delta = RingMatrix.from_element(4 - a - a.star() - b - b.star())
    rng = random.Random(SEED)
    indices = set()
    for k in (1, 2, 3, 4, 6):
        target = product_group([s4, CyclicGroup(k)])
        for _ in range(3):
            gens = [(rng.randrange(24), rng.randrange(k)) for _ in range(2)]
            phi = Homomorphism(f2, target, generator_images=gens)
            eig = _assert_blocks_match_dense(delta.push_forward(phi))
            index = target.order // _subgroup_order(target, gens)
            assert round(betti(density_from_eigs(eig)) * target.order) == index
            indices.add(index)
    assert len(indices) > 2


def test_cyclic_split_peels_top_level_factors(monkeypatch):
    cases = {
        "S3 x Z/4": [4],
        "Z/3 x S3": [3],
        "S3 x Z/2 x Z/3": [2, 3],
        "Z/2 x (S3 x Z/3)": [2, 3],
        "S3 x Z/1": [1],
        "S3": [],
    }
    for name, factors in cases.items():
        h, got, _, _ = _cyclic_split(TABLE_PRODUCTS[name])
        assert h == S3 and got == factors
    cyclic = product_group([CyclicGroup(2), CyclicGroup(3)])
    h, got, h_part, exponents = _cyclic_split(cyclic)
    assert h == TrivialGroup() and got == [2, 3]
    assert h_part((1, 2)) == () and exponents((1, 2)) == (1, 2)
    h, got, h_part, exponents = _cyclic_split(TABLE_PRODUCTS["Z/2 x (S3 x Z/3)"])
    assert h_part((1, (4, 2))) == 4 and exponents((1, (4, 2))) == (1, 2)
    # a cyclic factor between two non-cyclic ones goes to C, flat or nested
    flat = TABLE_PRODUCTS["S3 x Z/2 x S3"]
    h, got, h_part, exponents = _cyclic_split(flat)
    assert h == product_group([S3, S3]) and got == [2]
    assert h_part((4, 1, 2)) == (4, 2) and exponents((4, 1, 2)) == (1,)
    nested = TABLE_PRODUCTS["(S3 x Z/2) x S3"]
    h, got, h_part, exponents = _cyclic_split(nested)
    assert h == product_group([S3, S3]) and got == [2]
    assert h_part(((4, 1), 2)) == (4, 2) and exponents(((4, 1), 2)) == (1,)
    # so the spectrum is two blocks of size d|H| = 36
    shapes = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda b: shapes.append(b.shape) or solve(b))
    rng = random.Random(SEED)
    for group in (flat, nested):
        finite_spectrum(random_self_adjoint(group, rng))
    assert shapes == [(2, 36, 36)] * 2


def test_cyclic_split_orders_and_exponents():
    """Cyclic leaves form C, and the exponents are a bijection from the
    group onto the character grid; a table with no cyclic factor is all H."""
    cyclic = product_group([CyclicGroup(2), CyclicGroup(3)])
    h, orders, h_part, exponents = _cyclic_split(cyclic)
    assert h == TrivialGroup() and orders == [2, 3]
    seen = {exponents(g) for g in cyclic.elements()}
    assert seen == set(itertools.product(range(2), range(3)))
    assert {h_part(g) for g in cyclic.elements()} == {()}
    h, orders, h_part, exponents = _cyclic_split(S3)
    assert h == S3 and orders == []
    assert [h_part(g) for g in S3.elements()] == S3.elements()
    assert {exponents(g) for g in S3.elements()} == {()}


def _kmesh_character_spectrum(delta):
    """``finite_spectrum``'s eigenvalues with every character phase built in
    the kmesh form: the (|C| x r) matrix of character multi-indices times
    the exponent / order vector, then one exp."""
    h_group, factors, h_part, exponents = _cyclic_split(delta.group)
    total = delta.group.order // h_group.order
    kmesh = np.indices(factors).reshape(len(factors), total).T.astype(np.float64, order="C")
    orders = np.asarray(factors, dtype=np.float64)

    def phase(g, real):
        # the complex form for both: a float64 symbol keeps Re(c * phase)
        exps = np.asarray(exponents(g), dtype=np.float64)
        return np.exp(-2j * np.pi * (kmesh @ (exps / orders))) if total > 1 else np.ones(1)

    real = (
        total == 1
        and h_group != TrivialGroup()
        and all(e.is_real() for row in delta.entries for e in row)
    )
    return spectral._operator_eigenvalues(delta, (total,), phase, h_group, h_part, real)


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "group",
    [CyclicGroup(n) for n in (1, 2, 7, 1024)] + [TABLE_PRODUCTS["S3 x Z/4"]],
    ids=str,
)
def test_character_phase_is_bitwise_the_kmesh_form(group, monkeypatch):
    """With one cyclic factor, the per-factor phase exp(-2 pi i (k (e / n)))
    performs the float operations of the kmesh form, so the spectrum is bit
    for bit the same: d = 1 (the diagonal rule at one point for Z/N, where
    a real coefficient reads the cosine phase and a complex one the complex
    phase) and a non-diagonal d = 2 (a batched eigvalsh), with integer and
    Gaussian-rational coefficients."""
    rng = random.Random(SEED)
    phase = spectral._phase
    flags = []

    def recording_phase(exponents, angle, real):
        if any(exponents):
            flags.append(real)
        return phase(exponents, angle, real)

    monkeypatch.setattr(spectral, "_phase", recording_phase)
    for d in (1, 2):
        for make in (random_self_adjoint, _gaussian_self_adjoint):
            for _ in range(3):
                delta = make(group, rng, d)
                if d == 2:
                    assert not delta.entries[0][1].is_zero()
                flags.clear()
                got = finite_spectrum(delta).eigenvalues
                want = _kmesh_character_spectrum(delta)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                if d == 1 and isinstance(group, CyclicGroup):
                    # one phase per term off the identity, real for a real c
                    terms = delta.entries[0][0].terms.items()
                    assert sorted(flags) == sorted(c.is_real() for g, c in terms if g != 0)
                    if make is _gaussian_self_adjoint and group.n > 2:
                        assert False in flags
                elif d == 2:
                    assert not any(flags)


def _cyclic_reference(e, n):
    """The one-expression complex form of the character values of Z/n at
    exponent e."""
    return np.exp(-2j * np.pi * (np.arange(n, dtype=np.float64) * (e / n)))


def _angle_families(n):
    """name -> (angle(k, e) as the library builds it, the one-expression
    complex form of one axis as the reference) for the characters of Z/n
    and for the torus grid of n midpoints."""
    theta_1d = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return {
        "cyclic": (lambda k, e: spectral._cyclic_angle(e, n), lambda e: _cyclic_reference(e, n)),
        "torus": (lambda k, e: theta_1d * e, lambda e: np.exp(1j * theta_1d * e)),
    }


def _check_real_form(z, exponents, angle):
    """The real form of ``_phase`` is float64, of z's shape, and bit for
    bit the real part of the complex form z."""
    c = spectral._phase(exponents, angle, True)
    assert c.dtype == np.float64 and c.shape == z.shape
    assert c.tobytes() == z.real.tobytes(), exponents


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 100, 1024, 2 ** 17, 2 ** 18])
def test_phase_contract_is_bitwise(n):
    """For both angle families (the characters of Z/n and the torus grid
    of n points):

    - with one moving axis, exp(i angle) is bit for bit the one-expression
      complex form, on its own axis, and the real form cos(angle) is bit for
      bit its real part;
    - with two moving axes (n <= 1024) the complex form is the outer product
      of the 1-d forms and the real form is bit for bit its real part;
    - the identity's phase, and the phase of rank 0, is the scalar 1 in
      both forms."""
    for name, (angle, reference) in _angle_families(n).items():
        for e in (1, -1, 2, -2, 3, -3, 5, -5, 7, -7, n - 1, n + 1):
            if not e:
                continue
            for exponents in ((e,), (0, e)):
                z = spectral._phase(exponents, angle, False)
                assert z.shape == (1,) * (len(exponents) - 1) + (n,)
                assert z.ravel().tobytes() == reference(e).tobytes(), (name, e)
                _check_real_form(z, exponents, angle)
        if n <= 1024:
            z = spectral._phase((1, -2), angle, False)
            assert z.tobytes() == np.multiply.outer(reference(1), reference(-2)).tobytes()
            _check_real_form(z, (1, -2), angle)
        for exponents in ((0,), (0, 0), ()):
            for real in (False, True):
                phase = spectral._phase(exponents, angle, real)
                assert np.ndim(phase) == 0 and phase == 1
        assert np.array_equal(np.broadcast_to(spectral._phase((), angle, False), ()).ravel(), np.ones(1))


@pytest.mark.bitwise
@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["cyclic", "torus"]),
    n=st.integers(1, 40),
    exponents=st.lists(st.integers(-50, 50), min_size=1, max_size=3),
)
def test_phase_contract_random_exponents(family, n, exponents):
    """For random exponent vectors of rank 1-3: the complex phase is an
    array of length n on each moving axis and 1 on the others (the scalar 1
    when none moves); broadcast to the grid it is the outer product of the
    one-expression 1-d forms of every axis, zero exponents included; and its
    real form is bit for bit its real part."""
    angle, reference = _angle_families(n)[family]
    exponents = tuple(exponents)
    z = spectral._phase(exponents, angle, False)
    if not any(exponents):
        assert np.ndim(z) == 0 and z == 1 and spectral._phase(exponents, angle, True) == 1
        return
    assert z.shape == tuple(n if e else 1 for e in exponents)
    grid = np.broadcast_to(z, (n,) * len(exponents)).ravel()
    assert np.array_equal(grid, outer_phase([reference(e) for e in exponents]))
    _check_real_form(z, exponents, angle)


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 7, 1024, 2 ** 18])
def test_cyclic_phase_real_form_is_bitwise_the_complex_real_part(n):
    """For the characters of Z/n the real form cos(theta) is bit for bit
    the real part of the complex form exp(-2 pi i (k (e / n))), which is
    itself unchanged from its one-expression form; exponent 0 is the
    scalar 1 in both forms."""

    def angle(k, e):
        return spectral._cyclic_angle(e, n)

    for e in (0, 1, -1, 3, -3, 5, -5, 7, -7, n - 1):
        z = spectral._phase((e,), angle, False)
        c = spectral._phase((e,), angle, True)
        want = _cyclic_reference(e, n)
        if not e:
            assert z == 1 and c == 1 and want.tobytes() == np.ones(n, dtype=complex).tobytes()
            continue
        assert z.tobytes() == want.tobytes(), e
        assert c.dtype == np.float64 and c.tobytes() == z.real.tobytes(), e


def _gaussian_self_adjoint(group, rng, d):
    """A*A for a random d x d A over ``group`` with Gaussian-rational
    coefficients p/q + (r/s) i."""

    def coeff():
        return GaussianRational.of(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 5))
        )

    def element():
        return RingElement(group, {random_group_element(group, rng): coeff() for _ in range(3)})

    return positive_square(RingMatrix(group, [[element() for _ in range(d)] for _ in range(d)]))


def _outer_cyclic_spectrum(delta):
    """Reference for a product C of cyclic groups (H trivial): sorted
    eigvalsh of the full (|C|, d, d) stack, every term's character phase the
    raveled outer product of all 1-d phases, zero exponents included."""
    h_group, orders, _, exponents = _cyclic_split(delta.group)
    assert h_group == TrivialGroup()
    stack = symbol_stack(
        delta,
        math.prod(orders),
        lambda g: outer_phase([_cyclic_reference(e, n) for e, n in zip(exponents(g), orders)]),
    )
    return np.sort(np.linalg.eigvalsh(stack).ravel())


CYCLIC_PRODUCTS = {
    "Z/2 x Z/3": product_group([CyclicGroup(2), CyclicGroup(3)]),
    "Z/3 x Z/1 x Z/2": product_group([CyclicGroup(3), CyclicGroup(1), CyclicGroup(2)]),
    "(Z/7)^2": free_abelian_quotient(2, 7).target,
    "(Z/16)^2": free_abelian_quotient(2, 16).target,
}


@pytest.mark.bitwise
@pytest.mark.parametrize("name", sorted(CYCLIC_PRODUCTS))
def test_cyclic_product_phase_is_bitwise_the_outer_product(name):
    """Over several cyclic factors each character phase broadcasts over the
    grid of the orders of C: the spectrum is bit for bit eigvalsh on the
    full stack of outer-product phases, for random integer and
    Gaussian-rational A*A at d = 1 (the diagonal rule) and d = 2 (a batched
    eigvalsh), and for the torus Laplacian Delta_0 down the (Z/N)^2 tower."""
    group = CYCLIC_PRODUCTS[name]
    rng = random.Random(SEED)
    cases = [random_self_adjoint(group, rng, d=d) for d in (1, 2)]
    cases += [_gaussian_self_adjoint(group, rng, d) for d in (1, 2)]
    if name.startswith("(Z/"):
        quotient = free_abelian_quotient(2, group.factors[0].n)
        cases.append(laplacians(fixture_complex("torus"))[0].push_forward(quotient))
    for delta in cases:
        got = finite_spectrum(delta).eigenvalues
        want = _outer_cyclic_spectrum(delta)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.bitwise
def test_one_point_diagonal_rule_is_bitwise_eigvalsh(monkeypatch):
    """At one point a diagonal operator's eigenvalues are the sorted real
    parts of its diagonal symbols, d = 1 included, with no LAPACK call: bit
    for bit ``eigvalsh`` on the d x d stack, over magnitudes 1e-12 to 1e4,
    with 1e-17j rounding noise in the imaginary parts, and for no points.
    Terms with a real coefficient read the real phase, which raises for a
    term with a complex coefficient, and a complex coefficient reads the
    complex phase; the real phase is given as its own table or as the real
    part of the complex one."""
    rng = np.random.default_rng(SEED)
    k = 1000
    solve = np.linalg.eigvalsh
    shapes = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or solve(m))
    complex_coef = GaussianRational.of(Fraction(3, 2), Fraction(-1, 3))
    for d, mixed in itertools.product((1, 2, 3), (False, True)):
        # entry (i, i) is c_i times the generator t_i of Z^d, whose phase at
        # point j is the diagonal value diag[j, i]; with mixed, c_0 is complex
        z = FreeAbelianGroup(d)
        units = [tuple(int(j == i) for j in range(d)) for i in range(d)]
        coefs = [
            complex_coef if mixed and i == 0 else GaussianRational.of(Fraction(1 + i, 2))
            for i in range(d)
        ]
        zero = RingElement.zero(z)
        delta = RingMatrix(z, [
            [RingElement.delta(z, units[i], coefs[i]) if i == l else zero for l in range(d)]
            for i in range(d)
        ])
        diagonal = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-12, 4, size=(k, d))
        diagonals = [
            diagonal,
            diagonal + 0j,
            # a symbol's diagonal carries rounding noise in its imaginary part
            diagonal + 1e-17j * rng.standard_normal((k, d)),
            np.zeros((0, d)),
        ]
        for diag in diagonals:
            # for real phases d, Re(c * d) is Re(c) * d
            real = diag.dtype == np.float64
            c = np.array([float(x.re) if real else complex(x) for x in coefs])
            b = np.zeros((len(diag), d, d), dtype=np.result_type(diag, c))
            b[:, range(d), range(d)] = c * diag
            want = np.sort(solve(b).ravel())
            columns = {u: diag[:, i] for i, u in enumerate(units)}
            real_columns = {u: diag[:, i].real for i, u in enumerate(units) if coefs[i].is_real()}
            phases = (
                lambda g, real_form: (real_columns if real_form else columns)[g],
                lambda g, real_form: columns[g].real if real_form else columns[g],
            )
            for phase in phases:
                got = spectral._operator_eigenvalues(delta, (len(diag),), phase)
                assert got.dtype == np.float64
                assert np.array_equal(got, want)
    assert shapes == []


_UPDATE_COEFFICIENTS = [GaussianRational.of(c) for c in (1, -1, 2, Fraction(3, 2))] + [
    GaussianRational.of(Fraction(1, 2), Fraction(-1, 3)),
    GaussianRational.of(0, 1),
]


@st.composite
def _symbol_updates(draw):
    """(CHUNK, length, ring element over Z, slot of each term, complex
    phase of each term, real form of each phase, complex target): up to
    five terms sharing up to three slots, lengths 0 to 3 CHUNK, phases of
    every magnitude, the identity's phase the scalar 1, and real forms that
    are strided views of the complex phases or contiguous copies."""
    chunk = draw(st.integers(1, 8))
    n = draw(st.integers(0, 3 * chunk))
    z = FreeAbelianGroup(1)
    keys = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True))
    x = sum(
        (RingElement.delta(z, (k,), draw(st.sampled_from(_UPDATE_COEFFICIENTS))) for k in keys),
        RingElement.zero(z),
    )
    slots = {g: draw(st.integers(0, 2)) for g in x.terms}
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    strided = draw(st.booleans())
    phases, real_phases = {}, {}
    for g in x.terms:
        if g == (0,):
            phases[g] = real_phases[g] = 1
            continue
        scale = 10.0 ** rng.integers(-12, 4, size=(2, n))
        phases[g] = rng.standard_normal(n) * scale[0] + 1j * rng.standard_normal(n) * scale[1]
        real = phases[g].real
        real_phases[g] = real if strided else real.copy()
    return chunk, n, x, slots, phases, real_phases, draw(st.booleans())


@pytest.mark.bitwise
@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_symbol_updates())
def test_chunked_symbol_update_is_bitwise_the_whole_array_update(case):
    """``_add_symbol`` adds a real coefficient times a one-axis real phase
    CHUNK elements at a time: the target is bit for bit the one that
    ``out[slot] += c * z`` per term gives (Re(c * z) for a complex c into a
    real target, c * z into a complex one), and no phase array of the
    caller changes."""
    chunk, n, x, slots, phases, real_phases, complex_out = case
    dtype = np.complex128 if complex_out else np.float64
    want = np.zeros((3, n), dtype=dtype)
    for g, c in x.terms.items():
        if complex_out:
            want[slots[g]] += complex(c) * phases[g]
        elif c.is_real():
            want[slots[g]] += float(c.re) * real_phases[g]
        else:
            want[slots[g]] += (complex(c) * phases[g]).real
    before = [np.array(z, copy=True) for z in (*phases.values(), *real_phases.values())]
    got = np.zeros((3, n), dtype=dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "CHUNK", chunk)
        spectral._add_symbol(
            got, x, lambda g, real: (real_phases if real else phases)[g], slots.__getitem__
        )
    assert got.tobytes() == want.tobytes()
    after = (*phases.values(), *real_phases.values())
    assert all(a.tobytes() == np.asarray(b).tobytes() for a, b in zip(before, after))


def test_diagonal_operators_skip_lapack(monkeypatch):
    """Diagonal d x d character blocks (H trivial, off-diagonal entries
    zero in the ring) are solved per diagonal entry, bit-identical to
    eigvalsh on the unsplit assembly; anything else still calls LAPACK."""
    group = product_group([CyclicGroup(3), CyclicGroup(4)])
    a = RingElement.delta(group, (1, 0))
    b = RingElement.delta(group, (0, 1))
    one = RingElement.one(group)
    zero = RingElement.zero(group)
    x = 4 * one - a - a.star() - b - b.star()
    y = 3 * one + 0.5 * (a * b + (a * b).star())
    diagonal = RingMatrix(group, [[x, zero, zero], [zero, y, zero], [zero, zero, zero]])
    unsplit = np.sort(np.linalg.eigvalsh(regular_representation(diagonal)))
    solve = np.linalg.eigvalsh

    def refuse(*args):
        raise AssertionError("diagonal operator reached LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = finite_spectrum(diagonal).eigenvalues
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    assert np.allclose(got, unsplit, rtol=0, atol=1e-12)
    dense = RingMatrix(group, [[x, a + b.star()], [b + a.star(), y]])
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or solve(m))
    finite_spectrum(dense)
    assert calls == [(12, 2, 2)]


def test_finite_spectrum_rejects_non_self_adjoint():
    z4 = CyclicGroup(4)
    t = RingElement.delta(z4, 1)
    s3z2 = product_group([S3, CyclicGroup(2)])
    # a 3-cycle of S3 (element 3 is the permutation 120), not its own inverse
    g = RingElement.delta(s3z2, (3, 1))
    one = RingElement.delta(s3z2, s3z2.identity())
    zero = RingElement.zero(s3z2)
    two = 2 * RingElement.delta(z4, 0)
    # 1/3 at a 3-cycle, 0.333333333333333 at its inverse: Hermitian within
    # any float tolerance, but not self-adjoint
    near = RingElement.delta(s3z2, (3, 0), Fraction(1, 3)) + RingElement.delta(
        s3z2, s3z2.inverse((3, 0)), Fraction(333333333333333, 10**15)
    )
    # a + a* above the diagonal and b + b* below it: each entry is
    # self-adjoint, the matrix is not, and eigvalsh would read one triangle
    z3z4 = product_group([CyclicGroup(3), CyclicGroup(4)])
    a, b = RingElement.delta(z3z4, (1, 0)), RingElement.delta(z3z4, (0, 1))
    one_z3z4 = RingElement.one(z3z4)
    cases = [
        RingMatrix.from_element(t),
        RingMatrix(z4, [[two, t], [RingElement.zero(z4), two]]),
        RingMatrix.from_element(g + g),
        RingMatrix(s3z2, [[one, g + g.star()], [zero, one]]),
        RingMatrix.from_element(near),
        RingMatrix(z3z4, [[one_z3z4, a + a.star()], [b + b.star(), one_z3z4]]),
    ]
    for delta in cases:
        assert not delta.is_self_adjoint()
        with pytest.raises(NotHermitian):
            finite_spectrum(delta)


def test_every_backend_returns_sorted_eigenvalues():
    """EigenResult's contract: eigenvalues ascending, from the character
    blocks, the torus symbols (diagonal split included) and the banded
    Folner solves alike."""
    rng = random.Random(SEED + 5)
    torus = laplacians(fixture_complex("torus"))
    z = FreeAbelianGroup(1)
    spectra = [
        finite_spectrum(random_self_adjoint(TABLE_PRODUCTS["S3 x Z/4"], rng, d=2)).eigenvalues,
        finite_spectrum(random_self_adjoint(CyclicGroup(7), rng, d=2)).eigenvalues,
        finite_spectrum(torus[1].push_forward(free_abelian_quotient(2, 6))).eigenvalues,
    ]
    spectra += [torus_eigen_result(delta, 24).eigenvalues for delta in torus]
    for delta in (random_self_adjoint(z, rng, d=1), random_self_adjoint(z, rng, d=2)):
        real = all(e.is_real() for row in delta.entries for e in row)
        spectra += [schemes._band_eigenvalues(schemes._box_band(delta, 1, m, real)) for m in (2, 5, 17)]
    for w in spectra:
        assert len(w) > 1 and np.all(w[:-1] <= w[1:])

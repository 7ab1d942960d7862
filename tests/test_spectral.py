import math
import random
from fractions import Fraction

import numpy as np
import pytest

from l2approx import (
    CyclicGroup,
    DirectProductGroup,
    EigenResult,
    FreeGroup,
    GaussianRational,
    Homomorphism,
    RingElement,
    RingMatrix,
    TrivialGroup,
    betti,
    cyclic_quotient,
    density_from_eigs,
    finite_spectrum,
    log_det,
    positive_square,
    product_group,
    subgroup_invariance_check,
    symmetric_group,
    trace_poly_exact,
)
from l2approx.errors import InfiniteGroup, NotHermitian
from l2approx.spectral import _cyclic_split, character_spectrum, densities_match

from conftest import SEED, random_self_adjoint
from dense_reference import (
    DEFAULT_EIG_TOL,
    _require_hermitian,
    hermitian_eigenvalues,
    regular_representation,
)


@pytest.fixture(scope="module")
def z4_circulant(z_laplacian):
    q4 = cyclic_quotient(4)
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
            chars = character_spectrum(delta)
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
        eig = finite_spectrum(delta, kernel_threshold=1e-8)
        eig_sq = finite_spectrum(delta @ delta, kernel_threshold=1e-8)
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
                exact = trace_poly_exact(delta, [0] * m + [1])
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
    ok, dev = subgroup_invariance_check(delta, emb)
    assert ok and dev <= 1e-9
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
    ok, dev = subgroup_invariance_check(m, emb2)
    assert ok and dev <= 1e-9

    ident = RingMatrix.identity(z2, 2)
    ok, _ = subgroup_invariance_check(ident, emb)
    assert ok


def test_densities_match_detects_difference():
    from l2approx import SpectralDensity

    f1 = SpectralDensity(((0.0, 1), (2.0, 1)), 2)
    f2 = SpectralDensity(((0.0, 1), (2.5, 1)), 2)
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
    "Z/2 x (S3 x Z/3)": DirectProductGroup(CyclicGroup(2), product_group([S3, CyclicGroup(3)])),
    "S3 x Z/1": product_group([S3, CyclicGroup(1)]),
    "S3": S3,
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
        assert np.array_equal(character_spectrum(delta), np.linalg.eigvalsh(h))


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


def test_cyclic_split_peels_top_level_factors():
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
    # cyclic factors under two non-cyclic sides stay in H
    nested = DirectProductGroup(product_group([S3, CyclicGroup(2)]), S3)
    h, got, h_part, exponents = _cyclic_split(nested)
    assert h == nested and got == [] and h_part(((4, 1), 2)) == ((4, 1), 2)
    h, got, h_part, exponents = _cyclic_split(TABLE_PRODUCTS["Z/2 x (S3 x Z/3)"])
    assert h_part((1, (4, 2))) == 4 and exponents((1, (4, 2))) == (1, 2)


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
    cases = [
        RingMatrix.from_element(t),
        RingMatrix(z4, [[two, t], [RingElement.zero(z4), two]]),
        RingMatrix.from_element(g + g),
        RingMatrix(s3z2, [[one, g + g.star()], [zero, one]]),
        RingMatrix.from_element(near),
    ]
    for delta in cases:
        assert not delta.is_self_adjoint()
        with pytest.raises(NotHermitian):
            finite_spectrum(delta)

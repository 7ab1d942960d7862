import itertools
import json
import math
import random
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from l2approx import (
    EigenResult,
    FreeAbelianGroup,
    Homomorphism,
    LevelReport,
    QuotientTower,
    RingElement,
    RingMatrix,
    build_boxes_folner,
    betti,
    density_from_eigs,
    finite_spectrum,
    k_bound,
    log_det,
    positive_square,
    run_folner,
    run_tower,
)
from l2approx.cli import main
from l2approx.cw import laplacians
from l2approx.errors import (
    BoxTooLarge,
    HypothesisViolated,
    InjectivityUncertified,
    InsufficientLevels,
    NotInverse,
    SchemeError,
    SolveTooLarge,
)
from l2approx.groupring import GaussianRational
from l2approx.groups import CyclicGroup, product_group, symmetric_group
from l2approx.oracles import check_torus_grid
from l2approx.schemes import (
    MAX_BAND_ENTRIES,
    MAX_BOX_ROWS,
    _band_eigenvalues,
    _band_shape,
    _box_band,
    _support_radius,
    compressed_trace_powers,
)
from l2approx.spectral import (
    CHUNK,
    MAX_BLOCK_ENTRIES,
    MAX_SOLVE_POINTS,
    check_group_solve,
    default_kernel_threshold,
)
from l2approx import schemes, verdicts
from l2approx.verdicts import Context, density_tail_integral

from conftest import (
    SEED,
    at_threshold,
    density_of_counts,
    fixture_complex,
    random_element,
    random_self_adjoint,
    record_torus_slabs,
)
from dense_reference import hermitian_eigenvalues, translation_matrix

TOWER_LEVELS = [8, 16, 32, 64, 128, 256]


@pytest.fixture(scope="module")
def zd_reports(z_laplacian):
    tower = QuotientTower.zn(1, TOWER_LEVELS)
    return run_tower(z_laplacian, tower)


def test_tower_closed_forms(zd_reports):
    for rep in zd_reports:
        n = rep.level
        assert rep.f0 == 1.0 / n  # kernel of the circulant is the constants
        assert abs(rep.logdet - 2 * math.log(n) / n) <= 1e-9
        assert rep.matrix_size == n
        assert rep.norm_bound_ok
        assert all(rep.trace_certified.values())
        assert rep.exact_traces[1].re == 2
        assert rep.exact_traces[2].re == 6
        assert rep.exact_traces[3].re == 20


def test_tower_identity_matrix(z_group):
    ident = RingMatrix.identity(z_group, 2)
    reports = run_tower(ident, QuotientTower.zn(1, [4, 8]))
    for rep in reports:
        assert rep.f0 == 0.0
        assert rep.logdet == 0.0


def test_tower_requires_self_adjoint(z_group):
    t = RingElement.delta(z_group, (1,))
    with pytest.raises(SchemeError):
        run_tower(RingMatrix.from_element(1 - t), QuotientTower.zn(1, [4]))


def test_tower_levels_are_cut_at_the_towers_threshold(z_group):
    """Delta = (1/1000)(2 - t - 1/t) + 10^6 (2 - t^4 - t^-4) loses its 10^6
    part at Z/4, where the spectrum is {0, 0.002, 0.002, 0.004}.  The tower
    cuts at 1e-9 K(Delta) = 0.004000000004, so the whole level is kernel;
    the level operator's own default cut, 1e-9, would give F(0) = 1/4."""
    t, t4 = RingElement.delta(z_group, (1,)), RingElement.delta(z_group, (4,))
    delta = RingMatrix.from_element(
        Fraction(1, 1000) * (2 - t - t.star()) + 10 ** 6 * (2 - t4 - t4.star())
    )
    tower = QuotientTower.zn(1, [4])
    level = finite_spectrum(delta.push_forward(tower.levels[0]))
    assert np.allclose(level.eigenvalues, [0, 0.002, 0.002, 0.004], rtol=0, atol=1e-15)
    assert level.kernel_end() / level.denom == 0.25
    assert default_kernel_threshold(delta) == 1e-9 * k_bound(delta) > 0.004
    with pytest.warns(InjectivityUncertified):
        (rep,) = run_tower(delta, tower)
    assert rep.f0 == 1.0 and rep.logdet == 0.0


def test_constant_tower_is_stationary(s3):
    rng = random.Random(SEED)
    delta = positive_square(
        RingMatrix(s3, [[random_element(s3, rng)]])
    )
    ident = Homomorphism(s3, s3, element_map={g: g for g in s3.elements()})
    tower = QuotientTower(s3, [ident] * 3)
    reports = run_tower(delta, tower)
    grid = [0.0, 1.0, 2.0, 5.0, 10.0, 40.0]
    ctx = Context(delta, delta, reports, lambda_grid=grid, tol=1e-9)
    ctx.oracle_eig = finite_spectrum(delta)
    verdict = verdicts.squeeze(ctx)
    assert verdict["ok"]
    assert len({r.f0 for r in reports}) == 1


def _box(rank, m):
    return list(itertools.product(range(-m, m + 1), repeat=rank))


def shift(k):
    return RingElement.delta(FreeAbelianGroup(1), (k,))


def _band(delta, m):
    real = all(e.is_real() for row in delta.entries for e in row)
    return _box_band(delta, delta.group.rank, m, real)


def _box_spectrum(delta, m):
    """The spectrum run_folner solves at the box m, solved on its own."""
    nw = (2 * m + 1) ** delta.group.rank
    return EigenResult(_band_eigenvalues(_band(delta, m)), nw, default_kernel_threshold(delta))


def _level_spectrum(delta, phi):
    """The spectrum run_tower solves at the level phi, solved on its own."""
    return at_threshold(finite_spectrum(delta.push_forward(phi)), default_kernel_threshold(delta))


def _assert_same_numbers(rep, want):
    """rep carries want's numbers and density, bit for bit."""
    assert rep.level == want.level and rep.matrix_size == want.matrix_size
    assert rep.f0 == want.f0 and rep.logdet == want.logdet
    assert rep.moments == want.moments and rep.max_eigenvalue == want.max_eigenvalue
    assert rep.exact_traces == want.exact_traces and rep.trace_certified == want.trace_certified
    assert rep.density.positions.tobytes() == want.density.positions.tobytes()
    assert rep.density.counts.tobytes() == want.density.counts.tobytes()


def _band_to_dense(ab, d):
    """A lower band expanded to its Hermitian matrix and permuted from the
    band's (x, k) order to the (k, x) order of ``translation_matrix``."""
    size = ab.shape[1]
    h = np.zeros((size, size), dtype=ab.dtype)
    for r in range(ab.shape[0]):
        assert not ab[r, size - r:].any()  # LAPACK never reads past the last row
        j = np.arange(size - r)
        h[j, j + r] = ab[r, : size - r].conj()
        h[j + r, j] = ab[r, : size - r]
    n = size // d
    perm = [x * d + k for k in range(d) for x in range(n)]
    return h[np.ix_(perm, perm)]


def test_compress_examples(z_laplacian, z_group):
    assert np.array_equal(_band(z_laplacian, 1), [[2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]])
    assert np.array_equal(_band(z_laplacian, 0), [[2.0]])
    ident = RingMatrix.identity(z_group, 2)
    assert np.array_equal(_band_to_dense(_band(ident, 1), 2), np.eye(6))
    t = RingElement.delta(z_group, (1,))
    sym = RingMatrix.from_element(t + t.star())
    assert np.array_equal(_band_to_dense(_band(sym, 1), 1), np.diag([1.0, 1.0], -1) + np.diag([1.0, 1.0], 1))
    # complex, non-diagonal 2x2 over Z^2: band entry (i - j, j) for row
    # i = (x, k) and column j = (y, l) is the coefficient of x - y in Delta_kl
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    m0 = RingMatrix(z2, [[alpha * a + 2, b * b - a.star()], [a * b, alpha * b.star()]])
    delta = m0 + m0.adjoint()
    box = _box(2, 2)
    ab = _band(delta, 2)
    # the widest term is a*b in Delta_10, at band row 2 * (5 + 1) + 1 - 0
    assert ab.dtype == np.complex128 and ab.shape == (2 * (5 + 1) + 1 + 1, 2 * len(box))
    for k in range(2):
        for l in range(2):
            terms = delta.entries[k][l].terms
            for u, x in enumerate(box):
                for v, y in enumerate(box):
                    i, j = 2 * u + k, 2 * v + l
                    if i < j:
                        continue
                    diff = (x[0] - y[0], x[1] - y[1])
                    coeff = complex(terms[diff]) if diff in terms else 0j
                    if i - j < ab.shape[0]:
                        assert ab[i - j, j] == coeff
                    else:
                        assert coeff == 0


def test_compress_matches_dense_reference(z_group):
    """The band, expanded and permuted, against the term-by-term reference,
    bit for bit, on boxes that products leave."""
    t = RingElement.delta(z_group, (1,))
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    m0 = RingMatrix(z2, [[alpha * a + 2, b * b - a.star()], [a * b, alpha * b.star()]])
    rng = random.Random(SEED + 5)
    cases = [
        (positive_square(RingMatrix.from_element(2 - 3 * t * t + t.star())), (0, 1, 4)),
        (random_self_adjoint(z_group, rng, d=2), (0, 2, 5)),
        (random_self_adjoint(z_group, rng, d=3), (1, 3)),
        # rank 2, complex, non-diagonal
        (m0 + m0.adjoint(), (0, 1, 2)),
        (positive_square(RingMatrix.from_element(1 - alpha * a + b)), (0, 1, 3)),
        (positive_square(RingMatrix(z2, [[a + alpha, 2 * b.star()]])), (1, 2)),
        # a support wider than the box: every off-diagonal product leaves
        (RingMatrix.from_element(3 + shift(5) + shift(-5)), (0, 2)),
        (RingMatrix.zero(z2, 2, 2), (0, 1)),
    ]
    for delta, sizes in cases:
        for m in sizes:
            ab = _band(delta, m)
            ref = translation_matrix(delta, _box(delta.group.rank, m))
            h = _band_to_dense(ab, delta.rows)
            assert h.dtype == ref.dtype and h.shape == ref.shape
            assert np.array_equal(h, ref)
            # once every support element fits in the box, each term has an
            # entry, so the outermost band row is not all zero
            if 2 * m + 1 > _support_radius(delta) and ab.shape[0] > 1:
                assert ab[-1].any()


def test_run_folner_eigenvalues_match_dense_reference(z_group, z_laplacian):
    """Tridiagonal real compressions give the dense eigenvalues bit for bit.
    Wider bands (d = 2, rank 2) are reduced differently by the band and the
    dense LAPACK routines, so they agree to rounding and in every density
    jump count and F(0)."""
    rng = random.Random(SEED + 6)
    t = RingElement.delta(z_group, (1,))
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    tridiagonal = [
        (z_laplacian, build_boxes_folner(1, [0, 1, 4, 64, 1024])),
        (RingMatrix.from_element(Fraction(7, 3) - Fraction(5, 4) * (t + t.star())),
         build_boxes_folner(1, [0, 3, 40])),
        (positive_square(RingMatrix.from_element(random_element(z_group, rng))),
         build_boxes_folner(1, [0, 3, 6])),
    ]
    for delta, exhaustion in tridiagonal:
        reports = run_folner(delta, exhaustion)
        for i, rep in enumerate(reports):
            ref = hermitian_eigenvalues(translation_matrix(delta, _box(delta.group.rank, rep.level)))
            eig = _box_spectrum(delta, rep.level)
            assert np.array_equal(eig.eigenvalues, ref)
            assert rep.max_eigenvalue == ref[-1] and rep.f0 == eig.kernel_end() / eig.denom
    wide = [
        (random_self_adjoint(z_group, rng, d=2), build_boxes_folner(1, [2, 5])),
        (positive_square(RingMatrix.from_element(1 - alpha * a + b)), build_boxes_folner(2, [1, 3])),
        (positive_square(RingMatrix.from_element(3 - shift(3) + 2 * t.star())), build_boxes_folner(1, [4, 9])),
    ]
    for delta, exhaustion in wide:
        reports = run_folner(delta, exhaustion)
        scale = max(1.0, k_bound(delta))
        for i, rep in enumerate(reports):
            ref = hermitian_eigenvalues(translation_matrix(delta, _box(delta.group.rank, rep.level)))
            eig = _box_spectrum(delta, rep.level)
            assert np.max(np.abs(eig.eigenvalues - ref)) <= 1e-12 * scale
            assert rep.max_eigenvalue == eig.max_eigenvalue
            ref_density = density_from_eigs(EigenResult(ref, eig.denom, eig.kernel_threshold))
            assert [c for _, c in rep.density.jumps] == [c for _, c in ref_density.jumps]
            assert rep.f0 == betti(ref_density)


def test_run_folner_edge_cases(z_group):
    # a one-point box: the band is the d x d matrix itself
    t = RingElement.delta(z_group, (1,))
    point = RingMatrix.from_element(5 - t - t.star())
    (rep,) = run_folner(point, build_boxes_folner(1, [0]))
    assert _band_eigenvalues(_band(point, 0)).tolist() == [5.0]
    assert rep.max_eigenvalue == 5.0 and rep.matrix_size == 1
    # the zero matrix: an all-zero band and an all-zero spectrum
    zero = RingMatrix.zero(FreeAbelianGroup(2), 2, 2)
    assert not _band(zero, 2).any()
    for rep in run_folner(zero, build_boxes_folner(2, [0, 2])):
        assert not _band_eigenvalues(_band(zero, rep.level)).any()
        assert rep.max_eigenvalue == 0.0
        assert rep.f0 == 2.0 and rep.logdet == 0.0
        assert rep.matrix_size == 2 * (2 * rep.level + 1) ** 2
    # a complex Hermitian band: i (t - 1/t) on a path of L points is unitarily
    # the path adjacency, with eigenvalues 2 cos(pi j / (L + 1))
    i_shift = RingMatrix.from_element(RingElement.scalar(z_group, 1j) * (t - t.star()))
    assert _band(i_shift, 3).dtype == np.complex128
    for rep in run_folner(i_shift, build_boxes_folner(1, [0, 3, 20])):
        size = 2 * rep.level + 1
        expected = np.sort(2 * np.cos(np.pi * np.arange(1, size + 1) / (size + 1)))
        assert np.allclose(_band_eigenvalues(_band(i_shift, rep.level)), expected, atol=1e-12)
        assert abs(rep.max_eigenvalue - expected[-1]) <= 1e-12


def test_no_row_matrix_folner_matches_tower(z_group, tmp_path, capsys):
    """A matrix with no rows has a (1, 0) band, which solves to no
    eigenvalues: each Folner box reports what the tower level of as many
    points reports, an empty spectrum of mass 0, and the CLI's approx and
    density exit 0 on it."""
    empty = RingMatrix.zero(z_group, 0, 0)
    assert _band(empty, 2).shape == (1, 0)
    folner = run_folner(empty, build_boxes_folner(1, [0, 2]))
    tower = run_tower(empty, QuotientTower.zn(1, [1, 5]))
    for box, level in zip(folner, tower, strict=True):
        for name in ("f0", "logdet", "matrix_size", "max_eigenvalue", "norm_bound_ok"):
            assert getattr(box, name) == getattr(level, name), name
        assert box.density.jumps == level.density.jumps == ()
        assert box.matrix_size == 0 and box.density.total_mass == 0.0
    problem = tmp_path / "no_rows.json"
    problem.write_text(json.dumps({
        "group": {"type": "free_abelian", "rank": 1},
        "matrix": {"rows": 0, "cols": 0, "entries": []},
        "scheme": {"type": "folner", "boxes": [2, 4]},
    }))
    assert main(["approx", str(problem)]) == 0
    assert main(["density", str(problem), "--level", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.bitwise
def test_band_eigenvalues_match_eig_banded(z_group, z_laplacian):
    """The direct ?sbevd/?hbevd call gives what scipy.linalg.eig_banded gives
    on the same band, bit for bit and in the same dtype, and rejects a band
    that is not finite as eig_banded does."""
    from scipy.linalg import eig_banded

    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    lap2 = RingMatrix.from_element(4 - a - a.star() - b - b.star())
    t = RingElement.delta(z_group, (1,))
    alpha = RingElement.scalar(z_group, complex(0.5, -1.5))
    gaussian = positive_square(RingMatrix.from_element(2 - alpha * t + shift(3)))
    d2 = random_self_adjoint(z_group, random.Random(SEED + 9), d=2)
    assert d2.rows == 2
    cases = [
        (z_laplacian, 0, 1, np.float64),
        (z_laplacian, 4, 2, np.float64),
        (z_laplacian, 1024, 2, np.float64),
        (lap2, 6, 2 * 6 + 2, np.float64),
        (gaussian, 5, 4, np.complex128),
        (d2, 5, None, None),
    ]
    for delta, m, rows, dtype in cases:
        ab = _band(delta, m)
        assert rows is None or ab.shape[0] == rows
        assert dtype is None or ab.dtype == dtype
        before = ab.copy()
        w = _band_eigenvalues(ab)
        assert np.array_equal(ab, before)  # the band is not overwritten
        ref = eig_banded(ab, lower=True, eigvals_only=True)
        assert w.dtype == ref.dtype == np.float64
        assert np.array_equal(w, ref)
    ab = _band(z_laplacian, 4)
    ab[0, 3] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        _band_eigenvalues(ab)


def test_box_caps(z_group):
    """Box levels are capped at MAX_BOX_ROWS rows and MAX_BAND_ENTRIES band
    entries, checked for the largest box before any level runs."""
    t = RingElement.delta(z_group, (1,))
    lap = RingMatrix.from_element(2 - t - t.star())
    assert _band_shape(lap, 1, 8191) == (MAX_BOX_ROWS - 1, 1)
    with pytest.raises(BoxTooLarge, match="16385 rows"):
        _band_shape(lap, 1, 8192)
    with pytest.raises(BoxTooLarge, match="65537 rows"):
        run_folner(lap, build_boxes_folner(1, [4, 32768]))
    # a wide support: few enough rows, too many band entries
    wide = RingMatrix.from_element(3 + shift(1100) + shift(-1100))
    assert _band_shape(wide, 1, 7000) == (14001, 1100)
    with pytest.raises(BoxTooLarge, match="band entries"):
        _band_shape(wide, 1, 8000)
    assert 16001 <= MAX_BOX_ROWS and 16001 * 1101 > MAX_BAND_ENTRIES
    # rank 2: the widest step is (1, 0), so the bandwidth is 2m + 1; the
    # support has no corner step (1, 1), which would need 2m + 2
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    lap2 = RingMatrix.from_element(4 - a - a.star() - b - b.star())
    assert _band_shape(lap2, 2, 63) == (127 ** 2, 127)
    with pytest.raises(BoxTooLarge):
        _band_shape(lap2, 2, 64)


def test_solve_caps(z_laplacian):
    """One solve has at most MAX_SOLVE_POINTS eigenvalues: d |G| for a finite
    level or group, d m^n for a torus grid; the |C| character blocks of size
    d |H| of a finite group G = H x C have at most MAX_BLOCK_ENTRIES entries.
    The caps clear every bundled workload: the torus's 2 x 2 Laplacian at
    grid 1024, tower levels up to 2^18 with an oracle grid of 4096, and
    |G| = 1440 for S5 x Z/12, 12 blocks of size 120."""
    delta1 = laplacians(fixture_complex("torus"))[1]
    assert delta1.rows == 2 and check_torus_grid(delta1, 1024) == 1024 ** 2
    assert check_torus_grid(delta1, 1448) == 1448 ** 2  # 4193408 eigenvalues
    with pytest.raises(SolveTooLarge, match="oracle grid 1449 has 2099601 points x 2 rows"):
        check_torus_grid(delta1, 1449)
    assert check_torus_grid(z_laplacian, 4096) == 4096 and 2 ** 18 <= MAX_SOLVE_POINTS
    assert 1440 <= MAX_SOLVE_POINTS
    # every tower level is checked before the first one runs
    with pytest.raises(SolveTooLarge, match="tower level 4194305"):
        run_tower(z_laplacian, QuotientTower.zn(1, [8, 2 ** 22 + 1]))
    big = CyclicGroup(2 ** 21 + 1)
    with pytest.raises(SolveTooLarge, match=r"group Z/2097153 has 2097153 points x 2 rows"):
        finite_spectrum(RingMatrix.identity(big, 2))
    assert issubclass(SolveTooLarge, SchemeError) and issubclass(BoxTooLarge, SolveTooLarge)
    s5 = symmetric_group(5)
    check_group_solve(product_group([s5, CyclicGroup(12)]), 1, "S5 x Z/12")
    assert 12 * 120 ** 2 <= MAX_BLOCK_ENTRIES
    check_group_solve(CyclicGroup(2 ** 20), 4, "Z/2^20")  # 2^20 blocks of 4 x 4: at the cap
    # 6 2^19 eigenvalues are below the point cap, 36 2^19 block entries above
    with pytest.raises(SolveTooLarge, match=r"Z/2\^19 has 524288 character blocks of 6 x 6"):
        check_group_solve(CyclicGroup(2 ** 19), 6, "Z/2^19")
    with pytest.raises(SolveTooLarge, match="S5 x S5 has 1 character blocks of 14400 x 14400"):
        check_group_solve(product_group([s5, s5]), 1, "S5 x S5")
    # a torus grid's stack of d x d symbols has at most MAX_BLOCK_ENTRIES
    # entries, unless delta is diagonal and solved entry by entry
    z2 = FreeAbelianGroup(2)
    one, zero = RingElement.one(z2), RingElement.zero(z2)
    diagonal = RingMatrix.identity(z2, 64)
    wide = RingMatrix(z2, [[one if k == l or k + l == 1 else zero for l in range(64)] for k in range(64)])
    assert 256 ** 2 * 64 == MAX_SOLVE_POINTS and 256 ** 2 * 64 ** 2 > MAX_BLOCK_ENTRIES
    assert check_torus_grid(diagonal, 256) == 256 ** 2
    with pytest.raises(SolveTooLarge, match="oracle grid 256 has 65536 symbols of 64 x 64 = 268435456 entries"):
        check_torus_grid(wide, 256)
    assert check_torus_grid(wide, 64) == 64 ** 2  # 2^24 entries: at the cap


def test_box_defect_examples():
    exh = build_boxes_folner(1, [10])
    assert exh.defect(0, 1) == pytest.approx(4 / 21)
    assert exh.defect(0, 0) == 0.0
    exh2 = build_boxes_folner(2, [3])
    assert exh2.defect(0, 0) == 0.0
    exh = build_boxes_folner(1, [2, 4, 8, 16, 32])
    profile = [exh.defect(i, 1) for i in range(len(exh.labels))]
    assert all(a > b for a, b in zip(profile, profile[1:]))


def _defect_brute(n, points, k: int) -> float:
    """|N_k(X)| / |X| for any finite X in Z^n, by enumerating the k-collar:
    the reference for ``_defect_dilations``."""
    pts = set(points)
    if k == 0:
        return 0.0
    collar = 0
    # every candidate is within distance k of the set by construction
    candidates = set()
    for p in pts:
        for off in itertools.product(range(-k, k + 1), repeat=n):
            candidates.add(tuple(a + b for a, b in zip(p, off)))
    for x in candidates:
        if x not in pts:
            collar += 1  # distance to the complement is 0
            continue
        dout = None
        for r in range(1, k + 1):
            shell = (
                tuple(a + b for a, b in zip(x, off))
                for off in itertools.product(range(-r, r + 1), repeat=n)
                if max(abs(v) for v in off) == r
            )
            if any(s not in pts for s in shell):
                dout = r
                break
        if dout is not None:
            collar += 1
    return collar / len(pts)


def _dilate(mask, k: int, outside: bool):
    """The points of the array within sup-distance k of a True entry, the
    entries beyond its edges counting as ``outside``: one OR of 2k + 1
    shifts per axis."""
    for axis in range(mask.ndim):
        pad = [(k, k) if a == axis else (0, 0) for a in range(mask.ndim)]
        padded = np.pad(mask, pad, constant_values=outside)
        grown = np.zeros_like(mask)
        for shift in range(2 * k + 1):
            grown |= np.take(padded, range(shift, shift + mask.shape[axis]), axis=axis)
        mask = grown
    return mask


def _defect_dilations(n, points, k: int) -> float:
    """|N_k(X)| / |X| for any finite X in Z^n, N_k(X) the dilation of X by
    the sup-norm k-ball intersected with the dilation of its complement: the
    reference for the closed-form box defect, on a grid that holds the
    dilation of X."""
    pts = np.array(sorted(points)).reshape(-1, n)
    low = pts.min(axis=0) - k
    inside = np.zeros(tuple(pts.max(axis=0) - low + k + 1), dtype=bool)
    inside[tuple((pts - low).T)] = True
    collar = _dilate(inside, k, False) & _dilate(~inside, k, True)
    return int(collar.sum()) / len(pts)


def test_dilation_defect_matches_brute_force_on_random_sets():
    # sets in Z^1 and Z^2 that are not boxes, some with holes
    rng = random.Random(SEED)
    for _ in range(40):
        n = rng.choice((1, 2))
        points = {tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, 12))}
        k = rng.randint(0, 3)
        assert _defect_dilations(n, points, k) == _defect_brute(n, points, k), (points, k)


def test_box_defect_matches_brute_force():
    # k > m covers boxes whose inner box [-(m - k), m - k]^n is empty
    for rank in (1, 2, 3):
        for m in range(5):
            boxes = build_boxes_folner(rank, [m])
            for k in range(m + 3):
                assert boxes.defect(0, k) == _defect_dilations(rank, _box(rank, m), k)


def test_folner_nestedness_enforced():
    with pytest.raises(SchemeError):
        build_boxes_folner(1, [4, 4])


@pytest.fixture(scope="module")
def folner_reports(z_laplacian):
    exh = build_boxes_folner(1, [4, 8, 16, 32, 64])
    return run_folner(z_laplacian, exh)


def test_folner_closed_forms(z_laplacian, folner_reports):
    for rep in folner_reports:
        m = rep.level
        s = 2 * m + 1
        assert rep.exact_traces[1].re == 2  # diagonal entries are all 2
        assert rep.exact_traces[2].re == Fraction(6 * s - 2, s)
        assert rep.exact_traces[3].re == Fraction(20 * s - 12, s)
        assert rep.f0 == 0.0  # the truncated operator is positive definite
        assert rep.norm_bound_ok
        # Dirichlet eigenvalues of the tridiagonal compression
        w = _band_eigenvalues(_band(z_laplacian, m))
        expected = 2 - 2 * np.cos(np.pi * np.arange(1, s + 1) / (s + 1))
        assert np.allclose(w, np.sort(expected), atol=1e-9)
        assert rep.max_eigenvalue == w[-1]


def test_folner_trace_gap_bounded_by_defect(z_laplacian, folner_reports):
    # |tr_m p(Delta_m) - tr p(Delta)| <= C * defect for p = x, x^2, x^3
    exact = {1: 2.0, 2: 6.0, 3: 20.0}
    fitted_c = 0.0
    for rep in folner_reports:
        for m_power in (1, 2, 3):
            gap = abs(float(rep.exact_traces[m_power].re) - exact[m_power])
            defect = rep.defects[m_power]
            if defect:
                fitted_c = max(fitted_c, gap / defect)
    assert fitted_c <= 10.0
    for rep in folner_reports:
        for m_power in (1, 2, 3):
            gap = abs(float(rep.exact_traces[m_power].re) - exact[m_power])
            assert gap <= fitted_c * rep.defects[m_power] + 1e-12


def test_folner_trace_convergence_to_one_percent(z_laplacian):
    exh = build_boxes_folner(1, [128, 256, 512, 1024])
    reports = run_folner(z_laplacian, exh)
    final = reports[-1]
    for m_power, target in ((1, 2.0), (2, 6.0), (3, 20.0)):
        assert abs(float(final.exact_traces[m_power].re) - target) < 1e-2


def _dense_exact_trace_powers(delta, window, powers):
    """Reference: traces of exact dense powers of the compressed matrix."""
    index = {x: i for i, x in enumerate(window)}
    nw = len(window)
    size = delta.rows * nw
    zero = GaussianRational.of(0)
    h = [[zero] * size for _ in range(size)]
    for k in range(delta.rows):
        for l in range(delta.cols):
            for g, c in delta.entries[k][l].terms.items():
                for v, y in enumerate(window):
                    u = index.get(tuple(a + b for a, b in zip(y, g)))
                    if u is not None:
                        h[k * nw + u][l * nw + v] += c
    out = {}
    power = h
    for m in range(1, max(powers) + 1):
        if m in powers:
            out[m] = sum((power[i][i] for i in range(size)), zero)
        power = [
            [
                sum((a * h[t][j] for t, a in enumerate(row) if not a.is_zero()), zero)
                for j in range(size)
            ]
            for row in power
        ]
    return out


def _set_walk_trace_powers(delta, window, powers):
    """Reference: the closed-walk sum of ``compressed_trace_powers`` with
    each walk counted as the set |X ∩ (X + s_1) ∩ ... ∩ (X + s_{k-1})|."""
    points = set(window)
    top = max(powers)
    out = {k: GaussianRational.of(0) for k in powers}

    def extend(start, k, total, coef, prefixes):
        if len(prefixes) in powers and k == start and not any(total):
            count = len(points.intersection(
                *({tuple(a + b for a, b in zip(x, s)) for x in points} for s in prefixes)
            ))
            out[len(prefixes)] += coef * count
        if len(prefixes) == top:
            return
        for l in range(delta.cols):
            for g, c in delta.entries[k][l].terms.items():
                nxt = tuple(a + b for a, b in zip(total, g))
                extend(start, l, nxt, coef * c, prefixes + (total,))

    for k in range(delta.rows):
        extend(k, k, (0,) * delta.group.rank, GaussianRational.of(1), ())
    return out


def test_compressed_trace_powers_closed_form_counts(z_group):
    """The product of per-coordinate spans counts the walk's box points
    exactly as the set intersection does, in rank 1 and rank 2."""
    rng = random.Random(SEED + 2)
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    cases = [
        positive_square(RingMatrix.from_element(random_element(z_group, rng))),
        random_self_adjoint(z_group, rng, d=2),
        positive_square(RingMatrix.from_element(1 - alpha * a + b * b)),
        RingMatrix(z2, [[alpha * a + 2, b], [a.star(), alpha * b.star()]]),
    ]
    for delta in cases:
        for m in (0, 1, 3, 8):
            exact = compressed_trace_powers(delta, m, (1, 2, 3))
            assert exact == _set_walk_trace_powers(delta, _box(delta.group.rank, m), (1, 2, 3))


def test_compressed_trace_powers_match_numpy(z_group):
    rng = random.Random(SEED + 1)
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    cases = [
        (positive_square(RingMatrix.from_element(random_element(z_group, rng))), 6)
        for _ in range(5)
    ]
    cases += [
        (positive_square(RingMatrix.from_element(random_element(z2, rng))), 2),
        (random_self_adjoint(z_group, rng, d=2), 4),
        (positive_square(RingMatrix.from_element(1 - alpha * a + b)), 3),
        # not self-adjoint: traces with nonzero imaginary parts
        (RingMatrix(z2, [[alpha * a + 2, b], [a.star(), alpha * b.star()]]), 1),
    ]
    for delta, m in cases:
        window = _box(delta.group.rank, m)
        h = translation_matrix(delta, window)
        exact = compressed_trace_powers(delta, m, (1, 2, 3))
        assert exact == _dense_exact_trace_powers(delta, window, (1, 2, 3))
        for k, value in exact.items():
            numeric = complex(np.trace(np.linalg.matrix_power(h, k)))
            assert abs(complex(value) - numeric) <= 1e-8 * max(1.0, abs(numeric))
            if delta.is_self_adjoint():
                assert value.im == 0


def test_squeeze_check(zd_reports, z_laplacian):
    grid = [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]
    ctx = Context(z_laplacian, z_laplacian, zd_reports, grid=4096, lambda_grid=grid)
    assert verdicts.squeeze(ctx)["ok"]
    with pytest.raises(InsufficientLevels):
        verdicts.squeeze(replace(ctx, reports=zd_reports[:2], lambda_grid=[0.0]))


def test_sintapr_check(zd_reports, z_laplacian):
    # extend with deeper levels so the tail estimate clears the oracle bound
    deep = run_tower(z_laplacian, QuotientTower.zn(1, [512, 1024]))
    # K = max(norm_bound, 1) = 4: the norm bound of 2 - t - 1/t
    assert {rep.norm_bound for rep in zd_reports + deep} == {4.0}
    ctx = Context(z_laplacian, z_laplacian, zd_reports + deep, grid=4096)
    verdict = verdicts.sintapr(ctx)
    assert verdict["ok"]
    for row in verdict["rows"]:
        assert row["integral"] <= row["bound"] + 0.02
        assert row["identity_gap"] <= 1e-8
    assert verdict["limsup_estimate"] <= ctx.oracle["value"] + 0.02


def test_context_solves_its_oracle_once(zd_reports, z_laplacian, monkeypatch):
    """A Context with no grid solves nothing: its oracle is None, and
    sintapr runs without one.  With a grid, the oracle report and the
    oracle density share one fine solve, read in either order; the report
    adds the coarse grid of its error estimate."""
    slabs = record_torus_slabs(monkeypatch)
    bare = Context(z_laplacian, z_laplacian, zd_reports)
    assert bare.oracle is None
    assert verdicts.sintapr(bare)["oracle_logdet"] is None
    assert slabs == []
    for first in ("oracle", "oracle_density"):
        slabs.clear()
        ctx = Context(z_laplacian, z_laplacian, zd_reports, grid=64)
        getattr(ctx, first)
        assert ctx.oracle["grid"] == 64 and ctx.oracle_density.total_mass == 1
        assert ctx.oracle_density.denom == 64
        assert sorted(slabs) == [(32, 0, 32), (64, 0, 64)]


def _tail_integral_loop(density, k):
    """Per-jump loop that density_tail_integral replaced; the reference below."""
    slack = 1e-9 * max(1.0, k)
    acc = 0.0
    for pos, count in density.jumps:
        if pos <= 0.0 or pos > k + slack:
            continue
        acc += (count / density.denom) * math.log(k / pos)
    return acc


def test_density_tail_integral_matches_loop_bitwise(zd_reports, folner_reports):
    rng = np.random.default_rng(SEED + 7)
    densities = [rep.density for rep in zd_reports + folner_reports]
    densities.append(density_of_counts([], [], 5))
    for _ in range(30):
        thr = float(10.0 ** rng.uniform(-9, -2))
        values = np.concatenate(
            [rng.uniform(-0.1, 4.5, rng.integers(0, 2000)), np.zeros(rng.integers(0, 4))]
        )
        densities.append(density_from_eigs(EigenResult(values, int(rng.integers(1, 50)), thr)))
    for density in densities:
        top = density.positions[-1] if len(density.positions) else 1.0
        # K at, just inside and just outside the top jump, and well inside
        for k in (4.0, top, top * (1 - 5e-10), top * (1 - 2e-9), top / 3):
            got = density_tail_integral(density, k)
            assert type(got) is float
            assert got == _tail_integral_loop(density, k)


def _tail_integral_one_pass(density, k):
    """The one-pass form that the chunked density_tail_integral replaced:
    one mask, one list of every log, one cumsum; the reference below."""
    slack = 1e-9 * max(1.0, k)
    pos = density.positions
    inside = (pos > 0.0) & (pos <= k + slack)
    logs = np.fromiter(map(math.log, (k / pos[inside]).tolist()), dtype=np.float64)
    terms = density.counts[inside] / density.denom * logs
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _random_jumps(rng, count):
    positions = np.sort(rng.uniform(-0.5, 4.5, count))
    return density_of_counts(positions, rng.integers(1, 9, count), int(rng.integers(1, 10 ** 6)))


def test_density_tail_integral_chunks_match_one_pass_bitwise():
    """Summed CHUNK jumps at a time, the running total carried over,
    the integral is bit for bit the one-pass sum: 2^17 random jumps, K
    inside, at and beyond the top, and slices that end on, just after and
    just before a chunk boundary."""
    rng = np.random.default_rng(SEED + 11)
    density = _random_jumps(rng, 2 ** 17)
    inside = density.positions[density.positions > 0.0]
    ks = [4.5, 5.0, 1.0, float(inside[CHUNK - 1]), float(inside[CHUNK]), float(inside[2 * CHUNK - 2])]
    for k in ks:
        got = density_tail_integral(density, k)
        assert type(got) is float and got == _tail_integral_one_pass(density, k), k
    assert density_tail_integral(density, -1.0) == 0.0 == _tail_integral_one_pass(density, -1.0)


def test_density_tail_integral_memory_is_one_chunk():
    """No list or array of every jump inside: on 2^17 jumps the integral
    peaks under 1 MB, a few CHUNK-sized temporaries."""
    density = _random_jumps(np.random.default_rng(SEED + 12), 2 ** 17)
    density_tail_integral(density, 4.5)  # warm
    tracemalloc.start()
    try:
        density_tail_integral(density, 4.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _cubic_shift_laplacian():
    """2 - t^3 - t^-3 over Z: a one-point diagonal level at every Z/N."""
    z = FreeAbelianGroup(1)
    t3 = RingElement.delta(z, (3,))
    return RingMatrix.from_element(2 * RingElement.one(z) - t3 - t3.star())


def _traced_tower_peak(delta, tower) -> tuple:
    """(reports, tracemalloc peak) of a run_tower call after a warm one."""
    run_tower(delta, tower)  # warm: caches and lazy imports
    tracemalloc.start()
    try:
        reports = run_tower(delta, tower)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return reports, peak


def test_tower_level_memory_stays_near_its_spectrum():
    """A one-point diagonal level adds its real cosine phases into the
    spectrum CHUNK elements at a time, dropping each phase before the next,
    sorts it once, takes its logdet and moments, and only then writes its
    density in place: one Z/2^16 level of 2 - t^3 - t^-3 peaks within 2.5
    times the bytes of its eigenvalues (2.27; 3.0 with whole-array symbol
    updates and the density built first, 4.0 with a density built by
    concatenation)."""
    delta, tower = _cubic_shift_laplacian(), QuotientTower.zn(1, [2 ** 16])
    reports, peak = _traced_tower_peak(delta, tower)
    w = _level_spectrum(delta, tower.levels[0]).eigenvalues
    assert w.nbytes == 8 * 2 ** 16 == 8 * reports[0].matrix_size
    assert peak <= 2.5 * w.nbytes


def test_tower_ladder_memory_stays_near_its_top_spectrum():
    """A report keeps its density but not its spectrum, and the levels are
    solved largest first, so every smaller level runs next to the larger
    levels' densities only: a ladder Z/2^10 ... Z/2^16 of 2 - t^3 - t^-3
    peaks within the single-level bound, 2.5 times the top level's
    eigenvalue bytes (2.29; 4.04 with every report keeping its spectrum,
    3.29 with the levels solved smallest first, 4.27 with both)."""
    delta, tower = _cubic_shift_laplacian(), QuotientTower.zn(1, [2 ** k for k in range(10, 17)])
    reports, peak = _traced_tower_peak(delta, tower)
    w = _level_spectrum(delta, tower.levels[-1]).eigenvalues
    assert w.nbytes == 8 * 2 ** 16 == 8 * reports[-1].matrix_size
    assert peak <= 2.5 * w.nbytes


def _record_solves(monkeypatch) -> list:
    """The group of every level ``run_tower`` solves, in solve order."""
    solved = []
    solve = schemes.finite_spectrum

    def recording(delta):
        solved.append(delta.group)
        return solve(delta)

    monkeypatch.setattr(schemes, "finite_spectrum", recording)
    return solved


def _s3_by_cyclic_tower(orders) -> tuple:
    """(A*A for A = 2 + a - b over F2, the tower F2 -> S3 x Z/k for k in
    orders), a sending to (transposition, 1) and b to (3-cycle, 0)."""
    from l2approx import FreeGroup

    f2 = FreeGroup(2)
    a = RingElement.delta(f2, (1,))
    b = RingElement.delta(f2, (2,))
    s3 = symmetric_group(3)
    swap = next(g for g in s3.elements() if g != s3.identity() and s3.multiply(g, g) == s3.identity())
    cycle = next(g for g in s3.elements() if s3.multiply(g, g) != s3.identity())
    levels = [
        Homomorphism(f2, product_group([s3, CyclicGroup(k)]), generator_images=[(swap, 1 % k), (cycle, 0)])
        for k in orders
    ]
    tower = QuotientTower(f2, levels, labels=[f"S3 x Z/{k}" for k in orders])
    return positive_square(RingMatrix.from_element(2 + a - b)), tower


def test_tower_solves_largest_first_and_reports_in_scheme_order(z_laplacian, monkeypatch):
    """run_tower solves its levels largest first, equal orders in scheme
    order, and returns the reports in scheme order, each bit for bit the
    report of its level run alone: on Z -> Z/64, Z/8, Z/32 of 2 - t - 1/t,
    and on F2 -> S3 x Z/k for k = 2, 4, 1, 3, 2 (orders 12, 24, 6, 18, 12)."""
    solved = _record_solves(monkeypatch)
    ladder = QuotientTower.zn(1, [64, 8, 32])
    dense, s3k = _s3_by_cyclic_tower([2, 4, 1, 3, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InjectivityUncertified)  # high powers cannot certify on S3 x Z/k
        for delta, tower, order in ((z_laplacian, ladder, [0, 2, 1]), (dense, s3k, [1, 3, 0, 4, 2])):
            solved.clear()
            reports = run_tower(delta, tower)
            assert solved == [tower.levels[i].target for i in order]
            assert [rep.level for rep in reports] == tower.labels
            for phi, label, rep in zip(tower.levels, tower.labels, reports):
                (alone,) = run_tower(delta, QuotientTower(tower.source, [phi], labels=[label]))
                _assert_same_numbers(rep, alone)


def test_tower_warnings_come_in_scheme_order(z_laplacian):
    """Certification runs before any solve, in scheme order, so the
    uncertified-injectivity warnings keep scheme order while the levels are
    solved largest first."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_tower(z_laplacian, QuotientTower.zn(1, [2, 8, 3]))
    assert [(w.category, str(w.message)) for w in caught] == [
        (InjectivityUncertified, "level 2 does not certify injectivity for power 2"),
        (InjectivityUncertified, "level 2 does not certify injectivity for power 3"),
        (InjectivityUncertified, "level 3 does not certify injectivity for power 3"),
    ]


def test_certified_trace_mismatch_fails_before_any_solve(z_laplacian, monkeypatch):
    """A certified level trace that differs from the trace upstairs raises
    before any level is solved.  A false certificate (every kernel avoided)
    makes Z/2 certify power 2, where 2 - 2t has trace 8, not 6."""
    solved = _record_solves(monkeypatch)
    tower = QuotientTower.zn(1, [2 ** 12, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InjectivityUncertified)
        run_tower(z_laplacian, tower)
    assert len(solved) == 2  # the counter counts
    solved.clear()
    monkeypatch.setattr(Homomorphism, "kernel_avoids", lambda self, elements: True)
    with pytest.raises(SchemeError, match=r"certified level 2 trace of power 2 \(8\)"):
        run_tower(z_laplacian, tower)
    assert solved == []


def test_wall_time_spans_the_whole_level(z_laplacian, monkeypatch):
    """A level's wall_time runs from its solve to the end of its report:
    the logdet, moments and density the report derives are inside it, in
    both schemes."""
    pause = 0.05
    log_det = schemes.log_det

    def slow_log_det(*args):
        time.sleep(pause)
        return log_det(*args)

    monkeypatch.setattr(schemes, "log_det", slow_log_det)
    towers = run_tower(z_laplacian, QuotientTower.zn(1, [8, 16]))
    boxes = run_folner(z_laplacian, build_boxes_folner(1, [2, 3]))
    for rep in towers + boxes:
        assert rep.wall_time >= pause, rep.level


def test_sintapr_hypothesis_violation(z_group):
    half = RingMatrix.from_element(RingElement.scalar(z_group, Fraction(1, 2)))
    reports = run_tower(half, QuotientTower.zn(1, [4, 8, 16]))
    with pytest.raises(HypothesisViolated):
        verdicts.sintapr(Context(half, half, reports))


def _whitehead(a, b, levels, oracle_grid=2048):
    # the CLI's pipeline: one tower run and one oracle for A*A, then the verdict
    delta = positive_square(a)
    reports = run_tower(delta, QuotientTower.zn(1, levels))
    return verdicts.whitehead(Context(a, delta, reports, inverse=b, grid=oracle_grid))


def test_whitehead_elementary(z_group):
    t = RingElement.delta(z_group, (1,))
    one = RingElement.one(z_group)
    zero = RingElement.zero(z_group)
    e = RingMatrix(z_group, [[one, 1 - t], [zero, one]])
    e_inv = RingMatrix(z_group, [[one, t - 1], [zero, one]])
    verdict = _whitehead(e, e_inv, TOWER_LEVELS)
    assert verdict["ok"] and verdict["integral"]
    assert all(abs(v) <= 0.02 for v in verdict["logdets"])
    assert abs(verdict["oracle"]["value"]) <= 0.01


def test_whitehead_shift(z_group):
    t = RingElement.delta(z_group, (1,))
    verdict = _whitehead(
        RingMatrix.from_element(t),
        RingMatrix.from_element(t.star()),
        [4, 16, 64],
    )
    assert verdict["ok"]
    assert all(v == 0.0 for v in verdict["logdets"])


def test_whitehead_not_inverse(z_group):
    t = RingElement.delta(z_group, (1,))
    m = RingMatrix.from_element(t)
    with pytest.raises(NotInverse):
        _whitehead(m, m, [4])


def test_whitehead_non_integral_flagged(z_group):
    two = RingMatrix.from_element(RingElement.scalar(z_group, 2))
    half = RingMatrix.from_element(RingElement.scalar(z_group, Fraction(1, 2)))
    verdict = _whitehead(two, half, [4, 8])
    assert not verdict["integral"]
    assert not verdict["ok"]  # logdet(4) = 2 ln 2 at every level
    assert all(abs(v - 2 * math.log(2)) <= 1e-9 for v in verdict["logdets"])


def _complex(delta, levels, oracle_grid):
    reports = run_tower(delta, QuotientTower.zn(1, levels))
    return reports, verdicts.complex(Context(delta, delta, reports, grid=oracle_grid))


def test_complex_tower_runs(z_group):
    t = RingElement.delta(z_group, (1,))
    alpha = RingElement.scalar(z_group, complex(0.5, 0.5))
    kernel_free = positive_square(RingMatrix.from_element(1 - alpha * t))
    reports, verdict = _complex(kernel_free, [8, 16, 32, 64], oracle_grid=512)
    assert verdict["ok"] and verdict["oracle_f0"] == 0.0
    assert all(rep.f0 == 0.0 for rep in reports)

    unit_root = positive_square(RingMatrix.from_element(1 - t))
    reports, verdict = _complex(unit_root, [8, 16, 32, 64], oracle_grid=512)
    assert verdict["ok"]
    assert [rep.f0 for rep in reports] == [1 / 8, 1 / 16, 1 / 32, 1 / 64]

    zero = RingMatrix.zero(z_group, 2, 2)
    reports, verdict = _complex(zero, [4, 8, 16], oracle_grid=64)
    assert all(rep.f0 == 2.0 for rep in reports)
    assert verdict["ok"]


def test_norm_bound_across_runs(zd_reports, folner_reports, z_laplacian):
    kb = k_bound(z_laplacian)
    assert kb == 4.0
    for rep in list(zd_reports) + list(folner_reports):
        assert rep.max_eigenvalue <= kb + 1e-9


def test_tower_free_group_to_table_group(s3):
    # a non-abelian level: push a free-group matrix onto S3 and use the
    # dense regular representation
    from l2approx import FreeGroup

    f2 = FreeGroup(2)
    a = RingElement.delta(f2, (1,))
    b = RingElement.delta(f2, (2,))
    delta = positive_square(RingMatrix.from_element(a + b))
    transposition = next(
        g for g in s3.elements()
        if g != s3.identity() and s3.multiply(g, g) == s3.identity()
    )
    cycle = next(
        g for g in s3.elements()
        if g != s3.identity() and s3.multiply(g, g) != s3.identity()
    )
    phi = Homomorphism(f2, s3, generator_images=[transposition, cycle])
    tower = QuotientTower(f2, [phi], labels=["s3"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # high powers cannot certify here
        reports = run_tower(delta, tower)
    rep = reports[0]
    assert rep.matrix_size == 6
    assert rep.norm_bound_ok
    # tr delta = 2 survives: the support {e, a^-1 b, b^-1 a} avoids the kernel
    assert rep.trace_certified[1]
    assert rep.exact_traces[1].re == 2
    assert rep.density.total_mass == 1.0


def test_tower_moduli_must_be_finite(z_group):
    ident = Homomorphism(z_group, z_group, generator_images=[(1,)])
    with pytest.raises(SchemeError):
        QuotientTower(z_group, [ident])


def test_norms_check_reads_every_level(z_laplacian):
    """The verdict passes when every level is below its norm bound, reports
    K(A) of the context's matrix and the largest eigenvalue of any level,
    and fails when one level exceeds its bound."""
    tower = QuotientTower.zn(1, [4, 8, 16])
    reports = run_tower(z_laplacian, tower)
    ctx = Context(z_laplacian, z_laplacian, reports)
    verdict = verdicts.norms(ctx)
    assert verdict == {
        "ok": True,
        "k_bound": 4.0,
        "max_eigenvalue": max(rep.max_eigenvalue for rep in reports),
    }
    eig = _level_spectrum(z_laplacian, tower.levels[1])
    reports[1] = replace(reports[1], eigen=eig, norm_bound=reports[1].max_eigenvalue / 2)
    assert verdicts.norms(ctx)["ok"] is False


def test_level_report_derives_its_numbers_from_its_spectrum(z_laplacian):
    """A report's f0, logdet, moments, size, top eigenvalue and norm verdict
    are read off the spectrum it is made from, which it does not keep, so
    ``replace`` must be given the spectrum again and re-derives them: a
    report cannot carry an f0 or a norm verdict its spectrum disagrees
    with."""
    tower = QuotientTower.zn(1, [16])
    rep = run_tower(z_laplacian, tower)[0]
    eig = _level_spectrum(z_laplacian, tower.levels[0])
    assert not hasattr(rep, "eigen")
    assert rep.f0 == eig.kernel_end() / eig.denom == betti(rep.density) == 1 / 16
    assert rep.logdet == log_det(eig)
    assert rep.moments == {m: eig.moment(m) for m in rep.exact_traces}
    assert rep.matrix_size == 16 and rep.max_eigenvalue == eig.max_eigenvalue
    assert rep.norm_bound_ok
    with pytest.raises(ValueError, match="InitVar 'eigen'"):
        replace(rep, norm_bound=rep.max_eigenvalue / 2)  # no spectrum, no report
    low = replace(rep, eigen=eig, norm_bound=rep.max_eigenvalue / 2)
    assert low.norm_bound_ok is False and rep.norm_bound_ok is True
    assert replace(low, eigen=eig, norm_bound=rep.norm_bound).norm_bound_ok is True
    # a wider kernel threshold moves F(0) and logdet together
    wide = replace(rep, eigen=EigenResult(eig.eigenvalues, eig.denom, 1.0))
    assert wide.f0 == at_threshold(eig, 1.0).kernel_end() / 16 > rep.f0
    assert wide.logdet == log_det(at_threshold(eig, 1.0))
    with pytest.raises(ValueError, match="init=False"):
        replace(rep, eigen=eig, f0=0.0)


def test_level_report_derives_its_density_from_its_spectrum(z_laplacian):
    """The density is derived from the spectrum too, after the other
    numbers: it is ``density_from_eigs`` of the spectrum, ``replace`` with
    another spectrum re-derives it with F(0) = f0, and no caller can hand a
    report a density of its own."""
    tower = QuotientTower.zn(1, [16])
    rep = run_tower(z_laplacian, tower)[0]
    eig = _level_spectrum(z_laplacian, tower.levels[0])
    want = density_from_eigs(eig)
    assert rep.density.positions.tobytes() == want.positions.tobytes()
    assert rep.density.jumps == want.jumps
    wide = replace(rep, eigen=EigenResult(eig.eigenvalues, eig.denom, 1.0))
    assert betti(wide.density) == wide.f0 == 5 / 16
    with pytest.raises(ValueError, match="init=False"):
        replace(rep, eigen=eig, density=want)
    with pytest.raises(TypeError):
        LevelReport(16, eig, rep.norm_bound, 0.0, density=want)

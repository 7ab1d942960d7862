import math
import random
from fractions import Fraction

import numpy as np
import pytest

from l2approx import (
    FolnerExhaustion,
    FreeAbelianGroup,
    QuotientTower,
    RingElement,
    RingMatrix,
    build_boxes_folner,
    build_sandwich,
    complex_tower_run,
    compress,
    density_from_eigs,
    finite_spectrum,
    k_bound,
    positive_square,
    run_folner,
    run_tower,
    sandwich_level_check,
    sintapr_check,
    squeeze_check,
    torus_density,
    torus_logdet,
    whitehead_check,
)
from l2approx.errors import (
    CertificationFailed,
    HypothesisViolated,
    InsufficientLevels,
    NotInverse,
    SchemeError,
)
from l2approx.groupring import GaussianRational
from l2approx.schemes import compressed_trace_powers

from conftest import SEED, random_element, random_self_adjoint
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


def test_constant_tower_is_stationary(s3):
    rng = random.Random(SEED)
    delta = positive_square(
        RingMatrix(s3, [[random_element(s3, rng)]])
    )
    tower = QuotientTower.constant(s3, 3)
    reports = run_tower(delta, tower)
    oracle = density_from_eigs(finite_spectrum(delta))
    verdict = squeeze_check(reports, oracle, [0.0, 1.0, 2.0, 5.0, 10.0, 40.0], tol=1e-9)
    assert verdict["ok"]
    assert len({r.f0 for r in reports}) == 1


def test_compress_examples(z_laplacian, z_group):
    h, nw = compress(z_laplacian, [(-1,), (0,), (1,)])
    assert nw == 3
    assert np.allclose(h, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    ident = RingMatrix.identity(z_group, 2)
    h_id, _ = compress(ident, [(0,), (5,), (9,)])
    assert np.allclose(h_id, np.eye(6))
    shift = RingMatrix.from_element(RingElement.delta(z_group, (1,)))
    h_shift, _ = compress(shift, [(-1,), (0,), (1,)])
    assert np.allclose(h_shift, np.diag([1.0, 1.0], -1))
    # complex, non-diagonal 2x2 over Z^2 on an l1-ball: entry ((k,x),(l,y))
    # is the coefficient of x - y in Delta_kl
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    delta = RingMatrix(z2, [[alpha * a + 2, b * b - a.star()], [a * b, alpha * b.star()]])
    ball = [(i, j) for i in range(-2, 3) for j in range(-2, 3) if abs(i) + abs(j) <= 2]
    h, nw = compress(delta, ball)
    assert nw == len(ball) and h.dtype == np.complex128
    for k in range(2):
        for l in range(2):
            terms = delta.entries[k][l].terms
            for u, x in enumerate(ball):
                for v, y in enumerate(ball):
                    diff = (x[0] - y[0], x[1] - y[1])
                    coeff = complex(terms[diff]) if diff in terms else 0j
                    assert h[k * nw + u, l * nw + v] == coeff


def test_compress_matches_dense_reference(z_group):
    """compress against the term-by-term reference, bit for bit, on windows
    that products leave."""
    t = RingElement.delta(z_group, (1,))
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    gappy = [(k,) for k in (-5, -2, -1, 0, 3, 4)]
    ball = [(i, j) for i in range(-2, 3) for j in range(-2, 3) if abs(i) + abs(j) <= 2]
    rng = random.Random(SEED + 5)
    cases = [
        # rank 1, not self-adjoint, on a window with gaps
        (RingMatrix.from_element(2 - 3 * t * t + t.star()), gappy),
        (random_self_adjoint(z_group, rng, d=2), gappy),
        # rank 2, complex, non-diagonal and not self-adjoint
        (RingMatrix(z2, [[alpha * a + 2, b * b - a.star()], [a * b, alpha * b.star()]]), ball),
        (positive_square(RingMatrix.from_element(1 - alpha * a + b)), ball[3:]),
        (RingMatrix(z2, [[a + alpha, 2 * b.star()]]), ball),  # 1 x 2
        # one point, with and without the identity in the support
        (RingMatrix.from_element(3 * t), [(7,)]),
        (RingMatrix.from_element(2 + t - t.star()), [(7,)]),
        (RingMatrix.from_element(alpha * a * b), [(0, 0)]),
        (RingMatrix(z2, [[alpha * a, b], [a.star(), 2 + alpha * b]]), [(1, -1)]),
        # empty window
        (RingMatrix.from_element(2 - t - t.star()), []),
        (RingMatrix(z2, [[alpha * a + 2, b], [a, 1 + b]]), []),
    ]
    for delta, window in cases:
        h, nw = compress(delta, window)
        ref = translation_matrix(delta, window)
        assert nw == len(window)
        assert h.dtype == ref.dtype and h.shape == ref.shape
        assert np.array_equal(h, ref)
    assert np.array_equal(compress(RingMatrix.from_element(3 * t), [(7,)])[0], [[0.0]])


def test_run_folner_eigenvalues_match_dense_reference(z_group):
    rng = random.Random(SEED + 6)
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    balls = [
        [(i, j) for i in range(-r, r + 1) for j in range(-r, r + 1) if abs(i) + abs(j) <= r]
        for r in (1, 2, 4)
    ]
    cases = [
        (positive_square(RingMatrix.from_element(random_element(z_group, rng))),
         build_boxes_folner(1, [0, 3, 6])),
        (random_self_adjoint(z_group, rng, d=2), build_boxes_folner(1, [2, 5])),
        (positive_square(RingMatrix.from_element(1 - alpha * a + b)), build_boxes_folner(2, [1, 3])),
        (positive_square(RingMatrix(z2, [[alpha * a + 2, b], [a, 1 + b]])),
         FolnerExhaustion(z2, explicit_sets=balls)),
    ]
    for delta, exhaustion in cases:
        reports = run_folner(delta, exhaustion)
        for i, rep in enumerate(reports):
            ref = hermitian_eigenvalues(translation_matrix(delta, exhaustion.set_at(i)))
            assert np.array_equal(rep.eigen.eigenvalues, ref)


def test_box_defect_examples():
    exh = build_boxes_folner(1, [10])
    assert exh.defect(0, 1) == pytest.approx(4 / 21)
    assert exh.defect(0, 0) == 0.0
    exh2 = build_boxes_folner(2, [3])
    assert exh2.defect(0, 0) == 0.0
    profile = build_boxes_folner(1, [2, 4, 8, 16, 32]).defect_profile(1)
    assert all(a > b for a, b in zip(profile, profile[1:]))


def test_box_defect_matches_brute_force():
    for rank in (1, 2):
        for m in (2, 3):
            boxes = build_boxes_folner(rank, [m])
            explicit = FolnerExhaustion(
                FreeAbelianGroup(rank), explicit_sets=[boxes.set_at(0)]
            )
            for k in (1, 2):
                assert boxes.defect(0, k) == pytest.approx(explicit.defect(0, k))


def test_defect_profile_decreasing_check():
    exh = build_boxes_folner(1, [2, 4, 8, 16])
    ok, start = exh.check_defect_decreasing(2)
    assert ok and start == 0
    single = build_boxes_folner(2, [5])
    ok, _ = single.check_defect_decreasing(1)
    assert ok


def test_folner_nestedness_enforced():
    with pytest.raises(SchemeError):
        build_boxes_folner(1, [4, 4])
    with pytest.raises(SchemeError):
        FolnerExhaustion(
            FreeAbelianGroup(1), explicit_sets=[[(0,), (1,)], [(0,), (2,)]]
        )


@pytest.fixture(scope="module")
def folner_reports(z_laplacian):
    exh = build_boxes_folner(1, [4, 8, 16, 32, 64])
    return run_folner(z_laplacian, exh)


def test_folner_closed_forms(folner_reports):
    for rep in folner_reports:
        m = rep.level
        s = 2 * m + 1
        assert rep.exact_traces[1].re == 2  # diagonal entries are all 2
        assert rep.exact_traces[2].re == Fraction(6 * s - 2, s)
        assert rep.exact_traces[3].re == Fraction(20 * s - 12, s)
        assert rep.f0 == 0.0  # the truncated operator is positive definite
        assert rep.norm_bound_ok
        # Dirichlet eigenvalues of the tridiagonal compression
        w = np.sort(rep.eigen.eigenvalues)
        expected = 2 - 2 * np.cos(np.pi * np.arange(1, s + 1) / (s + 1))
        assert np.allclose(w, np.sort(expected), atol=1e-9)


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


def test_compressed_trace_powers_match_numpy(z_group):
    rng = random.Random(SEED + 1)
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    alpha = RingElement.scalar(z2, complex(0.5, -1.5))
    box = [(k,) for k in range(-6, 7)]
    box2 = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    ball = [(i, j) for i in range(-3, 4) for j in range(-3, 4) if abs(i) + abs(j) <= 3]
    cases = [
        (positive_square(RingMatrix.from_element(random_element(z_group, rng))), box)
        for _ in range(5)
    ]
    cases += [
        (positive_square(RingMatrix.from_element(random_element(z2, rng))), box2),
        (random_self_adjoint(z_group, rng, d=2), [(k,) for k in range(-4, 5)]),
        (positive_square(RingMatrix.from_element(1 - alpha * a + b)), ball),
        # not self-adjoint: traces with nonzero imaginary parts
        (RingMatrix(z2, [[alpha * a + 2, b], [a.star(), alpha * b.star()]]), ball[:12]),
    ]
    for delta, window in cases:
        h, nw = compress(delta, window)
        exact = compressed_trace_powers(delta, window, (1, 2, 3))
        assert exact == _dense_exact_trace_powers(delta, window, (1, 2, 3))
        for m, value in exact.items():
            numeric = complex(np.trace(np.linalg.matrix_power(h, m)))
            assert abs(complex(value) - numeric) <= 1e-8 * max(1.0, abs(numeric))
            if delta.is_self_adjoint():
                assert value.im == 0


def test_sandwich_certificates():
    for lam in (0.0, 1.0, 2.0):
        for n in (2, 4, 8):
            p = build_sandwich(lam, n, 4.0)
            assert p.certified and p.degree <= 400
            assert p.grid_used >= 10 ** 4
            xs = np.linspace(0, 4.0, 4001)
            vals = p.evaluate(xs)
            assert np.all(vals[xs <= lam] >= 1.0 - 1e-12)
            assert np.all(vals >= -1e-12)
            assert np.all(vals <= 1.0 + 1.0 / n + 1e-12)
            assert np.all(vals[xs >= lam + 1.0 / n] <= 1.0 / n + 1e-12)


def test_sandwich_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_sandwich(4.0, 2, 4.0)  # lam >= K
    with pytest.raises(ValueError):
        build_sandwich(5.0, 2, 4.0)
    with pytest.raises(ValueError):
        build_sandwich(1.0, 0, 4.0)
    with pytest.raises(CertificationFailed):
        build_sandwich(1.0, 8, 4.0, degree_cap=10)


def test_sandwich_trace_inequality(zd_reports):
    for lam in (0.0, 1.0, 2.0):
        for n in (2, 4, 8):
            p = build_sandwich(lam, n, 4.0)
            checks = sandwich_level_check(p, zd_reports, tol=1e-8)
            assert all(c["ok"] for c in checks)


def test_squeeze_check(zd_reports, z_laplacian):
    oracle = torus_density(z_laplacian, 4096)
    verdict = squeeze_check(zd_reports, oracle, [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4])
    assert verdict["ok"]
    with pytest.raises(InsufficientLevels):
        squeeze_check(zd_reports[:2], oracle, [0.0])


def test_sintapr_check(zd_reports, z_laplacian):
    oracle = torus_logdet(z_laplacian, 4096)
    # extend with deeper levels so the tail estimate clears the oracle bound
    deep = run_tower(z_laplacian, QuotientTower.zn(1, [512, 1024]))
    verdict = sintapr_check(zd_reports + deep, d=1, K=4.0, oracle_logdet=oracle)
    assert verdict["ok"]
    for row in verdict["rows"]:
        assert row["integral"] <= row["bound"] + 0.02
        assert row["identity_gap"] <= 1e-8
    assert verdict["limsup_estimate"] <= oracle + 0.02


def test_sintapr_hypothesis_violation(z_group):
    half = RingMatrix.from_element(RingElement.scalar(z_group, Fraction(1, 2)))
    reports = run_tower(half, QuotientTower.zn(1, [4, 8, 16]))
    with pytest.raises(HypothesisViolated):
        sintapr_check(reports, d=1, K=1.0)


def test_whitehead_elementary(z_group):
    t = RingElement.delta(z_group, (1,))
    one = RingElement.one(z_group)
    zero = RingElement.zero(z_group)
    e = RingMatrix(z_group, [[one, 1 - t], [zero, one]])
    e_inv = RingMatrix(z_group, [[one, t - 1], [zero, one]])
    verdict = whitehead_check(e, e_inv, QuotientTower.zn(1, TOWER_LEVELS))
    assert verdict["ok"] and verdict["integral"]
    assert all(abs(v) <= 0.02 for v in verdict["logdets"])
    assert abs(verdict["oracle"]["value"]) <= 0.01


def test_whitehead_shift(z_group):
    t = RingElement.delta(z_group, (1,))
    verdict = whitehead_check(
        RingMatrix.from_element(t),
        RingMatrix.from_element(t.star()),
        QuotientTower.zn(1, [4, 16, 64]),
    )
    assert verdict["ok"]
    assert all(v == 0.0 for v in verdict["logdets"])


def test_whitehead_not_inverse(z_group):
    t = RingElement.delta(z_group, (1,))
    m = RingMatrix.from_element(t)
    with pytest.raises(NotInverse):
        whitehead_check(m, m, QuotientTower.zn(1, [4]))


def test_whitehead_non_integral_flagged(z_group):
    two = RingMatrix.from_element(RingElement.scalar(z_group, 2))
    half = RingMatrix.from_element(RingElement.scalar(z_group, Fraction(1, 2)))
    verdict = whitehead_check(two, half, QuotientTower.zn(1, [4, 8]))
    assert not verdict["integral"]
    assert not verdict["ok"]  # logdet(4) = 2 ln 2 at every level
    assert all(abs(v - 2 * math.log(2)) <= 1e-9 for v in verdict["logdets"])


def test_complex_tower_runs(z_group):
    t = RingElement.delta(z_group, (1,))
    alpha = RingElement.scalar(z_group, complex(0.5, 0.5))
    kernel_free = positive_square(RingMatrix.from_element(1 - alpha * t))
    reports, verdict = complex_tower_run(
        kernel_free, QuotientTower.zn(1, [8, 16, 32, 64]), oracle_grid=512
    )
    assert verdict["ok"] and verdict["oracle_f0"] == 0.0
    assert all(rep.f0 == 0.0 for rep in reports)

    unit_root = positive_square(RingMatrix.from_element(1 - t))
    reports, verdict = complex_tower_run(
        unit_root, QuotientTower.zn(1, [8, 16, 32, 64]), oracle_grid=512
    )
    assert verdict["ok"]
    assert [rep.f0 for rep in reports] == [1 / 8, 1 / 16, 1 / 32, 1 / 64]

    zero = RingMatrix.zero(z_group, 2, 2)
    reports, verdict = complex_tower_run(zero, QuotientTower.zn(1, [4, 8, 16]), oracle_grid=64)
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
    from l2approx import FreeGroup, Homomorphism

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
    import warnings as warnings_mod

    with warnings_mod.catch_warnings():
        warnings_mod.simplefilter("ignore")  # high powers cannot certify here
        reports = run_tower(delta, tower)
    rep = reports[0]
    assert rep.matrix_size == 6
    assert rep.norm_bound_ok
    # tr delta = 2 survives: the support {e, a^-1 b, b^-1 a} avoids the kernel
    assert rep.trace_certified[1]
    assert rep.exact_traces[1].re == 2
    assert rep.density.total_mass == 1.0


def test_tower_moduli_must_be_finite(z_group):
    from l2approx.groups import Homomorphism

    ident = Homomorphism(z_group, z_group, generator_images=[(1,)])
    with pytest.raises(SchemeError):
        QuotientTower(z_group, [ident])

"""Acceptance suite: one test per criterion, at the stated tolerances.

Shared pipeline runs are module-scoped fixtures so the timed criteria
measure only their own work.  One clause is a strict xfail: the third
moment of the compressed operator on [-m, m] is exactly 20 - 12/(2m+1)
(two independent derivations below), so its gap at m = 512 is
12/1025 = 0.01170..., which no implementation can bring under 1e-2; the
bound first holds at m >= 600.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from l2approx import (
    CyclicGroup,
    Homomorphism,
    QuotientTower,
    RingElement,
    RingMatrix,
    betti,
    build_boxes_folner,
    density_from_eigs,
    finite_spectrum,
    k_bound,
    nonzero_eigenvalue_product_exact,
    positive_square,
    run_folner,
    run_tower,
    torus_logdet,
)
from l2approx import verdicts
from l2approx.cw import l2_invariants
from l2approx.oracles import torus_eigen_result
from l2approx.verdicts import Context

from conftest import fixture_complex, trace_power_exact

TOWER_LEVELS = [8, 16, 32, 64, 128, 256, 512, 1024]
BOX_SIZES = [4, 8, 16, 32, 64, 128, 256, 512]


@pytest.fixture(scope="module")
def tower_run(z_laplacian):
    start = time.perf_counter()
    reports = run_tower(z_laplacian, QuotientTower.zn(1, TOWER_LEVELS))
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def folner_run(z_laplacian):
    start = time.perf_counter()
    reports = run_folner(z_laplacian, build_boxes_folner(1, BOX_SIZES))
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_residual_betti_approximation(tower_run, z_laplacian):
    reports, elapsed = tower_run
    for rep in reports:
        assert abs(rep.f0 - 1.0 / rep.level) <= 1e-9
    oracle_f0 = betti(density_from_eigs(torus_eigen_result(z_laplacian, 4096)))
    assert oracle_f0 == 0.0
    assert abs(reports[-1].f0 - oracle_f0) <= 0.001
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 PASS: F_N(0) = 1/N exactly up to N=1024 in {elapsed:.2f}s")


def test_criterion_2_determinant_semicontinuity(tower_run, z_laplacian):
    reports, _ = tower_run
    for rep in reports:
        closed_form = 2.0 * math.log(rep.level) / rep.level
        assert abs(rep.logdet - closed_form) <= 1e-6
        assert rep.logdet >= 0.0
    oracle = torus_logdet(z_laplacian, 4096)
    limsup_estimate = reports[-1].logdet
    assert limsup_estimate <= oracle + 0.02
    print(
        "ACCEPTANCE 2 PASS: lnDet_N = 2 ln N / N to 1e-6, all >= 0, "
        f"tail {limsup_estimate:.5f} <= oracle {oracle:.5f} + 0.02"
    )


def test_criterion_3_folner_traces_exact_parts(folner_run, z_laplacian):
    reports, _ = folner_run
    assert trace_power_exact(z_laplacian, 3) == 20.0
    for rep in reports:
        s = 2 * rep.level + 1
        assert rep.exact_traces[1].re == 2
        gap2 = abs(rep.exact_traces[2].re - 6)
        assert gap2 == Fraction(2, s)
        assert abs(float(gap2) - 2.0 / s) <= 1e-9
    print("ACCEPTANCE 3(a,b) PASS: tr_m = 2 exactly; |tr_m^2 - 6| = 2/(2m+1) exactly")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: tr of the cubed compression on [-m, m] is "
        "exactly 20 - 12/(2m+1) (each boundary site loses three of its six "
        "weight-2 closed 3-step walks), so the gap at m = 512 is "
        "12/1025 = 0.011707..., not < 1e-2; the bound first holds at m >= 600"
    ),
)
def test_criterion_3_folner_third_moment_at_512(folner_run):
    reports, _ = folner_run
    final = next(rep for rep in reports if rep.level == 512)
    gap3 = abs(float(final.exact_traces[3].re) - 20.0)
    assert gap3 < 1e-2
    print("ACCEPTANCE 3(c) PASS: |tr_m^3 - 20| < 1e-2 at m=512")


def test_criterion_3_folner_third_moment_converges(folner_run):
    reports, _ = folner_run
    gaps = [abs(float(rep.exact_traces[3].re) - 20.0) for rep in reports]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for rep in reports:
        assert rep.exact_traces[3].re == 20 - Fraction(12, 2 * rep.level + 1)
    print(
        "ACCEPTANCE 3(c') INFO: third-moment gap decreases and equals "
        "12/(2m+1) exactly (0.0117 at m=512)"
    )


def test_criterion_4_norm_bounds(tower_run, folner_run, z_laplacian):
    kb = k_bound(z_laplacian)
    assert kb == 4.0
    violations = [
        rep.level
        for rep in list(tower_run[0]) + list(folner_run[0])
        if rep.max_eigenvalue > kb + 1e-9
    ]
    assert violations == []
    print("ACCEPTANCE 4 PASS: every level spectrum <= K(Delta) = 4 + 1e-9")


def test_criterion_5_subgroup_invariance():
    z2 = CyclicGroup(2)
    s = RingElement.delta(z2, 1)
    delta = RingMatrix.from_element(2 - s - s.star())
    embedding = Homomorphism(z2, CyclicGroup(4), generator_images=[2])
    verdict = verdicts.subgroup(Context(delta, embedding=embedding))
    deviation = verdict["max_deviation"]
    assert verdict["ok"] and deviation <= 1e-9
    f = density_from_eigs(finite_spectrum(delta))
    assert f.jumps == ((0.0, 1), (4.0, 1))
    print(f"ACCEPTANCE 5 PASS: Z/2 -> Z/4 densities identical (dev {deviation:.1e})")


def test_criterion_6_trivial_group_integrality():
    rng = random.Random(20260808)
    npr = np.random.default_rng(20260808)
    smallest = None
    for _ in range(100):
        d = rng.randint(1, 8)
        k = rng.randint(1, 8)
        a = npr.integers(-4, 5, size=(k, d))
        product = nonzero_eigenvalue_product_exact((a.T @ a).tolist())
        assert product >= 1  # hence ln >= 0 exactly
        smallest = product if smallest is None else min(smallest, product)
    print(f"ACCEPTANCE 6 PASS: 100 exact Gram determinants >= 1 (min {smallest})")


def test_criterion_8_whitehead_triviality(z_group):
    t = RingElement.delta(z_group, (1,))
    one = RingElement.one(z_group)
    zero = RingElement.zero(z_group)
    e = RingMatrix(z_group, [[one, 1 - t], [zero, one]])
    e_inv = RingMatrix(z_group, [[one, t - 1], [zero, one]])
    delta = positive_square(e)
    reports = run_tower(delta, QuotientTower.zn(1, TOWER_LEVELS))
    verdict = verdicts.whitehead(Context(e, delta, reports, inverse=e_inv, grid=2048, tol=0.02))
    assert verdict["ok"] and verdict["integral"]
    assert all(-0.02 <= v <= 0.02 for v in verdict["logdets"])
    assert -0.01 <= verdict["oracle"]["value"] <= 0.01
    print(
        "ACCEPTANCE 8 PASS: elementary matrix logdets within 0.02, "
        f"oracle {verdict['oracle']['value']:.2e}"
    )


def test_criterion_9_complex_approximation(z_group):
    t = RingElement.delta(z_group, (1,))
    alpha = RingElement.scalar(z_group, complex(0.5, 0.5))
    kernel_free = positive_square(RingMatrix.from_element(1 - alpha * t))
    reports = run_tower(kernel_free, QuotientTower.zn(1, TOWER_LEVELS))
    verdict = verdicts.complex(Context(kernel_free, kernel_free, reports, grid=2048))
    assert all(rep.f0 == 0.0 for rep in reports)
    assert verdict["oracle_f0"] == 0.0 and verdict["ok"]

    unit_root = positive_square(RingMatrix.from_element(1 - t))
    reports = run_tower(unit_root, QuotientTower.zn(1, TOWER_LEVELS))
    verdict = verdicts.complex(Context(unit_root, unit_root, reports, grid=2048))
    assert [rep.f0 for rep in reports] == [1.0 / n for n in TOWER_LEVELS]
    assert verdict["ok"]
    print("ACCEPTANCE 9 PASS: complex-coefficient F_N(0) sequences as predicted")


def test_criterion_10_cw_invariants():
    start = time.perf_counter()
    circle_oracle = l2_invariants(fixture_complex("circle"), oracle_grid=2048)
    assert abs(circle_oracle.torsion) <= 0.02
    circle_tower = l2_invariants(
        fixture_complex("circle"), tower=QuotientTower.zn(1, [64, 256, 1024])
    )
    assert abs(circle_tower.torsion) <= 0.02

    torus_oracle = l2_invariants(fixture_complex("torus"), oracle_grid=128)
    assert all(b <= 0.02 for b in torus_oracle.betti)
    torus_tower = l2_invariants(fixture_complex("torus"), tower=QuotientTower.zn(2, [8, 16, 32, 64]))
    assert all(b <= 0.02 for b in torus_tower.betti)

    for rep in (circle_oracle, circle_tower, torus_oracle, torus_tower):
        assert abs(rep.euler_l2 - rep.euler_cells) <= 0.02
    point = l2_invariants(fixture_complex("point"))
    assert point.betti == [1.0]
    assert abs(point.euler_l2 - point.euler_cells) <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 10 PASS: circle/torus/point invariants in {elapsed:.2f}s")

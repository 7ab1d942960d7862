"""Hard operators with closed-form answers (ROADMAP item 22).

The bundled fixtures are all easy for the float kernel cut ``1e-9 * K``:
their smallest nonzero level eigenvalues are far above it.  These small
integer operators are not.  Each case is built in-process and checked
against its exact answer; a case the float rule gets wrong today is a
strict xfail naming the roadmap item that mends it, so the PR that mends
it must drop the marker.

- bi-Laplacian (2 - t - 1/t)^2 over Z: A*A for an injective A, so
  b^(2) = 0.  Level Z/N has a one-dimensional kernel and det' = N^4, so
  F·N = 1 and logdet = 4 log N / N.  The Dirichlet compression to a box is
  positive definite, so F = 0 there.
- 2 - t^3 - t^-3 at N = 2^17: 3 is a unit mod N, so F·N = 1 and
  logdet = 2 log N / N, as for 2 - t - 1/t.
- torus bi-Laplacian (4 - a - 1/a - b - 1/b)^2 over Z^2: level (Z/N)^2 has
  a one-dimensional kernel, F·N^2 = 1.
- |1 + a + b|^2 over Z^2: 1 + x + y vanishes on the N-torsion points
  exactly at the two points of primitive cube roots (x, y) = (w, w^2),
  (w^2, w), which exist iff 3 | N, so F·N^2 = 2 at N = 96 and 0 at 97.
- the circle complex is L^2-acyclic with torsion 0 whatever the levels.
"""

import math

import pytest

from l2approx import FreeAbelianGroup, QuotientTower, RingElement, RingMatrix, density_from_eigs
from l2approx.cw import l2_invariants
from l2approx.oracles import torus_eigen_result
from l2approx.groups import build_boxes_folner
from l2approx.schemes import run_folner, run_tower

from conftest import fixture_complex

Z = FreeAbelianGroup(1)
Z2 = FreeAbelianGroup(2)
T = RingElement.delta(Z, (1,))
T3 = RingElement.delta(Z, (3,))
A = RingElement.delta(Z2, (1, 0))
B = RingElement.delta(Z2, (0, 1))
LAPLACIAN = 2 - T - T.star()
TORUS_LAPLACIAN = 4 - A - A.star() - B - B.star()

BI_LAPLACIAN = RingMatrix.from_element(LAPLACIAN * LAPLACIAN)
STRIDE_3 = RingMatrix.from_element(2 - T3 - T3.star())
TORUS_BI_LAPLACIAN = RingMatrix.from_element(TORUS_LAPLACIAN * TORUS_LAPLACIAN)
ONE_A_B = RingMatrix.from_element((1 + A + B).star() * (1 + A + B))

# relative tolerance of a float logdet against its closed form
LOGDET_RTOL = 1e-8


def _kernel_xfail(item: str, found: str):
    return pytest.mark.xfail(strict=True, reason=f"{item}: the float kernel cut {found}")


def _level(delta, rank, n):
    """F·|G| and the logdet of level (Z/n)^rank."""
    (rep,) = run_tower(delta, QuotientTower.zn(rank, [n]))
    return rep.f0 * n**rank, rep.logdet


@pytest.mark.parametrize(
    "n",
    [
        512,
        pytest.param(1024, marks=_kernel_xfail("item 1", "gives F·N = 3")),
        pytest.param(4096, marks=_kernel_xfail("item 1", "gives F·N = 15")),
        pytest.param(
            65536,
            marks=_kernel_xfail("items 1 and 21", "gives F·N = 235; the exact count leaves a -inf tail"),
        ),
    ],
)
def test_bi_laplacian_tower(n):
    kernel, logdet = _level(BI_LAPLACIAN, 1, n)
    assert kernel == pytest.approx(1, abs=1e-9)
    assert math.isclose(logdet, 4 * math.log(n) / n, rel_tol=LOGDET_RTOL)


@_kernel_xfail("item 3", "gives F·|X| = 6 on a positive definite compression")
def test_bi_laplacian_box_is_injective():
    (rep,) = run_folner(BI_LAPLACIAN, build_boxes_folner(1, [1024]))
    assert rep.f0 == 0


@_kernel_xfail("item 15", "gives F(0) = 14/4096 where b^(2) = 0")
def test_bi_laplacian_oracle_betti_is_zero():
    assert density_from_eigs(torus_eigen_result(BI_LAPLACIAN, 4096)).evaluate(0.0) == 0


@_kernel_xfail("items 1 and 21", "gives F·N = 3")
def test_stride_3_tower_at_2_17():
    n = 2**17
    kernel, logdet = _level(STRIDE_3, 1, n)
    assert kernel == pytest.approx(1, abs=1e-9)
    assert math.isclose(logdet, 2 * math.log(n) / n, rel_tol=LOGDET_RTOL)


@pytest.mark.parametrize(
    "n", [256, pytest.param(512, marks=_kernel_xfail("item 19", "gives F·N² = 5"))]
)
def test_torus_bi_laplacian_tower(n):
    assert _level(TORUS_BI_LAPLACIAN, 2, n)[0] == pytest.approx(1, abs=1e-9)


@pytest.mark.parametrize("n, kernel", [(96, 2), (97, 0)])
def test_one_plus_a_plus_b_tower(n, kernel):
    assert _level(ONE_A_B, 2, n)[0] == pytest.approx(kernel, abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="item 15: cw's tower route reads acyclicity off a float Betti estimate, 1/64 at N = 64",
)
def test_cw_circle_tower_is_acyclic():
    rep = l2_invariants(fixture_complex("circle"), tower=QuotientTower.zn(1, [8, 16, 32, 64]))
    assert rep.acyclic
    assert rep.torsion is not None

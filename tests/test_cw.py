import json
import random
import tracemalloc
from importlib import resources

import pytest

from l2approx import (
    ChainComplexSpec,
    CyclicGroup,
    FreeAbelianGroup,
    QuotientTower,
    RingElement,
    RingMatrix,
    betti,
    density_from_eigs,
    finite_spectrum,
    l2_invariants,
    product_group,
    validate,
)
from l2approx import cli, cw, oracles
from l2approx.cw import _oracle_degrees, _tower_degree, laplacians
from l2approx.oracles import SLAB_EIGENVALUES, torus_eigen_result
from l2approx.spectral import log_det
from l2approx.errors import NotAComplex

from conftest import SEED, at_threshold, fixture_complex, random_element, record_torus_slabs


def test_validate_fixtures():
    for name in ("circle", "torus", "point"):
        validate(fixture_complex(name))


def test_validate_rejects_noncomplex():
    z = FreeAbelianGroup(1)
    t = RingElement.delta(z, (1,))
    d1 = RingMatrix(z, [[1 - t]])
    d2 = RingMatrix(z, [[1 + t]])  # (1-t)(1+t) = 1 - t^2 != 0
    spec = ChainComplexSpec(z, (1, 1, 1), (d1, d2))
    with pytest.raises(NotAComplex) as err:
        validate(spec)
    assert err.value.degree == 2

    rng = random.Random(SEED)
    found_invalid = False
    for _ in range(5):
        b1 = RingMatrix(z, [[random_element(z, rng)]])
        b2 = RingMatrix(z, [[random_element(z, rng)]])
        try:
            validate(ChainComplexSpec(z, (1, 1, 1), (b1, b2)))
        except NotAComplex:
            found_invalid = True
    assert found_invalid


def test_validate_rejects_bad_shapes():
    z = FreeAbelianGroup(1)
    t = RingElement.delta(z, (1,))
    d1 = RingMatrix(z, [[1 - t]])
    with pytest.raises(NotAComplex):
        validate(ChainComplexSpec(z, (1, 2), (d1,)))


def test_laplacians_are_self_adjoint():
    for name in ("circle", "torus", "point"):
        for delta in laplacians(fixture_complex(name)):
            assert delta.is_self_adjoint()


def test_torus_middle_laplacian_is_diagonal():
    spec = fixture_complex("torus")
    deltas = laplacians(spec)
    z2 = spec.group
    zero = RingElement.zero(z2)
    assert deltas[1][0, 1] == zero
    assert deltas[1][1, 0] == zero
    assert deltas[0][0, 0] == deltas[2][0, 0]


def test_circle_invariants_oracle():
    rep = l2_invariants(fixture_complex("circle"), oracle_grid=2048)
    assert all(b == 0.0 for b in rep.betti)
    assert rep.acyclic
    assert abs(rep.torsion) <= 0.02
    assert rep.euler_cells == 0
    assert abs(rep.euler_l2) <= 0.02


def test_circle_invariants_tower_agrees_with_oracle():
    oracle = l2_invariants(fixture_complex("circle"), oracle_grid=2048)
    tower = l2_invariants(
        fixture_complex("circle"), tower=QuotientTower.zn(1, [8, 32, 128, 512, 1024])
    )
    for b_o, b_t in zip(oracle.betti, tower.betti):
        assert abs(b_o - b_t) <= 0.02
    assert abs(tower.torsion) <= 0.02


def test_torus_invariants_both_routes():
    oracle = l2_invariants(fixture_complex("torus"), oracle_grid=128)
    assert all(b <= 0.02 for b in oracle.betti)
    assert abs(oracle.torsion) <= 0.02
    tower = l2_invariants(fixture_complex("torus"), tower=QuotientTower.zn(2, [8, 16, 32, 64]))
    assert all(b <= 0.02 for b in tower.betti)
    for b_o, b_t in zip(oracle.betti, tower.betti):
        assert abs(b_o - b_t) <= 0.02
    assert abs(oracle.euler_l2 - oracle.euler_cells) <= 0.02
    assert abs(tower.euler_l2 - tower.euler_cells) <= 0.02


def test_point_has_no_torsion():
    rep = l2_invariants(fixture_complex("point"))
    assert rep.betti == [1.0]
    assert rep.torsion is None
    assert not rep.acyclic
    assert rep.euler_l2 == 1.0 and rep.euler_cells == 1


def test_euler_characteristic_identity():
    for name in ("circle", "torus", "point"):
        rep = l2_invariants(fixture_complex(name), oracle_grid=256)
        assert abs(rep.euler_l2 - rep.euler_cells) <= 0.02


def test_det_class_flags_are_reported():
    rep = l2_invariants(fixture_complex("circle"), oracle_grid=512)
    assert rep.det_class == [True, True]


def _finite_torus() -> ChainComplexSpec:
    """The torus complex over Z/3 x Z/4: its Laplacians have a kernel."""
    group = product_group([CyclicGroup(3), CyclicGroup(4)])
    a = RingElement.delta(group, (1, 0))
    b = RingElement.delta(group, (0, 1))
    one = RingElement.one(group)
    d1 = RingMatrix(group, [[a - one, b - one]])
    d2 = RingMatrix(group, [[one - b], [a - one]])
    spec = ChainComplexSpec(group, (1, 2, 1), (d1, d2))
    validate(spec)
    return spec


def test_oracle_f0_counts_eigenvalues_up_to_the_threshold():
    """cw reads F(0) off the sorted spectrum; it equals the F(0) of the
    clustered density in every degree."""
    cases = [(fixture_complex(name), grid) for name in ("torus", "circle", "point") for grid in (1, 7, 64)]
    cases.append((_finite_torus(), None))
    kernels = []
    for spec, grid in cases:
        torus = isinstance(spec.group, FreeAbelianGroup) and spec.group.rank > 0
        denom = grid ** spec.group.rank if torus else spec.group.order
        for delta in laplacians(spec):
            (f0, _, _), = _oracle_degrees([delta], grid, denom)
            eig = torus_eigen_result(delta, grid) if torus else finite_spectrum(delta)
            assert type(f0) is float
            assert f0 == betti(density_from_eigs(eig))
            kernels.append(f0)
    # the finite torus has F(0) = b_p / 12 = 1/12, 2/12, 1/12
    assert kernels[-3:] == [1 / 12, 2 / 12, 1 / 12]


def test_cw_assembles_each_distinct_laplacian_once(monkeypatch, tmp_path):
    """The torus's Laplacians hold one ring element 4 - a - 1/a - b - 1/b
    four times (degree 0, both diagonal entries of degree 1, degree 2): cw
    solves each distinct direct summand once, one pass over the rows of
    the default grid 1024 in slabs, so it assembles the 5-term symbol once
    per slab, 5 phases each."""
    calls = []
    phase = oracles._phase
    monkeypatch.setattr(
        oracles, "_phase", lambda g, angle, real: calls.append(g) or phase(g, angle, real)
    )
    slabs = record_torus_slabs(monkeypatch)
    torus = str(resources.files("l2approx") / "fixtures" / "torus.json")
    assert cli.main(["cw", torus, "--output", str(tmp_path / "torus.out")]) == 0
    assert len(slabs) > 1
    assert [row for _, lo, hi in slabs for row in range(lo, hi)] == list(range(1024))
    assert len(calls) == 5 * len(slabs)


def _two_circles() -> ChainComplexSpec:
    """Two circles side by side over Z: Delta_0 = Delta_1 = diag(D, D) with
    D = 2 - t - 1/t."""
    z = FreeAbelianGroup(1)
    t = RingElement.delta(z, (1,))
    zero = RingElement.zero(z)
    spec = ChainComplexSpec(z, (2, 2), (RingMatrix(z, [[1 - t, zero], [zero, 1 - t]]),))
    validate(spec)
    return spec


def test_each_laplacian_keeps_its_own_kernel_threshold():
    """At grid 32768 the two smallest symbol values of D = 2 - t - 1/t,
    about (pi/32768)^2 = 9.2e-9, lie above D's own threshold 4e-9 and below
    the 1.6e-8 of diag(D, D), whose k_bound carries d^2 = 4.  The whole
    operator's rule counts them in diag(D, D): F(0) = 4/32768, where each
    summand's own threshold would give 0.  One solve of D serves both
    thresholds when D is also a Laplacian of its own."""
    m = 32768
    spec = _two_circles()
    rep = l2_invariants(spec, oracle_grid=m)
    assert rep.betti == [4 / m, 4 / m]
    diag = laplacians(spec)[0]
    whole = torus_eigen_result(diag, m)
    assert whole.kernel_end() == 4
    one = RingMatrix.from_element(diag.entries[0][0])
    (f0_one, ld_one, _), (f0_diag, ld_diag, _) = _oracle_degrees([one, diag], m, m)
    assert (f0_one, f0_diag) == (0.0, 4 / m)
    assert ld_diag == 2 * ld_one == pytest.approx(log_det(at_threshold(whole, 0.0)), rel=1e-12)


def test_cw_torus_memory_stays_near_one_summand():
    """cw's oracle route on the torus at m = 1024 solves the one distinct
    summand 4 - a - 1/a - b - 1/b once, a slab of SLAB_EIGENVALUES at a
    time, and logs each slab's tail in place: the whole run peaks within
    two slabs' bytes (measured: 1.20 slabs), where one whole-grid solve
    holds 8 m^2 bytes, 16 slabs."""
    spec = fixture_complex("torus")
    m = 1024
    l2_invariants(spec, oracle_grid=m)  # warm: caches and lazy imports
    tracemalloc.start()
    try:
        l2_invariants(spec, oracle_grid=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * SLAB_EIGENVALUES < 8 * m * m


def test_cw_runs_one_tower_per_distinct_laplacian(monkeypatch, tmp_path):
    """The circle's two Laplacians are both 2 - t - 1/t: one tower run."""
    runs = []
    run_tower = cw.run_tower
    monkeypatch.setattr(cw, "run_tower", lambda delta, tower: runs.append(delta) or run_tower(delta, tower))
    circle = str(resources.files("l2approx") / "fixtures" / "circle.json")
    out = tmp_path / "circle.out"
    assert cli.main(["cw", circle, "--levels", "8,64,512", "--output", str(out)]) == 0
    assert len(runs) == 1
    assert json.loads(out.read_text())["det_class"] == [True, True]


def test_tower_route_equals_per_degree_solves():
    """Solving each distinct Laplacian once changes no degree's result.

    Equal ring elements may store their terms in different orders, and the
    symbol sums its phases in term order, so a degree that reuses an equal
    Laplacian's solve can differ from its own solve in the last bits of the
    log determinant (the circle's degree 1 does)."""
    cases = [("circle", QuotientTower.zn(1, [8, 64, 512])), ("torus", QuotientTower.zn(2, [4, 8, 16]))]
    for name, tower in cases:
        spec = fixture_complex(name)
        rep = l2_invariants(spec, tower=tower)
        want = [_tower_degree(delta, tower, 0.02) for delta in laplacians(spec)]
        assert rep.betti == [f0 for f0, _, _ in want]
        assert rep.det_class == [ok for _, _, ok in want]
        assert rep.logdet == pytest.approx([ld for _, ld, _ in want], rel=1e-13, abs=0)

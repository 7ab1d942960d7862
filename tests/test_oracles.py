import math
import random
from fractions import Fraction

import numpy as np
import pytest

from l2approx import (
    FreeAbelianGroup,
    RingElement,
    RingMatrix,
    betti,
    char_poly_exact,
    cyclic_quotient,
    mahler_1x1,
    nonzero_eigenvalue_product_exact,
    positive_square,
    torus_density,
    torus_logdet,
    trivial_group_logdet_exact,
)
from l2approx.errors import NotPSD, WrongGroup
from l2approx.oracles import torus_logdet_report, torus_symbol_eigenvalues

from conftest import SEED
from dense_reference import hermitian_eigenvalues, regular_representation


def test_char_poly_exact_matches_numpy():
    rng = np.random.default_rng(SEED)
    for d in (1, 2, 4, 6):
        a = rng.integers(-4, 5, size=(d, d))
        exact = [float(c) for c in char_poly_exact(a.tolist())]
        assert np.allclose(exact, np.poly(a), atol=1e-6)


def test_trivial_group_logdet_examples():
    assert math.isclose(trivial_group_logdet_exact([[2]]), math.log(2))
    # char poly of [[1,1],[1,1]] is x^2 - 2x: eigenvalues {0, 2}
    assert char_poly_exact([[1, 1], [1, 1]]) == [Fraction(1), Fraction(-2), Fraction(0)]
    assert math.isclose(trivial_group_logdet_exact([[1, 1], [1, 1]]), math.log(2))
    for d in (1, 3, 6):
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        assert trivial_group_logdet_exact(ident) == 0.0


def test_trivial_group_logdet_rejects_bad_input():
    with pytest.raises(NotPSD):
        trivial_group_logdet_exact([[0, 1], [1, 0]])  # eigenvalues +-1
    with pytest.raises(NotPSD):
        trivial_group_logdet_exact([[1, 2], [0, 1]])  # not symmetric
    with pytest.raises(ValueError):
        trivial_group_logdet_exact([["1/2"]])


def test_integrality_on_random_gram_matrices():
    rng = random.Random(SEED)
    npr = np.random.default_rng(SEED)
    for _ in range(50):
        d = rng.randint(1, 8)
        k = rng.randint(1, 8)
        a = npr.integers(-3, 4, size=(k, d))
        product = nonzero_eigenvalue_product_exact((a.T @ a).tolist())
        assert product >= 1


def test_torus_density_examples(z_laplacian, z_group):
    for grid in (64, 256, 1024):
        f = torus_density(z_laplacian, grid)
        assert betti(f) == 0.0  # midpoint grid never hits the symbol kernel
        assert f.total_mass == 1.0
    zero = RingMatrix.zero(z_group, 1, 1)
    assert betti(torus_density(zero, 128)) == 1.0
    ident = RingMatrix.identity(z_group, 3)
    f = torus_density(ident, 64)
    assert f.jumps == ((1.0, 3 * 64),)
    assert f.total_mass == 3.0


def test_torus_logdet_examples(z_laplacian, z_group):
    # Mahler measure of (1-t)(1-t^-1) is 0
    assert abs(torus_logdet(z_laplacian, 4096)) <= 0.01
    t = RingElement.delta(z_group, (1,))
    m3 = RingMatrix.from_element(3 - t - t.star())
    assert abs(torus_logdet(m3, 4096) - math.log((3 + math.sqrt(5)) / 2)) <= 1e-3
    for c in (1, 2, 5):
        const = RingMatrix.from_element(RingElement.scalar(z_group, c))
        assert math.isclose(torus_logdet(const, 32), math.log(c), abs_tol=1e-12)


def test_torus_logdet_report_has_error_estimate(z_laplacian):
    rep = torus_logdet_report(z_laplacian, 1024)
    assert rep["grid"] == 1024
    assert rep["method"] == "torus_quadrature"
    assert rep["error_estimate"] >= 0.0
    assert abs(rep["value"]) <= 0.01


def test_torus_two_variables():
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    delta = RingMatrix.from_element(4 - a - a.star() - b - b.star())
    f = torus_density(delta, 64)
    assert f.total_mass == 1.0
    assert betti(f) == 0.0
    w = torus_symbol_eigenvalues(delta, 32)
    assert len(w) == 32 * 32
    assert w.min() > 0 and w.max() <= 8 + 1e-9


def test_torus_symbol_matches_dense_regular_representation():
    # the characters of Z/2m are those of Z/m (even) and the midpoint grid
    # of the torus oracle (odd), so the dense spectrum over Z/2m is the
    # union of the dense spectrum over Z/m and the torus symbol spectrum
    z = FreeAbelianGroup(1)
    t = RingElement.delta(z, (1,))
    i = RingElement.scalar(z, 1j)
    a = RingMatrix(z, [[1 - t, i * t], [2 + t.star(), 1j - t * t]])
    delta = positive_square(a)

    def dense(n):
        return hermitian_eigenvalues(regular_representation(delta.push_forward(cyclic_quotient(n))))

    for m in (4, 8, 16):
        fine = dense(2 * m)
        union = np.sort(np.concatenate([dense(m), torus_symbol_eigenvalues(delta, m)]))
        assert np.allclose(fine, union, rtol=0, atol=1e-12)


def test_torus_logdet_2d_lattice_laplacian_closed_form():
    # the log determinant of 4 - a - a^-1 - b - b^-1 over Z^2 is 4G/pi
    # (G the Catalan constant); independent anchor for the 2d quadrature
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    delta = RingMatrix.from_element(4 - a - a.star() - b - b.star())
    catalan = 0.9159655941772190
    assert abs(torus_logdet(delta, 512) - 4 * catalan / math.pi) <= 1e-5


def test_torus_wrong_group_raises():
    from l2approx import CyclicGroup

    m = RingMatrix.identity(CyclicGroup(4), 1)
    with pytest.raises(WrongGroup):
        torus_density(m, 16)
    with pytest.raises(WrongGroup):
        torus_logdet(m, 16)


def test_torus_logdet_nonnegative_for_integer_matrices(z_group):
    rng = random.Random(SEED + 1)
    for _ in range(10):
        terms = {}
        for k in range(-3, 4):
            c = rng.randint(-2, 2)
            if c:
                terms[(k,)] = c
        if not terms:
            terms[(0,)] = 1
        delta = positive_square(RingMatrix.from_element(RingElement(z_group, terms)))
        assert torus_logdet(delta, 1024) >= -0.02


def test_mahler_examples(z_group):
    assert abs(mahler_1x1({0: 1, 1: -1})) <= 1e-12  # 1 - t: all roots on the circle
    expected = math.log((3 + math.sqrt(5)) / 2)
    assert abs(mahler_1x1({1: -1, 0: 3, -1: -1}) - expected) <= 1e-10
    assert math.isclose(mahler_1x1({0: 5}), math.log(5))
    t = RingElement.delta(z_group, (1,))
    assert abs(mahler_1x1(3 - t - t.star()) - expected) <= 1e-10
    with pytest.raises(ValueError):
        mahler_1x1({})


def test_mahler_against_torus_quadrature(z_group):
    rng = random.Random(SEED + 2)
    for _ in range(20):
        terms = {}
        for k in range(-3, 4):
            c = rng.randint(-3, 3)
            if c:
                terms[(k,)] = c
        if not terms:
            terms[(0,)] = 2
        p = RingElement(z_group, terms)
        delta = positive_square(RingMatrix.from_element(p))
        # roots on the unit circle each bias the midpoint rule by
        # 2 ln 2 / grid, so the grid must comfortably beat 1e-3
        quad = torus_logdet(delta, 16384)
        assert abs(quad - 2 * mahler_1x1(p)) <= 1e-3

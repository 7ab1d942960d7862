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
    free_abelian_quotient,
    nonzero_eigenvalue_product_exact,
    positive_square,
    torus_density,
    torus_logdet,
)
from l2approx.cw import laplacians
from l2approx.errors import NotPSD, WrongGroup
from l2approx.oracles import _char_poly, _grid_phase, torus_logdet_report, torus_symbol_eigenvalues
from l2approx.spectral import _operator_blocks

from conftest import SEED, fixture_complex
from dense_reference import hermitian_eigenvalues, regular_representation


def test_char_poly_exact_matches_numpy():
    rng = np.random.default_rng(SEED)
    for d in (1, 2, 4, 6):
        a = rng.integers(-4, 5, size=(d, d))
        exact = [float(c) for c in _char_poly(a.tolist())]
        assert np.allclose(exact, np.poly(a), atol=1e-6)


def test_trivial_group_logdet_examples():
    # the trivial-group logdet is the log of this product of nonzero eigenvalues
    assert nonzero_eigenvalue_product_exact([[2]]) == 2
    # char poly of [[1,1],[1,1]] is x^2 - 2x: eigenvalues {0, 2}
    assert _char_poly([[1, 1], [1, 1]]) == [Fraction(1), Fraction(-2), Fraction(0)]
    assert nonzero_eigenvalue_product_exact([[1, 1], [1, 1]]) == 2
    for d in (1, 3, 6):
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        assert nonzero_eigenvalue_product_exact(ident) == 1


def test_trivial_group_logdet_rejects_bad_input():
    with pytest.raises(NotPSD):
        nonzero_eigenvalue_product_exact([[0, 1], [1, 0]])  # eigenvalues +-1
    with pytest.raises(NotPSD):
        nonzero_eigenvalue_product_exact([[1, 2], [0, 1]])  # not symmetric
    with pytest.raises(ValueError):
        nonzero_eigenvalue_product_exact([["1/2"]])


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


def _meshgrid_phase(theta_1d, g):
    """Reference: exp(i theta.g) over the flattened (ij) meshgrid of theta_1d^n."""
    n = len(g)
    mesh = np.meshgrid(*([theta_1d] * n), indexing="ij")
    theta = np.stack(mesh, axis=-1).reshape(len(theta_1d) ** n, n)
    return np.exp(1j * (theta @ np.asarray(g, dtype=np.float64)))


@pytest.mark.parametrize(
    "g", [(1,), (-2,), (0,), (1, 0), (-1, 2), (0, 0), (2, -1, 0), (-1, 1, 1), (0, 0, 0)]
)
@pytest.mark.parametrize("m", [1, 5, 16])
def test_grid_phase_matches_meshgrid_formula(g, m):
    theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    phase = _grid_phase(theta_1d, g)
    assert phase.shape == (m ** len(g),)
    # the reference rounds theta.g before exp, an error that grows with |g|
    tol = 1e-15 * max(1, sum(abs(e) for e in g))
    assert np.max(np.abs(phase - _meshgrid_phase(theta_1d, g))) <= tol


def test_grid_phase_rank_0_is_one_point():
    assert np.array_equal(_grid_phase(np.arange(4.0), ()), np.ones(1))


def test_torus_symbol_rank_3_laplacian():
    z3 = FreeAbelianGroup(3)
    gens = [RingElement.delta(z3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    delta = RingMatrix.from_element(6 - sum(t + t.star() for t in gens))
    m = 6
    w = torus_symbol_eigenvalues(delta, m)
    assert len(w) == m ** 3
    assert w.min() >= 0 and w.max() <= 12
    # the symbol is 6 - 2 sum_k cos(theta_k) on the midpoint grid
    c = 2 * np.cos(2.0 * np.pi * (np.arange(m) + 0.5) / m)
    closed = 6 - (c[:, None, None] + c[None, :, None] + c[None, None, :]).ravel()
    assert np.allclose(w, np.sort(closed), rtol=0, atol=1e-12)


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
        return hermitian_eigenvalues(regular_representation(delta.push_forward(free_abelian_quotient(1, n))))

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


def _log_mahler(terms: dict) -> float:
    """log M(p) = log|leading coefficient| + sum over roots of log max(1, |r|)
    for p = sum_k terms[k] t^k, roots from the companion matrix."""
    coeffs = [terms.get(k, 0) for k in range(max(terms), min(terms) - 1, -1)]
    roots = np.roots(coeffs)
    return math.log(abs(coeffs[0])) + float(np.sum(np.log(np.maximum(1.0, np.abs(roots)))))


def test_mahler_against_torus_quadrature(z_group):
    rng = random.Random(SEED + 2)
    for _ in range(20):
        terms = {}
        for k in range(-3, 4):
            c = rng.randint(-3, 3)
            if c:
                terms[k] = c
        if not terms:
            terms[0] = 2
        p = RingElement(z_group, {(k,): c for k, c in terms.items()})
        delta = positive_square(RingMatrix.from_element(p))
        # roots on the unit circle each bias the midpoint rule by
        # 2 ln 2 / grid, so the grid must comfortably beat 1e-3
        quad = torus_logdet(delta, 16384)
        assert abs(quad - 2 * _log_mahler(terms)) <= 1e-3


def test_torus_non_diagonal_symbol_is_bitwise_eigvalsh(monkeypatch):
    """A*A over Z^2 with A = [[1 - a, 1 - b], [2 - b, 3 + a]] is not
    diagonal: its symbol is one batched eigvalsh call on the 2 x 2 stack,
    bit for bit eigvalsh on a contiguous stack summed here in term order."""
    z2 = FreeAbelianGroup(2)
    one = RingElement.one(z2)
    a, b = RingElement.delta(z2, (1, 0)), RingElement.delta(z2, (0, 1))
    big_a = RingMatrix(z2, [[one - a, one - b], [2 * one - b, 3 * one + a]])
    delta = big_a.adjoint() @ big_a
    assert not delta[0, 1].is_zero()
    solve = np.linalg.eigvalsh
    for m in (1, 6, 16):
        theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        stack = np.zeros((m * m, 2, 2), dtype=np.complex128)
        for k in range(2):
            for l in range(2):
                for g, c in delta[k, l].terms.items():
                    stack[:, k, l] += complex(c) * _grid_phase(theta_1d, g)
        want = np.sort(solve(stack).ravel())
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: calls.append(s.shape) or solve(s))
        got = torus_symbol_eigenvalues(delta, m)
        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        assert calls == [(m * m, 2, 2)]
        assert np.array_equal(got, want)


def test_torus_diagonal_symbol_is_bitwise_eigvalsh():
    """The torus Delta_1 is diag(Delta_0, Delta_0): its symbol spectrum,
    solved per diagonal entry, is eigvalsh on the unsplit 2 x 2 assembly."""
    delta = laplacians(fixture_complex("torus"))[1]
    for m in (1, 6, 16):
        theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        blocks = _operator_blocks(delta, m * m, lambda g: _grid_phase(theta_1d, g))
        assert blocks.shape == (m * m, 2, 2)
        want = np.sort(np.linalg.eigvalsh(blocks).ravel())
        assert np.array_equal(torus_symbol_eigenvalues(delta, m), want)

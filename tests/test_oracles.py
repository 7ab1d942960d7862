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
    FreeAbelianGroup,
    GaussianRational,
    RingElement,
    RingMatrix,
    betti,
    density_from_eigs,
    free_abelian_quotient,
    nonzero_eigenvalue_product_exact,
    positive_square,
    torus_logdet,
)
from l2approx.cw import _oracle_degrees, laplacians
from l2approx.errors import NotHermitian, NotPSD, WrongGroup
from l2approx.oracles import (
    SLAB_EIGENVALUES,
    _char_poly,
    check_torus_grid,
    torus_eigen_result,
    torus_kernel_logdet,
    torus_logdet_report,
)
from l2approx.spectral import _add_symbol, _phase, log_det

from charpoly_reference import faddeev_leverrier
from conftest import SEED, at_threshold, fixture_complex, record_torus_slabs
from dense_reference import hermitian_eigenvalues, outer_phase, regular_representation, symbol_stack


def test_char_poly_exact_matches_numpy():
    rng = np.random.default_rng(SEED)
    for d in (1, 2, 4, 6):
        a = rng.integers(-4, 5, size=(d, d))
        exact = [float(c) for c in _char_poly(a.tolist())]
        assert np.allclose(exact, np.poly(a), atol=1e-6)


@st.composite
def _integer_matrices(draw):
    d = draw(st.integers(0, 10))
    entries = st.integers(-50, 50) | st.sampled_from([-(2 ** 40), 2 ** 40])
    return [[draw(entries) for _ in range(d)] for _ in range(d)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=_integer_matrices())
def test_char_poly_is_faddeev_leverrier_in_integers(a):
    """Berkowitz's recurrence gives Faddeev-LeVerrier's coefficients as
    ints, c1 = -tr A, and p(A) = 0 exactly (Cayley-Hamilton, by Horner)."""
    d = len(a)
    coeffs = _char_poly(a)
    assert coeffs == faddeev_leverrier(a)
    assert all(type(c) is int for c in coeffs)
    assert coeffs[0] == 1 and sum(coeffs[1:2]) == -sum(a[i][i] for i in range(d))
    p_of_a = [[0] * d for _ in range(d)]
    for c in coeffs:
        p_of_a = [
            [sum(p_of_a[i][t] * a[t][j] for t in range(d)) + c * (i == j) for j in range(d)]
            for i in range(d)
        ]
    assert p_of_a == [[0] * d for _ in range(d)]


def _laplacian(n, edges):
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        rows[u][u] += 1
        rows[v][v] += 1
        rows[u][v] -= 1
        rows[v][u] -= 1
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32, 48])
def test_exact_product_closed_forms(n):
    """Products of nonzero eigenvalues with closed forms: the Dirichlet path
    tridiag(-1, 2, -1) on n vertices has det n + 1, the cycle Laplacian on
    n vertices has det' n^2 (n >= 3), and the Laplacian of K_n has det'
    n^(n-1) (Kirchhoff: n times its n^(n-2) spanning trees)."""
    path = _laplacian(n, [(i, i + 1) for i in range(n - 1)])
    for i in (0, n - 1):
        path[i][i] += 1  # a grounded vertex beyond each end
    assert nonzero_eigenvalue_product_exact(path) == n + 1
    if n >= 3:
        cycle = _laplacian(n, [(i, (i + 1) % n) for i in range(n)])
        assert nonzero_eigenvalue_product_exact(cycle) == n * n
    complete = _laplacian(n, list(itertools.combinations(range(n), 2)))
    assert nonzero_eigenvalue_product_exact(complete) == n ** (n - 1)
    assert nonzero_eigenvalue_product_exact([[0] * n for _ in range(n)]) == 1


def test_trivial_group_logdet_examples():
    # the trivial-group logdet is the log of this product of nonzero eigenvalues
    assert nonzero_eigenvalue_product_exact([[2]]) == 2
    # char poly of [[1,1],[1,1]] is x^2 - 2x: eigenvalues {0, 2}
    assert _char_poly([[1, 1], [1, 1]]) == [1, -2, 0]
    assert _char_poly([]) == [1]
    assert nonzero_eigenvalue_product_exact([]) == 1
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
    for ragged in ([[1, 2], []], [[1], [1, 2]], [[1, 2]]):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            nonzero_eigenvalue_product_exact(ragged)


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
        f = density_from_eigs(torus_eigen_result(z_laplacian, grid))
        assert betti(f) == 0.0  # midpoint grid never hits the symbol kernel
        assert f.total_mass == 1.0
    zero = RingMatrix.zero(z_group, 1, 1)
    assert betti(density_from_eigs(torus_eigen_result(zero, 128))) == 1.0
    ident = RingMatrix.identity(z_group, 3)
    f = density_from_eigs(torus_eigen_result(ident, 64))
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
    rep = torus_logdet_report(z_laplacian, 1024, torus_eigen_result(z_laplacian, 1024))
    assert rep["grid"] == 1024
    assert rep["method"] == "torus_quadrature"
    assert rep["error_estimate"] >= 0.0
    assert abs(rep["value"]) <= 0.01


def test_torus_two_variables():
    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    delta = RingMatrix.from_element(4 - a - a.star() - b - b.star())
    f = density_from_eigs(torus_eigen_result(delta, 64))
    assert f.total_mass == 1.0
    assert betti(f) == 0.0
    w = torus_eigen_result(delta, 32).eigenvalues
    assert len(w) == 32 * 32
    assert w.min() > 0 and w.max() <= 8 + 1e-9


def _meshgrid_phase(theta_1d, g):
    """Reference: exp(i theta.g) over the flattened (ij) meshgrid of theta_1d^n."""
    n = len(g)
    mesh = np.meshgrid(*([theta_1d] * n), indexing="ij")
    theta = np.stack(mesh, axis=-1).reshape(len(theta_1d) ** n, n)
    return np.exp(1j * (theta @ np.asarray(g, dtype=np.float64)))


def _outer_grid_phase(theta_1d, g):
    """Reference: the outer product of the 1-d phases exp(i theta_1d g_k) of
    every axis, zero exponents included, raveled in (ij) meshgrid order."""
    return outer_phase([np.exp(1j * theta_1d * e) for e in g])


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "g",
    [(1,), (-2,), (0,), (1, 0), (-1, 2), (0, 0), (2, -1, 0), (-1, 1, 1), (0, 0, 0)]
    + [(1, 1), (2, -1, 1), (0, 3, 0), (0, -1, 2)],
)
@pytest.mark.parametrize("m", [1, 5, 16, 7, 13])
def test_grid_phase_matches_meshgrid_formula(g, m):
    """The phase broadcasts over the grid (m,)*n: length m on each axis g
    moves, 1 on the others, and the scalar 1 for the identity.  Broadcast
    to the grid and raveled it is bit for bit the outer product of all n
    1-d phases, and exp(i theta.g) on the meshgrid to rounding."""
    theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    phase = _phase(g, lambda k, e: theta_1d * e, False)
    if any(g):
        assert phase.shape == tuple(m if e else 1 for e in g)
    else:
        assert np.ndim(phase) == 0 and phase == 1
    grid = np.broadcast_to(phase, (m,) * len(g)).ravel()
    assert np.array_equal(grid, _outer_grid_phase(theta_1d, g))
    # the reference rounds theta.g before exp, an error that grows with |g|
    tol = 1e-15 * max(1, sum(abs(e) for e in g))
    assert np.max(np.abs(grid - _meshgrid_phase(theta_1d, g))) <= tol


@pytest.mark.bitwise
@pytest.mark.parametrize("m", [1, 2, 7, 1024, 2 ** 18])
def test_grid_phase_real_form_is_bitwise_the_complex_real_part(m):
    """On the torus grid, with one moving axis the real phase
    cos(theta_1d e) is bit for bit the real part of exp(i theta_1d e); with
    several it is the real part of the complex product, and the identity's
    phase is 1 in both forms."""
    theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m

    def angle(k, e):
        return theta_1d * e

    for e in [e for e in (1, -1, 3, -3, 5, -5, 7, -7, m - 1) if e]:
        for g in ((e,), (0, e)):
            z = _phase(g, angle, False)
            c = _phase(g, angle, True)
            assert c.dtype == np.float64 and c.shape == z.shape
            assert c.tobytes() == z.real.tobytes(), (e, g)
    if m <= 1024:
        z = _phase((1, -2), angle, False)
        assert _phase((1, -2), angle, True).tobytes() == z.real.tobytes()
    assert _phase((0, 0), angle, True) == 1


@pytest.mark.bitwise
def test_grid_phase_rank_0_is_one_point():
    phase = _phase((), lambda k, e: np.arange(4.0) * e, False)
    assert np.ndim(phase) == 0 and phase == 1
    assert np.array_equal(np.broadcast_to(phase, ()).ravel(), np.ones(1))


def test_torus_symbol_rank_3_laplacian():
    z3 = FreeAbelianGroup(3)
    gens = [RingElement.delta(z3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    delta = RingMatrix.from_element(6 - sum(t + t.star() for t in gens))
    m = 6
    w = torus_eigen_result(delta, m).eigenvalues
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
        union = np.sort(np.concatenate([dense(m), torus_eigen_result(delta, m).eigenvalues]))
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
        torus_eigen_result(m, 16)
    with pytest.raises(WrongGroup):
        torus_logdet(m, 16)


def _not_self_adjoint(z_group):
    """t, whose symbol is z, and [[2, t], [0, 2]], whose lower triangle
    alone is the Hermitian 2 I."""
    t = RingElement.delta(z_group, (1,))
    two, zero = RingElement.scalar(z_group, 2), RingElement.scalar(z_group, 0)
    return [RingMatrix.from_element(t), RingMatrix(z_group, [[two, t], [zero, two]])]


def test_torus_oracle_refuses_non_self_adjoint_matrices(z_group):
    """The symbol eigensolve reads one triangle, so a matrix that is not
    self-adjoint would get a wrong density; every torus entry point checks
    it exactly and raises NotHermitian."""
    for m in _not_self_adjoint(z_group):
        for solve in (check_torus_grid, torus_eigen_result, torus_logdet):
            with pytest.raises(NotHermitian):
                solve(m, 8)


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


ODD_AND_EVEN_GRIDS = (1, 6, 7, 13, 16)


def _outer_symbol_eigenvalues(delta, m):
    """Reference: sorted eigvalsh of the full (m^n, d, d) symbol stack, every
    term's phase a raveled outer product over all n axes."""
    theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    stack = symbol_stack(delta, m ** delta.group.rank, lambda g: _outer_grid_phase(theta_1d, g))
    return np.sort(np.linalg.eigvalsh(stack).ravel())


def _gaussian_rational_elements():
    """Over Z^3 (a, b, c): x = 5 + (1 + i/2) ab + (2/3) a^2 b^-1 c - (3/4 - i/5) c
    and y = (3 + i/7) - (1/2 + i) b^-1, whose constant term is not real."""
    z3 = FreeAbelianGroup(3)
    q = GaussianRational.of
    x = RingElement(z3, {
        (0, 0, 0): 5, (1, 1, 0): q(1, Fraction(1, 2)), (2, -1, 1): q(Fraction(2, 3)),
        (0, 0, 1): q(Fraction(-3, 4), Fraction(1, 5)),
    })
    y = RingElement(z3, {(0, 0, 0): q(3, Fraction(1, 7)), (0, -1, 0): q(Fraction(-1, 2), -1)})
    return z3, x, y


def _torus_diagonal_cases():
    torus = laplacians(fixture_complex("torus"))
    z3, x, y = _gaussian_rational_elements()
    gens = [RingElement.delta(z3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    zero = RingElement.zero(z3)
    return {
        "torus Delta_0": torus[0],
        "torus Delta_1": torus[1],
        "Z^3 Laplacian": RingMatrix.from_element(6 - sum(t + t.star() for t in gens)),
        # self-adjoint Gaussian-rational entries on several axes, two distinct
        "Z^3 Gaussian diagonal": RingMatrix(z3, [[x + x.star(), zero], [zero, y + y.star()]]),
    }


@pytest.mark.bitwise
def test_torus_non_diagonal_symbol_is_bitwise_eigvalsh(monkeypatch):
    """A*A over Z^2 with A = [[1 - a, 1 - b], [2 - b, 3 + a]], and over Z^3
    with Gaussian-rational entries on several axes, are not diagonal: each
    symbol is one batched eigvalsh call on the d = 2 stack, bit for bit
    eigvalsh on the full stack of outer-product phases."""
    z2 = FreeAbelianGroup(2)
    one = RingElement.one(z2)
    a, b = RingElement.delta(z2, (1, 0)), RingElement.delta(z2, (0, 1))
    z3, x, y = _gaussian_rational_elements()
    cases = [
        RingMatrix(z2, [[one - a, one - b], [2 * one - b, 3 * one + a]]),
        RingMatrix(z3, [[x, y], [y.star(), 2 * x]]),
    ]
    for big_a, m in itertools.product(cases, ODD_AND_EVEN_GRIDS):
        delta = big_a.adjoint() @ big_a
        assert not delta[0, 1].is_zero()
        want = _outer_symbol_eigenvalues(delta, m)
        solve = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda s: calls.append(s.shape) or solve(s))
        got = torus_eigen_result(delta, m).eigenvalues
        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        assert calls == [(m ** delta.group.rank, 2, 2)]
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.bitwise
def test_torus_diagonal_symbol_is_bitwise_eigvalsh(monkeypatch):
    """A diagonal symbol (the torus Delta_1 = diag(Delta_0, Delta_0), the
    rank 3 Laplacian, Gaussian-rational entries on several axes) is the real
    parts of its diagonal entries, solved with no LAPACK call: bit for bit
    eigvalsh on the full stack of outer-product phases."""

    def refuse(*args):
        raise AssertionError("diagonal symbol reached LAPACK")

    for (name, delta), m in itertools.product(_torus_diagonal_cases().items(), ODD_AND_EVEN_GRIDS):
        want = _outer_symbol_eigenvalues(delta, m)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        got = torus_eigen_result(delta, m).eigenvalues
        monkeypatch.undo()
        assert got.dtype == want.dtype and np.array_equal(got, want), (name, m)


@pytest.mark.bitwise
def test_torus_symbol_memory_stays_near_its_output():
    """No m^n complex temporary and no second symbol array: solving the
    torus Delta_1 at m = 256 peaks within 1.25 times its 8 d m^2 bytes of
    output (its diagonal entry, repeated, is assembled into each of the
    output's two rows in place)."""
    delta = laplacians(fixture_complex("torus"))[1]
    m = 256
    torus_eigen_result(delta, m)  # warm: caches and lazy imports
    tracemalloc.start()
    try:
        w = torus_eigen_result(delta, m).eigenvalues
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.nbytes == 8 * 2 * m * m
    assert peak <= 1.25 * w.nbytes


@pytest.mark.bitwise
def test_cw_torus_degree_memory_stays_near_its_spectrum():
    """cw's oracle on the torus Delta_1 at m = 1024, solve and log
    determinant together, peaks within two slabs' bytes, 8 *
    SLAB_EIGENVALUES each (measured: 1.18 slabs): it solves its one
    distinct summand once, one slab at a time, and the log of each slab's
    positive tail overwrites that slab.  A whole-grid solve holds 8 m^2
    bytes, 16 slabs."""
    delta = laplacians(fixture_complex("torus"))[1]
    m = 1024
    _oracle_degrees([delta], m, m * m)  # warm: caches and lazy imports
    tracemalloc.start()
    try:
        _oracle_degrees([delta], m, m * m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * SLAB_EIGENVALUES < 8 * m * m


def _gather_diagonal_eigenvalues(delta, m):
    """Reference: the diagonal route as one symbol per distinct diagonal
    entry, gathered into diagonal order by a fancy-index copy, then sorted."""
    theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    shape = (m,) * delta.group.rank
    diagonal = [delta.entries[k][k] for k in range(delta.rows)]
    distinct = list(dict.fromkeys(diagonal))
    symbols = np.zeros((len(distinct),) + shape)
    for i, x in enumerate(distinct):
        _add_symbol(symbols, x, lambda g, real: _phase(g, lambda k, e: theta_1d * e, real), lambda g: i)
    flat = symbols.reshape(len(distinct), math.prod(shape))
    w = flat[[distinct.index(x) for x in diagonal]].ravel()
    w.sort()
    return w


_COEFFICIENTS = st.sampled_from(
    [GaussianRational.of(c) for c in (1, -2, Fraction(3, 2))]
    + [GaussianRational.of(Fraction(1, 2), Fraction(-1, 3)), GaussianRational.of(0, 1)]
)


@st.composite
def _diagonal_operators(draw):
    """A diagonal d x d matrix over Z^n, d = 1..3 and n = 1..2, whose
    entries x + x* are drawn from a pool of one to three, so repeated and
    distinct entries both occur, with real and complex coefficients."""
    z = FreeAbelianGroup(draw(st.integers(1, 2)))
    word = st.tuples(*[st.integers(-3, 3)] * z.rank)
    elements = st.dictionaries(word, _COEFFICIENTS, min_size=1, max_size=3)
    pool = []
    for terms in draw(st.lists(elements, min_size=1, max_size=3)):
        x = RingElement(z, terms)
        pool.append(x + x.star())
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
    zero = RingElement.zero(z)
    return RingMatrix(z, [[pool[i] if k == l else zero for l in range(len(picks))] for k, i in enumerate(picks)])


@pytest.mark.bitwise
@settings(max_examples=60, deadline=None)
@given(delta=_diagonal_operators(), m=st.sampled_from(ODD_AND_EVEN_GRIDS))
def test_diagonal_route_is_bitwise_the_gather_form(delta, m):
    """The one-point diagonal route assembles into one array, row by row,
    a repeated entry again: bit for bit the form that gathered one
    symbol per distinct entry into diagonal order."""
    got = torus_eigen_result(delta, m).eigenvalues
    want = _gather_diagonal_eigenvalues(delta, m)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(delta=_diagonal_operators(), m=st.sampled_from(ODD_AND_EVEN_GRIDS))
def test_direct_summands_give_the_whole_operator(delta, m):
    """cw solves a diagonal operator as its 1 x 1 entries: F(0) at the
    whole operator's threshold is the whole operator's, bit for bit, and the
    log det, a sum of the summands', agrees to 1e-12 relative."""
    (f0, logdet, det_class), = _oracle_degrees([delta], m, m ** delta.group.rank)
    whole = torus_eigen_result(delta, m)
    assert f0 == whole.kernel_end() / whole.denom and det_class
    assert logdet == pytest.approx(log_det(at_threshold(whole, 0.0)), rel=1e-12, abs=0)


@pytest.mark.bitwise
def test_torus_kernel_logdet_is_the_kernel_split_and_log_det():
    """torus_kernel_logdet is the kernel_end() of the torus eigenvalues at
    each threshold t and their log_det at threshold 0, bit for bit, with
    every count read before it overwrote the tail: on the torus Laplacians, a non-diagonal
    A*A, 2 cos theta (negative half, and at m = 2 and 6 a value 6e-17 kept
    by the cut at 0 but not by the kernel threshold) and the zero matrix
    (no positive tail)."""
    z1, z2 = FreeAbelianGroup(1), FreeAbelianGroup(2)
    t = RingElement.delta(z1, (1,))
    a, b = RingElement.delta(z2, (1, 0)), RingElement.delta(z2, (0, 1))
    big_a = RingMatrix(z2, [[1 - a, 1 - b], [2 - b, 3 + a]])
    cases = {
        **_torus_diagonal_cases(),
        "A*A": big_a.adjoint() @ big_a,
        "2 cos": RingMatrix.from_element(t + t.star()),
        "zero": RingMatrix.zero(z2, 2, 2),
    }
    splits = set()
    for (name, delta), m in itertools.product(cases.items(), ODD_AND_EVEN_GRIDS + (2,)):
        eig = torus_eigen_result(delta, m)
        thresholds = [eig.kernel_threshold, 0.0, 4 * eig.kernel_threshold]
        cuts = [at_threshold(eig, t) for t in thresholds]
        want = ([cut.kernel_end() for cut in cuts], log_det(cuts[1]))
        got = torus_kernel_logdet(delta, m, thresholds)
        assert type(got[1]) is float
        assert got == want and torus_logdet(delta, m) == want[1], (name, m)
        splits.add(want[0][0] == want[0][1])
    assert splits == {True, False}


def test_torus_kernel_logdet_over_several_slabs_is_the_whole_grid(monkeypatch):
    """On grids of several slabs, the last one partial where the rows do
    not divide m, torus_kernel_logdet reads every row of the first axis
    once, in order: each count is kernel_end() of the whole grid at its
    threshold exactly, at thresholds from the kernel cut to the top
    eigenvalue, and the log det is log_det at threshold 0 to 1e-12 relative.  Cases: the torus Delta_0
    at m = 1024 (16 slabs of 64 rows), its Delta_1 (d = 2) at m = 1000
    (31 slabs of 32 rows and one of 8), 2 - t - 1/t at m = 3 * 2^16 + 5
    (3 slabs and one of 5 points) and a non-diagonal d = 2 A*A over Z^2 at
    m = 300 (slabs of 109 rows, the last of 82)."""
    z1, z2 = FreeAbelianGroup(1), FreeAbelianGroup(2)
    t = RingElement.delta(z1, (1,))
    a, b = RingElement.delta(z2, (1, 0)), RingElement.delta(z2, (0, 1))
    big_a = RingMatrix(z2, [[1 - a, 1 - b], [2 - b, 3 + a]])
    torus = laplacians(fixture_complex("torus"))
    cases = [
        ("torus Delta_0", torus[0], 1024, False),
        ("torus Delta_1", torus[1], 1000, True),
        ("2 - t - 1/t", RingMatrix.from_element(2 - t - t.star()), 3 * 2 ** 16 + 5, True),
        ("A*A", big_a.adjoint() @ big_a, 300, True),
    ]
    for name, delta, m, partial in cases:
        eig = torus_eigen_result(delta, m)
        w = eig.eigenvalues
        thresholds = [eig.kernel_threshold, 0.0, w[len(w) // 3], w[2 * len(w) // 3], w[-1]]
        slabs = record_torus_slabs(monkeypatch)
        counts, logdet = torus_kernel_logdet(delta, m, thresholds)
        monkeypatch.undo()
        assert counts == [at_threshold(eig, t).kernel_end() for t in thresholds], name
        assert counts[-1] == len(w)
        assert logdet == pytest.approx(log_det(at_threshold(eig, 0.0)), rel=1e-12, abs=0), name
        assert [row for _, lo, hi in slabs for row in range(lo, hi)] == list(range(m)), name
        sizes = [hi - lo for _, lo, hi in slabs]
        assert len(sizes) > 1, name
        assert (sizes[-1] < sizes[0]) == partial and len(set(sizes[:-1])) == 1, name

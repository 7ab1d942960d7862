import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx import (
    CyclicGroup,
    FreeGroup,
    RingElement,
    RingMatrix,
    finite_spectrum,
    free_abelian_quotient,
    k_bound,
    laplacian,
    positive_square,
    product_group,
    symmetric_group,
    trace,
)
from l2approx.errors import DimensionMismatch, MismatchedGroup

from conftest import (
    SEED,
    f2_to_s3_products,
    random_element,
    random_self_adjoint,
    ring_elements,
    ring_matrices,
    trace_power_exact,
)
from dense_reference import regular_representation


def test_adjoint_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    m = RingMatrix.from_element(1 - t)
    assert m.adjoint() == RingMatrix.from_element(1 - t.star())
    ident = RingMatrix.identity(z_group, 3)
    assert ident.adjoint() == ident
    f1 = FreeGroup(1)
    a = RingElement.delta(f1, (1,))
    zero = RingElement.zero(f1)
    upper = RingMatrix(f1, [[zero, a], [zero, zero]])
    lower = RingMatrix(f1, [[zero, zero], [RingElement.delta(f1, (-1,)), zero]])
    assert upper.adjoint() == lower
    assert upper.adjoint().adjoint() == upper


def test_mat_mul_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    m = RingMatrix.from_element(1 - t)
    assert (m @ RingMatrix.identity(z_group, 1)) == m
    assert (m @ m.adjoint()) == RingMatrix.from_element(2 - t - t.star())
    one = RingElement.one(z_group)
    zero = RingElement.zero(z_group)
    e = RingMatrix(z_group, [[one, 1 - t], [zero, one]])
    e_inv = RingMatrix(z_group, [[one, t - 1], [zero, one]])
    ident = RingMatrix.identity(z_group, 2)
    assert e @ e_inv == ident
    assert e_inv @ e == ident


def test_mat_mul_dimension_errors(z_group):
    m = RingMatrix.identity(z_group, 2)
    n = RingMatrix.zero(z_group, 3, 2)
    with pytest.raises(DimensionMismatch):
        m @ n
    with pytest.raises(MismatchedGroup):
        m @ RingMatrix.identity(CyclicGroup(2), 2)


def test_positive_square_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    delta = positive_square(RingMatrix.from_element(1 - t))
    assert delta == RingMatrix.from_element(2 - t - t.star())
    assert delta.is_self_adjoint()
    ident = RingMatrix.identity(z_group, 2)
    assert positive_square(ident) == ident
    f2 = FreeGroup(2)
    a = RingElement.delta(f2, (1,))
    b = RingElement.delta(f2, (2,))
    sq = positive_square(RingMatrix.from_element(a + b))
    expected = 2 + RingElement.delta(f2, (-1, 2)) + RingElement.delta(f2, (-2, 1))
    assert sq == RingMatrix.from_element(expected)


def test_k_bound_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    assert k_bound(RingMatrix.from_element(2 - t - t.star())) == 4.0
    for d in (1, 2, 5):
        assert k_bound(RingMatrix.identity(z_group, d)) == d * d
    x = RingElement(z_group, {(0,): 1, (1,): 1, (2,): 1})  # l1 norm 3
    m = RingMatrix(z_group, [[x, RingElement.zero(z_group)], [RingElement.one(z_group), x]])
    assert k_bound(m) == 12.0


def test_laplacian_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    d1 = RingMatrix.from_element(t - 1)
    # at either end of a complex the missing boundary is a zero map
    top = laplacian(d1, RingMatrix.zero(z_group, 1, 0))
    assert top == RingMatrix.from_element(2 - t - t.star())
    bottom = laplacian(RingMatrix.zero(z_group, 0, 1), d1)
    assert bottom == RingMatrix.from_element(2 - t - t.star())
    assert top.is_self_adjoint()
    isolated = laplacian(RingMatrix.zero(z_group, 0, 2), RingMatrix.zero(z_group, 2, 0))
    assert isolated == RingMatrix.zero(z_group, 2, 2)
    with pytest.raises(DimensionMismatch):
        laplacian(d1, RingMatrix.zero(z_group, 2, 0))


def test_zero_size_matrices_keep_their_shape(z_group):
    t = RingElement.delta(z_group, (1,))
    empty = RingMatrix.zero(z_group, 0, 3)
    assert empty.shape == (0, 3) and empty != RingMatrix.zero(z_group, 0, 2)
    assert empty.adjoint().shape == (3, 0)
    assert empty.adjoint().adjoint() == empty
    assert empty.scale(2).shape == (0, 3)
    assert (empty + empty).shape == (0, 3)
    assert (empty @ RingMatrix.zero(z_group, 3, 4)).shape == (0, 4)
    assert (RingMatrix.zero(z_group, 2, 0) @ empty).shape == (2, 3)
    assert empty.push_forward(free_abelian_quotient(1, 4)).shape == (0, 3)
    assert positive_square(empty) == RingMatrix.zero(z_group, 3, 3)
    column = RingMatrix(z_group, [[t], [t]])
    assert column.adjoint().adjoint() == column
    with pytest.raises(DimensionMismatch):
        RingMatrix(z_group, [], -1)


def test_trace_poly_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    delta = RingMatrix.from_element(2 - t - t.star())
    assert trace_power_exact(delta, 1) == 2.0
    # (2 - t - t^-1)^2 has identity coefficient 4 + 1 + 1 = 6
    assert trace_power_exact(delta, 2) == 6.0
    for d in (1, 3):
        for m in (1, 2, 5):
            ident = RingMatrix.identity(z_group, d)
            assert trace_power_exact(ident, m) == float(d)


def _random_matrix(group, rng, d=2):
    return RingMatrix(group, [[random_element(group, rng) for _ in range(d)] for _ in range(d)])


def test_adjoint_antihomomorphism_randomized():
    """(MN)* = N*M*, associativity and both distributive laws for 2 x 2
    matrices over F2, S3 and S3 x Z/4."""
    rng = random.Random(SEED + 1)
    s3 = symmetric_group(3)
    for group in (FreeGroup(2), s3, product_group([s3, CyclicGroup(4)])):
        for _ in range(30):
            m, n, p = (_random_matrix(group, rng) for _ in range(3))
            assert (m @ n).adjoint() == n.adjoint() @ m.adjoint()
            assert (m @ n) @ p == m @ (n @ p)
            assert m @ (n + p) == m @ n + m @ p
            assert (m + n) @ p == m @ p + n @ p


F2_TO_S3_PRODUCTS = f2_to_s3_products()
# F2, S3 and the finite products S3 x Z/k
AXIOM_GROUPS = [FreeGroup(2), symmetric_group(3)] + [q.target for q in F2_TO_S3_PRODUCTS]


def _shapes(data, count):
    """count + 1 sizes in 0..2: the shapes of a chain of count matrices."""
    return [data.draw(st.integers(0, 2), label="size") for _ in range(count + 1)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_ring_axioms_property(data):
    """Associativity, both distributive laws and (AB)* = B*A*, for ring
    elements and for matrices of every shape up to 2 x 2 (empty ones
    included), over F2, S3 and S3 x Z/k."""
    group = data.draw(st.sampled_from(AXIOM_GROUPS), label="group")
    x, y, z = (data.draw(ring_elements(group), label="element") for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert (x * y).star() == y.star() * x.star()
    p, q, r, s = _shapes(data, 3)
    a = data.draw(ring_matrices(group, p, q), label="A")
    b, b2 = (data.draw(ring_matrices(group, q, r), label="B") for _ in range(2))
    c = data.draw(ring_matrices(group, r, s), label="C")
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + b2) == a @ b + a @ b2
    assert (b + b2) @ c == b @ c + b2 @ c
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_push_forward_is_star_ring_hom_property(data):
    """Push-forward along F2 -> S3 x Z/k keeps products, sums, adjoints and
    the identity, for ring elements and matrices up to 2 x 2."""
    hom = data.draw(st.sampled_from(F2_TO_S3_PRODUCTS), label="hom")
    x, y = (data.draw(ring_elements(hom.source), label="element") for _ in range(2))
    assert (x * y).push_forward(hom) == x.push_forward(hom) * y.push_forward(hom)
    assert (x + y).push_forward(hom) == x.push_forward(hom) + y.push_forward(hom)
    assert x.star().push_forward(hom) == x.push_forward(hom).star()
    p, q, r = _shapes(data, 2)
    a, a2 = (data.draw(ring_matrices(hom.source, p, q), label="A") for _ in range(2))
    b = data.draw(ring_matrices(hom.source, q, r), label="B")
    assert (a @ b).push_forward(hom) == a.push_forward(hom) @ b.push_forward(hom)
    assert (a + a2).push_forward(hom) == a.push_forward(hom) + a2.push_forward(hom)
    assert a.adjoint().push_forward(hom) == a.push_forward(hom).adjoint()
    assert RingMatrix.identity(hom.source, p).push_forward(hom) == RingMatrix.identity(hom.target, p)


def test_trace_real_for_self_adjoint():
    rng = random.Random(SEED + 2)
    group = CyclicGroup(6)
    for _ in range(30):
        delta = random_self_adjoint(group, rng, d=2)
        value = trace(delta @ delta)
        assert value.im == 0


def test_push_forward_matrix_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    delta = RingMatrix.from_element(2 - t - t.star())
    q4 = free_abelian_quotient(1, 4)
    pushed = delta.push_forward(q4)
    tbar = RingElement.delta(q4.target, 1)
    tbar3 = RingElement.delta(q4.target, 3)
    assert pushed == RingMatrix.from_element(2 - tbar - tbar3)
    ident = RingMatrix.identity(z_group, 3)
    assert ident.push_forward(q4) == RingMatrix.identity(q4.target, 3)


def test_push_forward_commutes_with_star_and_product():
    """Along Z -> Z/8 and F2 -> S3 x Z/k (generator images)."""
    rng = random.Random(SEED + 3)
    for q in [free_abelian_quotient(1, 8)] + f2_to_s3_products():
        for _ in range(20):
            a, b = _random_matrix(q.source, rng), _random_matrix(q.source, rng)
            pushed_square = positive_square(a).push_forward(q)
            square_pushed = positive_square(a.push_forward(q))
            assert pushed_square == square_pushed
            assert (a @ b).push_forward(q) == a.push_forward(q) @ b.push_forward(q)
            assert (a + b).push_forward(q) == a.push_forward(q) + b.push_forward(q)
            assert a.adjoint().push_forward(q) == a.push_forward(q).adjoint()


def test_finite_group_trace_against_regular_representation(s3):
    rng = random.Random(SEED + 4)
    for group in (CyclicGroup(5), s3):
        for _ in range(10):
            delta = random_self_adjoint(group, rng, d=2)
            h = regular_representation(delta)
            for power in (1, 2, 3):
                exact = trace_power_exact(delta, power)
                numeric = float(np.trace(np.linalg.matrix_power(h, power)).real)
                assert abs(exact - numeric / group.order) <= 1e-9 * max(1.0, abs(exact))


def test_finite_level_spectrum_below_k_bound(s3):
    rng = random.Random(SEED + 5)
    for group in (CyclicGroup(7), s3):
        for _ in range(10):
            delta = random_self_adjoint(group, rng, d=2)
            eig = finite_spectrum(delta)
            assert eig.max_eigenvalue <= k_bound(delta) + 1e-9

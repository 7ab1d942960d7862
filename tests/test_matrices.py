import random
from fractions import Fraction

import numpy as np
import pytest

from l2approx import (
    CyclicGroup,
    FreeGroup,
    RingElement,
    RingMatrix,
    cyclic_quotient,
    finite_spectrum,
    k_bound,
    laplacian,
    positive_square,
    trace_poly,
    trace_poly_exact,
)
from l2approx.errors import DimensionMismatch, MismatchedGroup
from l2approx.matrices import matrix_power, poly_apply

from conftest import SEED, random_element, random_self_adjoint
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
    top = laplacian(d1, None)
    assert top == RingMatrix.from_element(2 - t - t.star())
    bottom = laplacian(None, d1)
    assert bottom == RingMatrix.from_element(2 - t - t.star())
    assert top.is_self_adjoint()
    isolated = laplacian(None, None, group=z_group, dim=2)
    assert isolated == RingMatrix.zero(z_group, 2, 2)


def test_trace_poly_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    delta = RingMatrix.from_element(2 - t - t.star())
    assert trace_poly_exact(delta, [0, 1]) == 2.0
    # (2 - t - t^-1)^2 has identity coefficient 4 + 1 + 1 = 6
    assert trace_poly_exact(delta, [0, 0, 1]) == 6.0
    for d in (1, 3):
        for m in (1, 2, 5):
            ident = RingMatrix.identity(z_group, d)
            assert trace_poly_exact(ident, [0] * m + [1]) == float(d)


def test_poly_apply_matches_matrix_power(z_group):
    rng = random.Random(SEED)
    delta = random_self_adjoint(z_group, rng, d=2)
    assert poly_apply(delta, [0, 0, 0, 1]) == matrix_power(delta, 3)
    combo = poly_apply(delta, [Fraction(1, 2), -2, 1])
    manual = (
        matrix_power(delta, 2)
        + matrix_power(delta, 1).scale(-2)
        + RingMatrix.identity(z_group, 2).scale(Fraction(1, 2))
    )
    assert combo == manual


def test_adjoint_antihomomorphism_randomized():
    rng = random.Random(SEED + 1)
    group = FreeGroup(2)
    for _ in range(30):
        m = RingMatrix(group, [[random_element(group, rng) for _ in range(2)] for _ in range(2)])
        n = RingMatrix(group, [[random_element(group, rng) for _ in range(2)] for _ in range(2)])
        assert (m @ n).adjoint() == n.adjoint() @ m.adjoint()


def test_trace_real_for_self_adjoint():
    rng = random.Random(SEED + 2)
    group = CyclicGroup(6)
    for _ in range(30):
        delta = random_self_adjoint(group, rng, d=2)
        value = trace_poly(delta, [0, 0, 1])
        assert value.im == 0


def test_push_forward_matrix_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    delta = RingMatrix.from_element(2 - t - t.star())
    q4 = cyclic_quotient(4)
    pushed = delta.push_forward(q4)
    tbar = RingElement.delta(q4.target, 1)
    tbar3 = RingElement.delta(q4.target, 3)
    assert pushed == RingMatrix.from_element(2 - tbar - tbar3)
    ident = RingMatrix.identity(z_group, 3)
    assert ident.push_forward(q4) == RingMatrix.identity(q4.target, 3)


def test_push_forward_commutes_with_star_and_product(z_group):
    rng = random.Random(SEED + 3)
    q = cyclic_quotient(8)
    for _ in range(20):
        a = RingMatrix(z_group, [[random_element(z_group, rng) for _ in range(2)] for _ in range(2)])
        pushed_square = positive_square(a).push_forward(q)
        square_pushed = positive_square(a.push_forward(q))
        assert pushed_square == square_pushed


def test_finite_group_trace_against_regular_representation(s3):
    rng = random.Random(SEED + 4)
    for group in (CyclicGroup(5), s3):
        for _ in range(10):
            delta = random_self_adjoint(group, rng, d=2)
            h = regular_representation(delta)
            for power in (1, 2, 3):
                exact = trace_poly_exact(delta, [0] * power + [1])
                numeric = float(np.trace(np.linalg.matrix_power(h, power)).real)
                assert abs(exact - numeric / group.order) <= 1e-9 * max(1.0, abs(exact))


def test_finite_level_spectrum_below_k_bound(s3):
    rng = random.Random(SEED + 5)
    for group in (CyclicGroup(7), s3):
        for _ in range(10):
            delta = random_self_adjoint(group, rng, d=2)
            eig = finite_spectrum(delta)
            assert eig.max_eigenvalue <= k_bound(delta) + 1e-9

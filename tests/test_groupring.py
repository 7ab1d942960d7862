import random
from fractions import Fraction

import pytest

from l2approx import (
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    GaussianRational,
    Homomorphism,
    RingElement,
    free_abelian_quotient,
    product_group,
    symmetric_group,
)
from l2approx.errors import MismatchedGroup

from conftest import SEED, f2_to_s3_products, random_element


def test_gaussian_rational_exactness():
    a = GaussianRational.of(Fraction(1, 3), Fraction(1, 7))
    b = GaussianRational.of(Fraction(2, 3), Fraction(-1, 7))
    assert (a + b).re == 1 and (a + b).im == 0
    prod = a * b
    assert prod.re == Fraction(2, 9) + Fraction(1, 49)
    assert a.conjugate().im == -Fraction(1, 7)
    assert GaussianRational.of(5).is_integer()
    assert not GaussianRational.of(Fraction(1, 2)).is_integer()
    assert GaussianRational.of(3, 4).modulus() == 5.0


def test_gaussian_rational_is_a_value():
    a = GaussianRational.of(1, 2)
    assert a == GaussianRational(Fraction(1), Fraction(2)) and hash(a) == hash((Fraction(1), Fraction(2)))
    assert {a: "a"}[GaussianRational.of(1, 2)] == "a"
    assert repr(a) == "GaussianRational(re=Fraction(1, 1), im=Fraction(2, 1))"
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("other", [(1, 0), (Fraction(1), Fraction(0)), 1, 1.0, 1 + 0j])
def test_gaussian_rational_never_equals_another_type(other):
    one = GaussianRational.of(1)
    assert one != other and other != one


def test_mul_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    product = (1 - t) * (1 - t.star())
    expected = 2 - t - t.star()
    assert product == expected

    f2 = FreeGroup(2)
    a = RingElement.delta(f2, (1,))
    b = RingElement.delta(f2, (2,))
    assert (a * b) == RingElement.delta(f2, (1, 2))

    x = RingElement(z_group, {(0,): 2, (3,): -5})
    assert x * RingElement.one(z_group) == x


def test_star_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    assert (1 - t).star() == 1 - t.star()
    symmetric = 2 - t - t.star()
    assert symmetric.star() == symmetric
    ig = RingElement.delta(z_group, (2,), GaussianRational.of(0, 1))
    starred = ig.star()
    assert starred.terms == {(-2,): GaussianRational.of(0, -1)}


def test_l1_norm_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    assert (2 - t - t.star()).l1_norm() == 4.0
    assert RingElement.zero(z_group).l1_norm() == 0.0
    assert RingElement.delta(z_group, (1,), GaussianRational.of(3, 4)).l1_norm() == 5.0


def test_trace_coeff_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    assert (2 - t - t.star()).trace_coeff() == GaussianRational.of(2)
    assert (t + t.star()).trace_coeff() == GaussianRational.of(0)
    assert RingElement.one(z_group).trace_coeff() == GaussianRational.of(1)


def test_push_forward_examples(z_group):
    t = RingElement.delta(z_group, (1,))
    delta = 2 - t - t.star()
    q2 = free_abelian_quotient(1, 2)
    image = delta.push_forward(q2)
    assert image.terms == {0: GaussianRational.of(2), 1: GaussianRational.of(-2)}
    q4 = free_abelian_quotient(1, 4)
    image4 = delta.push_forward(q4)
    assert image4.terms == {
        0: GaussianRational.of(2),
        1: GaussianRational.of(-1),
        3: GaussianRational.of(-1),
    }
    assert RingElement.one(z_group).push_forward(q4) == RingElement.one(q4.target)


def test_mismatched_group_raises(z_group):
    x = RingElement.one(z_group)
    y = RingElement.one(CyclicGroup(3))
    with pytest.raises(MismatchedGroup):
        x * y
    with pytest.raises(MismatchedGroup):
        x + y


GROUPS = [FreeAbelianGroup(1), CyclicGroup(5), FreeGroup(2), symmetric_group(3)]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_star_is_involutive_antihomomorphism(group):
    rng = random.Random(SEED)
    for _ in range(60):
        x = random_element(group, rng)
        y = random_element(group, rng)
        assert x.star().star() == x
        assert (x * y).star() == y.star() * x.star()


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_trace_is_tracial(group):
    rng = random.Random(SEED + 1)
    for _ in range(60):
        x = random_element(group, rng)
        y = random_element(group, rng)
        assert (x * y).trace_coeff() == (y * x).trace_coeff()


def _sign(s3, g) -> int:
    """0 for an even permutation of ``symmetric_group(3)``, 1 for an odd one."""
    p = s3.names[g]
    return sum(a > b for i, a in enumerate(p) for b in p[i + 1:]) % 2


def test_push_forward_is_star_ring_hom():
    """Along Z -> Z/6, F2 -> S3 x Z/k by generator images, and the element
    maps sign: S3 -> Z/2 and the projection S3 x Z/4 -> S3."""
    rng = random.Random(SEED + 2)
    s3 = symmetric_group(3)
    s3_z4 = product_group([s3, CyclicGroup(4)])
    homs = [free_abelian_quotient(1, 6)] + f2_to_s3_products() + [
        Homomorphism(s3, CyclicGroup(2), element_map={g: _sign(s3, g) for g in s3.elements()}),
        Homomorphism(s3_z4, s3, element_map={g: g[0] for g in s3_z4.elements()}),
    ]
    for q in homs:
        for _ in range(60):
            x = random_element(q.source, rng)
            y = random_element(q.source, rng)
            assert (x * y).push_forward(q) == x.push_forward(q) * y.push_forward(q)
            assert (x + y).push_forward(q) == x.push_forward(q) + y.push_forward(q)
            assert x.star().push_forward(q) == x.push_forward(q).star()


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_l1_submultiplicative(group):
    rng = random.Random(SEED + 3)
    for _ in range(60):
        x = random_element(group, rng)
        y = random_element(group, rng)
        assert (x * y).l1_norm() <= x.l1_norm() * y.l1_norm() + 1e-9


def test_no_zero_terms_stored(z_group):
    t = RingElement.delta(z_group, (1,))
    x = (1 - t) + (t - 1)
    assert x.is_zero() and x.terms == {}
    y = RingElement(z_group, {(0,): 0, (2,): 1})
    assert (0,) not in y.terms


def test_bilinearity():
    """Both distributive laws and associativity over Z, Z/5, F2, S3 and
    finite products, where the order of factors matters."""
    rng = random.Random(SEED + 4)
    products = [
        product_group([symmetric_group(3), CyclicGroup(4)]),
        product_group([CyclicGroup(2), symmetric_group(3), CyclicGroup(3)]),
    ]
    for group in GROUPS + products:
        for _ in range(40):
            x = random_element(group, rng)
            y = random_element(group, rng)
            z = random_element(group, rng)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)

import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2approx import (
    CyclicGroup,
    DirectProductGroup,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    Homomorphism,
    RingElement,
    TrivialGroup,
    free_abelian_quotient,
    product_group,
    symmetric_group,
)
from l2approx.errors import InfiniteGroup, MalformedGroup, MismatchedGroup, UndefinedGenerator
from l2approx.groups import _greedy_generators, _validate_table, reduce_word
from l2approx.jsonio import parse_group

from conftest import SEED, random_group_element
from table_reference import numpy_table_validation

ALL_GROUPS = [
    TrivialGroup(),
    CyclicGroup(1),
    CyclicGroup(4),
    CyclicGroup(7),
    FreeAbelianGroup(1),
    FreeAbelianGroup(3),
    FreeGroup(1),
    FreeGroup(2),
    symmetric_group(3),
    DirectProductGroup((CyclicGroup(2), CyclicGroup(2))),
    product_group([CyclicGroup(2), CyclicGroup(3), CyclicGroup(4)]),
    product_group([product_group([CyclicGroup(2), CyclicGroup(3)]), CyclicGroup(4)]),
]


def test_free_cancellation():
    f2 = FreeGroup(2)
    assert f2.multiply((1,), (-1,)) == ()
    assert f2.multiply((1, 2), (-2, -1)) == ()
    assert f2.multiply((1,), (2,)) == (1, 2)


def test_free_abelian_addition():
    z2 = FreeAbelianGroup(2)
    assert z2.multiply((1, 0), (0, 3)) == (1, 3)


def test_cyclic_mod():
    assert CyclicGroup(4).multiply(3, 2) == 1


def test_inverse_examples(s3):
    f1 = FreeGroup(1)
    assert f1.inverse((1, 1)) == (-1, -1)
    assert CyclicGroup(5).inverse(2) == 3
    transposition = next(
        g for g in s3.elements()
        if g != s3.identity() and s3.multiply(g, g) == s3.identity()
    )
    assert s3.inverse(transposition) == transposition


def test_reduce_word_idempotent(rng):
    for _ in range(200):
        raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))]
        once = reduce_word(raw)
        assert reduce_word(once) == once
        assert FreeGroup(2).contains(once)


def test_apply_hom_examples(s3):
    # Z -> Z/4, generator -> 1: 6 -> 2
    q = free_abelian_quotient(1, 4)
    assert q.apply((6,)) == 2
    assert q.apply((0,)) == 0
    # Free(2) -> S3, a -> a transposition, b -> a 3-cycle
    f2 = FreeGroup(2)
    transposition = next(
        g for g in s3.elements()
        if g != s3.identity() and s3.multiply(g, g) == s3.identity()
    )
    cycle = next(
        g for g in s3.elements()
        if g != s3.identity() and s3.multiply(g, g) != s3.identity()
    )
    phi = Homomorphism(f2, s3, generator_images=[transposition, cycle])
    assert phi.apply((1, 2)) == s3.multiply(transposition, cycle)
    assert phi.apply(()) == s3.identity()


def test_enumerate_examples(s3):
    assert CyclicGroup(3).elements() == [0, 1, 2]
    klein = DirectProductGroup((CyclicGroup(2), CyclicGroup(2)))
    elems = klein.elements()
    assert len(elems) == 4
    assert elems[0] == klein.identity()
    assert len(s3.elements()) == 6
    assert s3.elements()[0] == s3.identity()


def test_enumerate_infinite_raises():
    with pytest.raises(InfiniteGroup):
        FreeAbelianGroup(2).elements()
    with pytest.raises(InfiniteGroup):
        FreeGroup(1).elements()


@pytest.mark.parametrize("group", ALL_GROUPS, ids=str)
def test_group_laws_randomized(group):
    rng = random.Random(SEED)
    e = group.identity()
    for _ in range(120):  # 120 x 11 variants > 10^3 samples overall
        g = random_group_element(group, rng)
        h = random_group_element(group, rng)
        k = random_group_element(group, rng)
        assert group.multiply(group.multiply(g, h), k) == group.multiply(
            g, group.multiply(h, k)
        )
        assert group.multiply(g, e) == g
        assert group.multiply(e, g) == g
        assert group.multiply(g, group.inverse(g)) == e
        assert group.multiply(group.inverse(g), g) == e


@pytest.mark.parametrize("group", ALL_GROUPS, ids=str)
def test_power_matches_repeated_multiplication(group):
    rng = random.Random(SEED + 1)
    for _ in range(30):
        g = random_group_element(group, rng)
        k = rng.randint(-6, 6)
        expected = group.identity()
        step = g if k >= 0 else group.inverse(g)
        for _ in range(abs(k)):
            expected = group.multiply(expected, step)
        assert group.power(g, k) == expected


def test_homomorphism_property_randomized(s3):
    rng = random.Random(SEED + 2)
    homs = [
        free_abelian_quotient(1, 6),
        free_abelian_quotient(2, 4),
        free_abelian_quotient(2, [2, 3]),
        Homomorphism(FreeGroup(2), s3, generator_images=[1, 4]),
        Homomorphism(CyclicGroup(2), CyclicGroup(4), generator_images=[2]),
    ]
    for phi in homs:
        e_target = phi.target.identity()
        assert phi.apply(phi.source.identity()) == e_target
        for _ in range(200):
            g = random_group_element(phi.source, rng)
            h = random_group_element(phi.source, rng)
            assert phi.apply(phi.source.multiply(g, h)) == phi.target.multiply(
                phi.apply(g), phi.apply(h)
            )


def test_free_abelian_quotient_images_are_unit_tuples():
    phi = free_abelian_quotient(3, [2, 3, 4])
    assert phi.target == product_group([CyclicGroup(2), CyclicGroup(3), CyclicGroup(4)])
    assert phi.generator_images == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert free_abelian_quotient(1, [5]).generator_images == (1,)
    rng = random.Random(SEED)
    for _ in range(50):
        g = random_group_element(phi.source, rng)
        assert phi.apply(g) == tuple(x % n for x, n in zip(g, (2, 3, 4)))


def test_mismatched_payload_raises():
    with pytest.raises(MismatchedGroup):
        CyclicGroup(4).check(7)
    with pytest.raises(MismatchedGroup):
        FreeAbelianGroup(2).check((1,))
    with pytest.raises(MismatchedGroup):
        FreeGroup(2).check((1, -1))  # unreduced word


def test_free_group_rejects_bool_letters():
    """bool is an int subclass; a free group rejects it as a letter, as the
    cyclic and free abelian groups do as an entry."""
    f2 = FreeGroup(2)
    assert f2.contains((1, 2)) and not f2.contains((True, 2)) and not f2.contains((False,))
    with pytest.raises(MismatchedGroup):
        RingElement(f2, {(True,): 1})


def test_groups_of_different_families_are_unequal():
    """The families' equality compares classes, not just the field tuples,
    which are (3,) for all three."""
    for a, b in itertools.permutations([CyclicGroup(3), FreeAbelianGroup(3), FreeGroup(3)], 2):
        assert a != b
    assert TrivialGroup() != FreeAbelianGroup(0) and CyclicGroup(3) != 3 and CyclicGroup(3) != (3,)


def test_equal_groups_hash_equal_and_are_dict_keys():
    def build():
        return [
            TrivialGroup(), CyclicGroup(4), FreeAbelianGroup(2), FreeGroup(2),
            DirectProductGroup((symmetric_group(3), CyclicGroup(2))),
        ]

    first, second = build(), build()
    keys = {g: i for i, g in enumerate(first)}
    for i, (a, b) in enumerate(zip(first, second)):
        assert a is not b and a == b and hash(a) == hash(b) and keys[b] == i
    assert hash(CyclicGroup(4)) == hash((4,)) and hash(TrivialGroup()) == hash(())
    assert CyclicGroup(4) != CyclicGroup(5) and FreeGroup(2) != FreeGroup(3)
    assert DirectProductGroup((symmetric_group(3), CyclicGroup(2))) != DirectProductGroup(
        (CyclicGroup(6), CyclicGroup(2))
    )


def test_group_reprs_are_the_dataclass_reprs():
    assert repr(TrivialGroup()) == "TrivialGroup()"
    assert repr(CyclicGroup(4)) == "CyclicGroup(n=4)"
    assert repr(FreeAbelianGroup(2)) == "FreeAbelianGroup(rank=2)"
    assert repr(FreeGroup(1)) == "FreeGroup(rank=1)"
    assert repr(product_group([CyclicGroup(2), FreeGroup(1)])) == (
        "DirectProductGroup(factors=(CyclicGroup(n=2), FreeGroup(rank=1)))"
    )


def test_finite_table_validation():
    with pytest.raises(MalformedGroup):
        FiniteTableGroup([[0, 1], [0, 1]])  # columns not permutations
    with pytest.raises(MalformedGroup):
        FiniteTableGroup([[1, 0, 2], [0, 2, 1], [2, 1, 0]])  # no two-sided identity
    # a Latin square with identity that is not associative (order 5 loop)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(MalformedGroup):
        FiniteTableGroup(loop)
    # entries are integers, never truncated: [[0, 1.9], [1, 0.2]] is not Z/2
    for entry in (1.9, 1.0, "1", True, None):
        with pytest.raises(MalformedGroup, match="is not an integer"):
            FiniteTableGroup([[0, entry], [1, 0]])


def test_hom_relation_validation():
    # generator image must have order dividing the cyclic order
    with pytest.raises(MalformedGroup):
        Homomorphism(CyclicGroup(2), CyclicGroup(4), generator_images=[1])
    # images of commuting generators must commute
    s3 = symmetric_group(3)
    a = 1
    b = next(
        g for g in s3.elements()
        if g not in (s3.identity(), a) and s3.multiply(a, g) != s3.multiply(g, a)
    )
    with pytest.raises(MalformedGroup):
        Homomorphism(FreeAbelianGroup(2), s3, generator_images=[a, b])
    with pytest.raises(UndefinedGenerator):
        Homomorphism(FreeAbelianGroup(2), CyclicGroup(2), generator_images=[1])


def test_injectivity_helpers():
    q = free_abelian_quotient(1, 4)
    assert q.kernel_avoids([(1,), (2,), (3,), (0,)])
    assert not q.kernel_avoids([(4,)])
    # separating a set is avoiding its difference set: {0, 1} gives {-1, 0, 1}
    assert q.kernel_avoids([(-1,), (0,), (1,)])
    assert not q.kernel_avoids([(-4,), (0,), (4,)])


def test_element_map_homomorphism_on_product_source():
    klein = DirectProductGroup((CyclicGroup(2), CyclicGroup(2)))
    target = CyclicGroup(2)
    projection = Homomorphism(
        klein, target, element_map={g: g[0] for g in klein.elements()}
    )
    assert projection.apply((1, 0)) == 1
    assert projection.apply((0, 1)) == 0
    with pytest.raises(UndefinedGenerator):
        Homomorphism(klein, target, element_map={klein.identity(): 0})
    with pytest.raises(MalformedGroup):
        # not multiplicative: (1,0)*(0,1) = (1,1) maps to 0 but 1 + 0 = 1
        bad = {(0, 0): 0, (1, 0): 1, (0, 1): 0, (1, 1): 0}
        Homomorphism(klein, target, element_map=bad)


def test_element_map_wrong_at_one_product_is_rejected():
    """The multiplicativity check runs b over a generating set only, yet a
    map that is a homomorphism except at one element outside that set (so
    wrong at every product landing there) is still rejected."""
    s4 = symmetric_group(4)
    # the sign of a permutation, as parity of its inversions
    sign = {
        g: sum(p > q for i, p in enumerate(name) for q in name[i + 1:]) % 2
        for g, name in enumerate(s4.names)
    }
    Homomorphism(s4, CyclicGroup(2), element_map=sign)
    s3z4 = product_group([symmetric_group(3), CyclicGroup(4)])
    cases = [(s4, CyclicGroup(2), sign), (s3z4, s3z4, {g: g for g in s3z4.elements()})]
    for group, target, good in cases:
        gens = _greedy_generators(group.elements(), group.multiply)
        others = [g for g in group.elements() if g not in gens and g != group.identity()]
        assert others
        for x in others:
            bad = dict(good)
            bad[x] = next(y for y in target.elements() if y != good[x])
            with pytest.raises(MalformedGroup):
                Homomorphism(group, target, element_map=bad)
    # every generator is checked: Z/2 x Z/2 -> Z/4 with f(a u) = f(a) + 2 for
    # one generator u passes every product by u, but f(v) + f(v) = 2 != f(v v)
    klein = product_group([CyclicGroup(2), CyclicGroup(2)])
    gens = _greedy_generators(klein.elements(), klein.multiply)
    assert len(gens) == 2
    for u, v in (gens, gens[::-1]):
        skew = {klein.identity(): 0, u: 2, v: 1, klein.multiply(v, u): 3}
        with pytest.raises(MalformedGroup):
            Homomorphism(klein, CyclicGroup(4), element_map=skew)


def test_element_map_check_is_linear_in_the_order(monkeypatch):
    """The identity map of S5 x Z/12 (1440 elements) is checked with
    O(|G| log |G|) products, not the |G|^2 = 2073600 of every pair."""
    group = product_group([symmetric_group(5), CyclicGroup(12)])
    calls = []
    multiply = DirectProductGroup.multiply
    monkeypatch.setattr(
        DirectProductGroup, "multiply", lambda self, a, b: calls.append(1) or multiply(self, a, b)
    )
    ident = Homomorphism(group, group, element_map={g: g for g in group.elements()})
    assert ident.apply((7, 5)) == (7, 5)
    order = group.order
    assert 0 < len(calls) <= 4 * order * math.log2(order)


def test_tower_injectivity_certificate():
    from l2approx import QuotientTower

    tower = QuotientTower.zn(1, [4, 16])
    # a level separates a set iff its kernel avoids the set's differences
    small = [(k,) for k in range(-2, 3)]  # differences of {-1, 0, 1}
    assert tower.levels[0].kernel_avoids(small)  # differences stay in (-4, 4)
    wide = [(k,) for k in range(-6, 7)]  # differences of {-3, ..., 3}
    assert not tower.levels[0].kernel_avoids(wide)  # 3 - (-3) dies mod 4
    assert tower.levels[1].kernel_avoids(wide)


# ---------------------------------------------------------------------------
# table validation: Light's associativity test against the cubic loop
# ---------------------------------------------------------------------------

def _seed_validation(table):
    """Table validation as it was before Light's test, kept verbatim (only
    de-indented into a function) as the reference: Latin square, identity,
    inverses, then the cubic associativity loop."""
    n = len(table)
    rows = tuple(tuple(int(x) for x in row) for row in table)
    if any(len(row) != n for row in rows):
        raise MalformedGroup("multiplication table is not square")
    full = frozenset(range(n))
    for i, row in enumerate(rows):
        if frozenset(row) != full:
            raise MalformedGroup(f"row {i} is not a permutation")
    for j in range(n):
        if frozenset(rows[i][j] for i in range(n)) != full:
            raise MalformedGroup(f"column {j} is not a permutation")
    ident = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise MalformedGroup("table has no two-sided identity")
    inv = [None] * n
    for a in range(n):
        right = rows[a].index(ident)
        if rows[right][a] != ident:
            raise MalformedGroup(f"element {a} has no two-sided inverse")
        inv[a] = right
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise MalformedGroup(f"table is not associative at ({a},{b},{c})")
    return ident, inv


def _outcome(validate, table):
    """(kind, detail): ("ok", (identity, inverses)) or ("error", message)."""
    try:
        return "ok", validate(table)
    except MalformedGroup as exc:
        return "error", str(exc)


def _table_group(table):
    g = FiniteTableGroup(table)
    return g.identity(), list(g._inverse)


def _witness(message):
    inner = message[message.index("(") + 1 : message.index(")")]
    return tuple(int(v) for v in inner.split(","))


def _assert_same_verdict(table):
    want_kind, want = _outcome(_seed_validation, table)
    kind, got = _outcome(_table_group, table)
    assert kind == want_kind
    if kind == "ok" or not want.startswith("table is not associative"):
        assert got == want
        return
    # Light's test may report a different witness; it must be a true one
    assert got.startswith("table is not associative at (")
    x, a, y = _witness(got)
    assert table[table[x][a]][y] != table[x][table[a][y]]


def _product_table(left, right):
    """Cayley table of left x right, element (i, j) at index i * |right| + j."""
    m = len(right)
    return [
        [left[i][k] * m + right[j][l] for k in range(len(left)) for l in range(m)]
        for i in range(len(left))
        for j in range(m)
    ]


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


ORDER5_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# a loop in which 2, 3 and 4 have different left and right inverses
ONE_SIDED_INVERSES = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

GROUP_TABLES = {
    "S3": [list(r) for r in symmetric_group(3).table],
    "S4": [list(r) for r in symmetric_group(4).table],
    "Z2xZ4": _product_table(_cyclic_table(2), _cyclic_table(4)),
    "Z3xS3": _product_table(_cyclic_table(3), [list(r) for r in symmetric_group(3).table]),
}


LOOPS = {"order5_loop": ORDER5_LOOP, "one_sided_inverses": ONE_SIDED_INVERSES}


@pytest.mark.parametrize("name", sorted(GROUP_TABLES) + sorted(LOOPS))
def test_light_test_agrees_with_cubic_loop(name):
    table = LOOPS.get(name) or GROUP_TABLES[name]
    _assert_same_verdict(table)
    if name in GROUP_TABLES:
        g = FiniteTableGroup(table)
        assert g.table == tuple(tuple(r) for r in table)
    else:
        with pytest.raises(MalformedGroup):
            FiniteTableGroup(table)


def _intercalates(table, ident):
    """2x2 Latin subsquares (r1, r2, c1, c2) off the identity row and column
    whose two symbols are not the identity either."""
    n = len(table)
    out = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    x, y = table[r1][c1], table[r1][c2]
                    if (
                        table[r2][c2] == x
                        and table[r2][c1] == y
                        and ident not in (r1, r2, c1, c2, x, y)
                    ):
                        out.append((r1, r2, c1, c2))
    return out


INTERCALATES = {name: _intercalates(t, 0) for name, t in GROUP_TABLES.items()}


def _swap_intercalate(table, cells):
    r1, r2, c1, c2 = cells
    out = [list(r) for r in table]
    out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
    out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_light_test_rejects_intercalate_loops(data):
    name = data.draw(st.sampled_from(sorted(INTERCALATES)))
    cells = data.draw(st.sampled_from(INTERCALATES[name]))
    loop = _swap_intercalate(GROUP_TABLES[name], cells)
    # still a Latin square with the same identity and inverses, but no group
    kind, message = _outcome(_seed_validation, loop)
    assert kind == "error" and message.startswith("table is not associative")
    _assert_same_verdict(loop)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_table_checks_match_seed_messages(data):
    """Broken tables fail with the seed's message (or a true associativity
    witness): swapped rows, columns or cells and relabelled symbols."""
    name = data.draw(st.sampled_from(sorted(GROUP_TABLES)))
    table = [list(r) for r in GROUP_TABLES[name]]
    n = len(table)
    idx = st.integers(0, n - 1)
    kind = data.draw(st.sampled_from(["rows", "cols", "cells", "relabel", "range"]))
    i, j = data.draw(idx), data.draw(idx)
    if kind == "rows":
        table[i], table[j] = table[j], table[i]
    elif kind == "cols":
        for row in table:
            row[i], row[j] = row[j], row[i]
    elif kind == "cells":
        k = data.draw(idx)
        table[i][j], table[i][k] = table[i][k], table[i][j]
    elif kind == "relabel":
        perm = data.draw(st.permutations(range(n)))
        table = [[perm[x] for x in row] for row in table]
    else:
        table[i][j] = data.draw(st.sampled_from([-1, n, 2**70]))
    _assert_same_verdict(table)


def _relabel(table, perm):
    """The same operation with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def _loop_isotope(square, i0, j0):
    """The principal loop isotope of a Latin square: x o y is
    square[r(x)][c(y)], where r inverts x -> square[x][j0] and c inverts
    y -> square[i0][y]; its identity is square[i0][j0]."""
    n = len(square)
    r = {square[x][j0]: x for x in range(n)}
    c = {square[i0][y]: y for y in range(n)}
    return [[square[r[x]][c[y]] for y in range(n)] for x in range(n)]


def _small_group_tables():
    """Small group tables: cyclic, S3, S4 and products of two."""
    small = [_cyclic_table(n) for n in (1, 2, 3, 4, 5, 6, 8)] + [GROUP_TABLES["S3"]]
    pairs = [_product_table(a, b) for a in small[:4] for b in small[1:] if len(a) * len(b) <= 24]
    return small + [GROUP_TABLES["S4"]] + pairs


SMALL_GROUP_TABLES = _small_group_tables()
TABLE_FAMILIES = ("group", "linear", "isotope", "loop", "cell", "ragged")


def _draw_table(data, family):
    if family == "ragged":
        n = data.draw(st.integers(0, 5))
        entries = st.integers(-1, n)
        return [data.draw(st.lists(entries, min_size=0, max_size=n + 1)) for _ in range(n)]
    if family == "linear":
        # (a x + b y + c) mod n: Latin iff a and b are units, a group iff
        # a = b = 1, else at most a one-sided identity
        n = data.draw(st.integers(1, 12))
        a, b, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table = [[(a * x + b * y + c) % n for y in range(n)] for x in range(n)]
    elif family == "loop":
        # a group with one intercalate swapped, or a known loop, made a loop
        # with any identity: then inverses or associativity fail
        name = data.draw(st.sampled_from(sorted(INTERCALATES)))
        square = _swap_intercalate(GROUP_TABLES[name], data.draw(st.sampled_from(INTERCALATES[name])))
        square = data.draw(st.sampled_from([square, ORDER5_LOOP, ONE_SIDED_INVERSES]))
        corner = st.integers(0, len(square) - 1)
        table = _loop_isotope(square, data.draw(corner), data.draw(corner))
    else:
        table = [list(r) for r in data.draw(st.sampled_from(SMALL_GROUP_TABLES))]
    n = len(table)
    if family == "isotope":
        # rows and columns permuted apart: Latin, rarely with an identity
        rows, cols = data.draw(st.permutations(range(n))), data.draw(st.permutations(range(n)))
        table = [[table[rows[x]][cols[y]] for y in range(n)] for x in range(n)]
    elif family == "cell":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[i][j] = data.draw(st.sampled_from([-1, n, 2**70, table[i][(j + 1) % n]]))
        return table
    return _relabel(table, data.draw(st.permutations(range(n))))


def test_table_validation_matches_numpy_reference():
    """The pure-Python validator accepts exactly the tables the numpy one
    accepted, with the same identity and inverses, and rejects the rest
    with the same message: same first row, column, element or (x, a, y).
    The generated tables reach acceptance and every kind of rejection."""
    verdicts = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def agree(data):
        family = data.draw(st.sampled_from(TABLE_FAMILIES))
        rows = tuple(tuple(row) for row in _draw_table(data, family))
        want = _outcome(numpy_table_validation, rows)
        assert _outcome(lambda r: _validate_table.__wrapped__(r)[1:], rows) == want
        verdicts.add("ok" if want[0] == "ok" else re.sub(r"\d", "", want[1]))

    agree()
    assert verdicts == {
        "ok",
        "multiplication table is not square",
        "row  is not a permutation",
        "column  is not a permutation",
        "table has no two-sided identity",
        "element  has no two-sided inverse",
        "table is not associative at (,,)",
    }


def test_table_entries_are_integer_like():
    """numpy's integers are accepted and stored as Python ints; bool, float
    and their numpy kinds are rejected, never truncated."""
    g = FiniteTableGroup([[np.int64(0), np.int64(1)], [np.int32(1), 0]])
    assert g.table == ((0, 1), (1, 0))
    assert all(type(x) is int for row in g.table for x in row)
    for entry in (True, np.bool_(True), 1.0, np.float64(1.0)):
        with pytest.raises(MalformedGroup, match="is not an integer"):
            FiniteTableGroup([[0, entry], [1, 0]])


def test_table_read_from_json_keeps_one_int_per_value():
    """JSON gives every table entry of 257 and above its own int object;
    the validated Z/300 table and its inverses hold exactly 300, one per
    value, and the values are those read."""
    n = 300
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    obj = json.loads(json.dumps({"type": "finite_table", "table": table}))
    assert len({id(x) for row in obj["table"] for x in row}) > n
    _validate_table.cache_clear()
    g = parse_group(obj)
    assert g.table == tuple(map(tuple, table))
    assert len({id(x) for x in itertools.chain(*g.table, g._inverse)}) == n


def test_table_group_payloads_are_python_ints():
    g = FiniteTableGroup(GROUP_TABLES["Z2xZ4"])
    assert type(g.identity()) is int
    assert all(type(g.inverse(x)) is int for x in g.elements())
    assert all(type(x) is int for row in g.table for x in row)
    assert all(g.multiply(x, g.inverse(x)) == g.identity() for x in g.elements())


def test_symmetric_group_6_builds():
    g = symmetric_group(6)
    assert g.order == 720
    assert g.identity() == 0 and g.names[0] == "012345"
    # element i is the i-th permutation in lexicographic order; p*q is p after q
    perms = [tuple(int(c) for c in name) for name in g.names]
    assert perms == sorted(perms)
    rng = random.Random(SEED)
    for _ in range(200):
        a, b = rng.randrange(720), rng.randrange(720)
        p, q = perms[a], perms[b]
        assert perms[g.multiply(a, b)] == tuple(p[q[k]] for k in range(6))

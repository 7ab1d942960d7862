import copy
import json
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from l2approx import (
    CyclicGroup,
    DirectProductGroup,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    GaussianRational,
    RingElement,
    RingMatrix,
    TrivialGroup,
    product_group,
    symmetric_group,
)
from l2approx.errors import NotAComplex
from l2approx.jsonio import (
    ProblemFormatError,
    canonical_dumps,
    density_csv,
    group_to_json,
    load_json,
    parse_complex,
    parse_element,
    parse_group,
    parse_matrix,
    parse_problem,
    parse_rational,
    parse_ring_element,
    parse_scheme,
    rational_to_json,
)
from l2approx.groups import FolnerExhaustion, QuotientTower

from conftest import (
    density_of_counts,
    element_to_json,
    f2_to_s3_products,
    matrix_to_json,
    ring_element_to_json,
    ring_elements,
    ring_matrices,
)

GROUPS = [
    TrivialGroup(),
    CyclicGroup(6),
    FreeAbelianGroup(2),
    FreeGroup(2),
    symmetric_group(3),
    product_group([CyclicGroup(2), CyclicGroup(3)]),
    product_group([CyclicGroup(2), symmetric_group(3), CyclicGroup(4)]),
]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_group_roundtrip(group):
    assert parse_group(group_to_json(group)) == group


# (table, names): Z/1, Z/4 with identity 1, and S3
NAMED_TABLES = [
    (((0,),), ("e",)),
    (((3, 0, 1, 2), (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1)), ("a", "e", "b", "c")),
    (symmetric_group(3).table, symmetric_group(3).names),
]

GROUP_STRATEGY = st.recursive(
    st.one_of(
        st.just(TrivialGroup()),
        st.integers(1, 12).map(CyclicGroup),
        st.integers(0, 3).map(FreeAbelianGroup),
        st.integers(1, 3).map(FreeGroup),
        st.builds(
            lambda named, keep: FiniteTableGroup(named[0], names=named[1] if keep else None),
            st.sampled_from(NAMED_TABLES),
            st.booleans(),
        ),
    ),
    lambda inner: st.lists(inner, min_size=2, max_size=3).map(lambda fs: DirectProductGroup(tuple(fs))),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(group=GROUP_STRATEGY)
def test_group_json_roundtrip_property(group):
    """parse_group inverts group_to_json through JSON text, for every group
    family, finite tables with and without names, and nested products."""
    obj = group_to_json(group)
    back = parse_group(json.loads(json.dumps(obj)))
    assert back == group
    # FiniteTableGroup equality ignores names: compare the JSON too
    assert group_to_json(back) == obj


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_element_roundtrip(group):
    import random

    from conftest import random_group_element

    rng = random.Random(99)
    for _ in range(20):
        g = random_group_element(group, rng)
        assert parse_element(group, element_to_json(group, g)) == g


def test_product_element_is_one_entry_per_factor():
    group = product_group([CyclicGroup(2), symmetric_group(3), CyclicGroup(4)])
    assert str(group) == "(Z/2 x table group of order 6 x Z/4)"
    assert parse_element(group, [1, 5, 3]) == (1, 5, 3)
    assert element_to_json(group, (1, 5, 3)) == [1, 5, 3]
    with pytest.raises(ProblemFormatError):
        parse_element(group, [[1, 5], 3])
    # a product factor that is itself a product keeps its nested entry
    nested = product_group([product_group([CyclicGroup(2), CyclicGroup(3)]), CyclicGroup(4)])
    assert parse_group(group_to_json(nested)) == nested
    assert parse_element(nested, [[1, 2], 3]) == ((1, 2), 3)
    assert element_to_json(nested, ((1, 2), 3)) == [[1, 2], 3]


def test_rational_parsing():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("2/7") == Fraction(2, 7)
    assert parse_rational("-5") == Fraction(-5)
    with pytest.raises(ProblemFormatError):
        parse_rational(0.5)
    with pytest.raises(ProblemFormatError):
        parse_rational(True)
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_to_json(Fraction(1, 3)) == "1/3"


@pytest.mark.parametrize("text", ["1e3", "2E-1", "-1.5e2", "1e100000000"])
def test_exponent_strings_are_not_rationals(text):
    """Fraction would build 10^e exactly, so "1e100000000" would stall:
    every string with an exponent is refused at once."""
    with pytest.raises(ProblemFormatError, match="exponent"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["0.1", "1_000", " 3 ", "3\n", "\u0663", "\u0661/\u0662", "+-1", "1/+2", "/2", "1/"])
def test_rational_strings_are_ascii_integers_or_fractions(text):
    """Only [+-]?[0-9]+(/[0-9]+)? is a rational string: decimals, digit
    separators, padding and non-ASCII digits, which Fraction would take,
    are refused."""
    with pytest.raises(ProblemFormatError, match="is not a rational"):
        parse_rational(text)
    assert parse_rational("+12/34") == Fraction(6, 17) and parse_rational("-007") == -7


def test_ring_element_roundtrip():
    z = FreeAbelianGroup(1)
    x = RingElement(
        z,
        {
            (0,): GaussianRational.of(Fraction(3, 2)),
            (2,): GaussianRational.of(-1, Fraction(1, 3)),
        },
    )
    assert parse_ring_element(z, ring_element_to_json(x)) == x
    # colliding words accumulate
    doubled = parse_ring_element(
        z, [{"word": [1], "re": 1}, {"word": [1], "re": 2}]
    )
    assert doubled == RingElement.delta(z, (1,), 3)


def test_matrix_roundtrip(z_laplacian):
    blob = matrix_to_json(z_laplacian)
    assert blob["rows"] == 1 and blob["cols"] == 1
    assert parse_matrix(z_laplacian.group, blob) == z_laplacian
    with pytest.raises(ProblemFormatError):
        parse_matrix(z_laplacian.group, {"rows": 2, "cols": 1, "entries": blob["entries"]})


# Z^n, F2, S3 and finite products
ROUND_TRIP_GROUPS = [
    FreeAbelianGroup(0),
    FreeAbelianGroup(1),
    FreeAbelianGroup(2),
    FreeGroup(2),
    symmetric_group(3),
    product_group([CyclicGroup(2), symmetric_group(3), CyclicGroup(3)]),
] + [q.target for q in f2_to_s3_products()]


def _through_text(obj):
    return json.loads(json.dumps(obj))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_ring_element_and_matrix_json_roundtrip_property(data):
    """parse_ring_element and parse_matrix invert the test writers through
    JSON text, for every shape up to 2 x 2, those with no rows or no
    columns included."""
    group = data.draw(st.sampled_from(ROUND_TRIP_GROUPS), label="group")
    x = data.draw(ring_elements(group), label="x")
    assert parse_ring_element(group, _through_text(ring_element_to_json(x))) == x
    rows, cols = data.draw(st.integers(0, 2), label="rows"), data.draw(st.integers(0, 2), label="cols")
    m = data.draw(ring_matrices(group, rows, cols), label="m")
    back = parse_matrix(group, _through_text(matrix_to_json(m)))
    assert back == m and back.shape == (rows, cols)


@st.composite
def _towers(draw):
    """(group, tower scheme JSON, its labels): a tower of moduli over Z or
    Z^2, or of maps F2 -> S3 x Z/k with labels given or left to default."""
    if draw(st.booleans()):
        group = FreeAbelianGroup(draw(st.integers(1, 2)))
        levels = draw(st.lists(st.integers(1, 16), min_size=1, max_size=3, unique=True))
        return group, {"type": "tower", "levels": levels}, levels
    homs = draw(st.lists(st.sampled_from(f2_to_s3_products()), min_size=1, max_size=3))
    maps = [
        {"target": group_to_json(q.target), "images": [element_to_json(q.target, g) for g in q.generator_images]}
        for q in homs
    ]
    scheme = {"type": "tower", "maps": maps}
    labels = list(range(len(homs)))
    if draw(st.booleans()):
        labels = scheme["labels"] = draw(
            st.lists(st.integers(0, 99), min_size=len(homs), max_size=len(homs), unique=True)
        )
    return FreeGroup(2), scheme, labels


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_problem_json_roundtrip_property(data):
    """A problem file of an elementary matrix [[1, x], [0, 1]], its inverse
    and a tower scheme, written by the test writers, parses back to an
    equal group, matrix and inverse and to the same scheme labels."""
    group, scheme, labels = data.draw(_towers(), label="tower")
    x = data.draw(ring_elements(group), label="x")
    one, zero = RingElement.one(group), RingElement.zero(group)
    a = RingMatrix(group, [[one, x], [zero, one]])
    b = RingMatrix(group, [[one, -x], [zero, one]])
    problem = parse_problem(_through_text({
        "group": group_to_json(group),
        "matrix": matrix_to_json(a),
        "inverse": matrix_to_json(b),
        "scheme": scheme,
    }))
    assert problem.group == group
    assert problem.matrix == a and problem.inverse == b
    assert problem.matrix @ problem.inverse == RingMatrix.identity(group, 2)
    assert isinstance(problem.scheme, QuotientTower) and problem.scheme.labels == labels


def test_parse_scheme_variants():
    z2 = FreeAbelianGroup(2)
    tower = parse_scheme(z2, {"type": "tower", "levels": [4, 8]})
    assert isinstance(tower, QuotientTower)
    assert tower.labels == [4, 8]
    assert tower.levels[0].target.order == 16
    folner = parse_scheme(FreeAbelianGroup(1), {"type": "folner", "boxes": [2, 4]})
    assert isinstance(folner, FolnerExhaustion)
    with pytest.raises(ProblemFormatError):
        parse_scheme(z2, {"type": "mystery"})
    with pytest.raises(ProblemFormatError):
        parse_scheme(symmetric_group(3), {"type": "tower", "levels": [2]})


def test_parse_scheme_explicit_maps(s3):
    blob = {
        "type": "tower",
        "maps": [
            {
                "target": group_to_json(s3),
                "images": [1, 4],
            }
        ],
    }
    tower = parse_scheme(FreeGroup(2), blob)
    assert tower.levels[0].target == s3


def test_parse_problem_requires_fields():
    with pytest.raises(ProblemFormatError):
        parse_problem({"matrix": {}})
    problem = parse_problem(
        {
            "group": {"type": "free_abelian", "rank": 1},
            "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
            "oracle": {"grid": 64},
            "lambda_grid": [0, 1.5],
            "checks": ["sintapr"],
        }
    )
    assert problem.oracle_grid == 64
    assert problem.lambda_grid == [0.0, 1.5]
    assert problem.checks == ["sintapr"]


def test_parse_embedding_from_element_map():
    problem = parse_problem(
        {
            "group": {"type": "cyclic", "n": 2},
            "matrix": {"entries": [[[{"word": 0, "re": 1}]]]},
            "embedding": {"target": {"type": "cyclic", "n": 4}, "element_map": [[0, 0], [1, 2]]},
        }
    )
    phi = problem.embedding
    assert [phi(g) for g in (0, 1)] == [0, 2]


def test_canonical_dumps_is_deterministic_and_fixed_precision():
    obj = {"b": 1 / 3, "a": [1, 2.5, None, True], "c": {"nested": 0.1234567890123456}}
    text = canonical_dumps(obj)
    assert text == canonical_dumps(obj)
    parsed = json.loads(text)
    assert parsed["b"] == pytest.approx(1 / 3, abs=1e-12)
    assert "0.123456789012" in text  # 12 significant digits
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert canonical_dumps(Fraction(1, 3)) == '"1/3"'
    with pytest.raises(ValueError):
        canonical_dumps(float("nan"))


def test_density_csv_format():
    f = density_of_counts([0.0, 2.0, 4.0], [1, 2, 1], 4)
    text = density_csv(f)
    assert text.splitlines() == ["lambda,F", "0,0.25", "2,0.75", "4,1"]


FIXTURE_JSON = {
    path.name: load_json(str(path))
    for path in (resources.files("l2approx") / "fixtures").iterdir()
    if path.name.endswith(".json")
}
# values of every JSON type, and strings that are not rationals; ints stay
# small so that no mutated group, tower or box is costly to build
SWAPS = [None, True, False, -1, 0, 2, 0.5, float("nan"), float("inf"), "abc", "", "nan", "1/0",
         "1/-2", "1.5.2", "9" * 5000, [], [0], {}, {"word": [0]}]


def _paths(node, path=()):
    """Every key or index path into a JSON tree, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(obj, rng: random.Random):
    """Drop a key or list item, or swap a value for one of SWAPS, one to
    three times; the root may be swapped too."""
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(obj)))
        swap = copy.deepcopy(rng.choice(SWAPS))
        if not path:
            obj = swap
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.5:
            del parent[path[-1]]
        else:
            parent[path[-1]] = swap
    return obj


@settings(derandomize=True, max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mutated_fixtures_raise_only_input_errors(seed):
    """Each bundled fixture, mutated, parses or raises ProblemFormatError; a
    complex may also fail its exact check, NotAComplex (exit 3).  Any other
    exception would be a traceback or a wrong exit code."""
    rng = random.Random(seed)
    for name, fixture in sorted(FIXTURE_JSON.items()):
        obj = _mutate(copy.deepcopy(fixture), rng)
        note(f"{name}: {obj!r}")
        try:
            (parse_complex if "cells" in fixture else parse_problem)(obj)
        except ProblemFormatError:
            pass
        except NotAComplex:
            assert "cells" in fixture

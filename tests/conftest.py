import random
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest
from hypothesis import strategies as st

from l2approx import (
    CyclicGroup,
    DirectProductGroup,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    GaussianRational,
    Group,
    Homomorphism,
    RingElement,
    RingMatrix,
    TrivialGroup,
    positive_square,
    product_group,
    symmetric_group,
    trace,
)
from l2approx import oracles
from l2approx.jsonio import ProblemFormatError, load_json, parse_complex, rational_to_json
from l2approx.spectral import EigenResult, SpectralDensity

SEED = 617


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def z_group():
    return FreeAbelianGroup(1)


@pytest.fixture(scope="session")
def z_laplacian(z_group):
    """The 1x1 matrix 2 - t - t^-1 over Z (the circle Laplacian)."""
    t = RingElement.delta(z_group, (1,))
    return RingMatrix.from_element(2 - t - t.star())


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


def random_element(group, rng, cmax=3):
    """A random ring element with small integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[random_group_element(group, rng)] = rng.randint(-cmax, cmax)
    return RingElement(group, terms)


def random_group_element(group, rng):
    if isinstance(group, TrivialGroup):
        return ()
    if isinstance(group, CyclicGroup):
        return rng.randrange(group.n)
    if isinstance(group, FreeAbelianGroup):
        return tuple(rng.randint(-4, 4) for _ in range(group.rank))
    if isinstance(group, FreeGroup):
        word = []
        for _ in range(rng.randint(0, 4)):
            g = rng.randint(1, group.rank)
            word.append(g if rng.random() < 0.5 else -g)
        return group.multiply((), tuple(w for w in word if w))  # reduces
    # finite table or product
    elems = group.elements()
    return elems[rng.randrange(len(elems))]


def random_self_adjoint(group, rng, d=1):
    rows = [[random_element(group, rng) for _ in range(d)] for _ in range(d)]
    return positive_square(RingMatrix(group, rows))


def record_torus_slabs(monkeypatch) -> list:
    """Record the (grid, first row, end row) of every torus slab solved
    from now on (``oracles._torus_slab``), in order."""
    slabs = []
    solve = oracles._torus_slab

    def recorded(delta, m, rows):
        slabs.append((m, rows.start, min(rows.stop, m)))
        return solve(delta, m, rows)

    monkeypatch.setattr(oracles, "_torus_slab", recorded)
    return slabs


def f2_to_s3_products() -> list:
    """Homomorphisms F2 -> S3 x Z/k, k = 1, 4, 6, by generator images: a
    transposition and a 3-cycle of S3, each with a shift in Z/k."""
    s3 = symmetric_group(3)
    return [
        Homomorphism(
            FreeGroup(2), product_group([s3, CyclicGroup(k)]), generator_images=[(1, 1 % k), (3, k - 1)]
        )
        for k in (1, 4, 6)
    ]


def density_of_counts(positions, counts, denom: int) -> SpectralDensity:
    """The density with jumps at ``positions`` of the given integer counts."""
    cumulative = np.concatenate(([0], np.cumsum(np.asarray(counts, dtype=np.int64))))
    return SpectralDensity(np.asarray(positions, dtype=np.float64), cumulative, denom)


def at_threshold(eig: EigenResult, threshold: float) -> EigenResult:
    """The spectrum of ``eig`` cut at another kernel threshold, its array shared."""
    return EigenResult(eig.eigenvalues, eig.denom, threshold)


def fixture_complex(name):
    """A chain complex bundled as fixtures/<name>.json (circle, torus, point)."""
    return parse_complex(load_json(str(resources.files("l2approx") / "fixtures" / f"{name}.json")))


def trace_power_exact(delta, m) -> float:
    """tr(Delta^m) as a float, from the exact trace of the exact power; the
    imaginary part must vanish."""
    power = RingMatrix.identity(delta.group, delta.rows)
    for _ in range(m):
        power = power @ delta
    t = trace(power)
    if t.im != 0:
        raise ArithmeticError(f"trace has nonzero imaginary part {t.im}")
    return float(t.re)


# JSON writers for the round-trip tests; the library only reads problems

def element_to_json(group: Group, payload):
    if isinstance(group, TrivialGroup):
        return []
    if isinstance(group, (CyclicGroup, FiniteTableGroup)):
        return payload
    if isinstance(group, (FreeAbelianGroup, FreeGroup)):
        return list(payload)
    if isinstance(group, DirectProductGroup):
        return [element_to_json(f, x) for f, x in zip(group.factors, payload)]
    raise ProblemFormatError(f"cannot serialize elements of {group}")


def ring_element_to_json(x: RingElement):
    out = []
    for g, c in sorted(x.terms.items(), key=lambda kv: repr(kv[0])):
        term = {"word": element_to_json(x.group, g), "re": rational_to_json(c.re)}
        if c.im != 0:
            term["im"] = rational_to_json(c.im)
        out.append(term)
    return out


def matrix_to_json(m: RingMatrix):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[ring_element_to_json(e) for e in row] for row in m.entries],
    }


# Hypothesis strategies for ring elements and matrices over a given group,
# built once per group: a strategy validates itself on first use

# integers, a fraction and Gaussian rationals: one draw per coefficient
_COEFFICIENTS = st.sampled_from(
    [GaussianRational.of(c) for c in (1, -1, 2, -3, Fraction(3, 2))]
    + [GaussianRational.of(0, 1), GaussianRational.of(Fraction(1, 2), Fraction(-1, 3))]
)


@lru_cache(maxsize=None)
def group_elements(group: Group):
    """Elements of Z^n, F_n (reduced words of up to four letters) or a
    finite group (any element)."""
    if isinstance(group, FreeAbelianGroup):
        return st.tuples(*[st.integers(-3, 3)] * group.rank)
    if isinstance(group, FreeGroup):
        letters = [s for k in range(1, group.rank + 1) for s in (k, -k)]
        return st.lists(st.sampled_from(letters), max_size=4).map(lambda w: group.multiply((), tuple(w)))
    return st.sampled_from(group.elements())


@lru_cache(maxsize=None)
def ring_elements(group: Group):
    """Elements of the group ring with up to four terms (zero included) and
    integer, rational or Gaussian rational coefficients."""
    return st.dictionaries(group_elements(group), _COEFFICIENTS, max_size=4).map(
        lambda terms: RingElement(group, terms)
    )


@lru_cache(maxsize=None)
def ring_matrices(group: Group, rows: int, cols: int):
    """rows x cols matrices over the group ring; a matrix with no rows keeps
    its column count."""
    row = st.lists(ring_elements(group), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(lambda entries: RingMatrix(group, entries, cols))

"""Concrete discrete groups with canonical element forms and homomorphisms.

Elements are plain hashable payloads whose shape depends on the group:

* trivial group      -- the empty tuple ``()``
* cyclic of order n  -- an int in ``[0, n)``
* free abelian       -- a tuple of ints, one per generator
* free               -- a reduced word: tuple of nonzero signed generator
                        indices (``2`` for the second generator, ``-2`` for
                        its inverse), no adjacent cancelling pair
* finite table       -- an int index into the multiplication table
* direct product     -- a pair ``(left_payload, right_payload)``

Two elements are equal iff their payloads are identical, so payloads can be
used directly as dict keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InfiniteGroup,
    MalformedGroup,
    MismatchedGroup,
    UndefinedGenerator,
)


class Group:
    """Common interface for the supported group families."""

    def contains(self, g) -> bool:
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    @property
    def order(self) -> int:
        raise InfiniteGroup(f"{self} is infinite")

    def elements(self) -> list:
        """All elements, identity first, in a deterministic order."""
        raise InfiniteGroup(f"{self} is infinite")

    def generators(self) -> list:
        """Generating set matching the payload convention, where defined."""
        raise UndefinedGenerator(f"{self} has no distinguished generators")

    def check(self, g):
        if not self.contains(g):
            raise MismatchedGroup(f"payload {g!r} is not an element of {self}")
        return g

    def power(self, g, k: int):
        """g**k by repeated squaring; negative k uses the inverse."""
        if k < 0:
            g, k = self.inverse(g), -k
        result = self.identity()
        while k:
            if k & 1:
                result = self.multiply(result, g)
            g = self.multiply(g, g)
            k >>= 1
        return result

    def commutes(self, g, h) -> bool:
        return self.multiply(g, h) == self.multiply(h, g)

    def cyclic_factors(self) -> Optional[list]:
        """Orders [n1, ..., nr] if this group is a product of cyclic groups
        (trivial factors allowed), else None.  Enables the character-basis
        spectral fast path."""
        return None

    def exponents(self, g) -> tuple:
        """Exponent tuple of g w.r.t. cyclic_factors(); only defined when
        cyclic_factors() is not None."""
        raise NotImplementedError


@dataclass(frozen=True)
class TrivialGroup(Group):
    def contains(self, g):
        return g == ()

    def identity(self):
        return ()

    def multiply(self, g, h):
        return ()

    def inverse(self, g):
        return ()

    @property
    def is_finite(self):
        return True

    @property
    def order(self):
        return 1

    def elements(self):
        return [()]

    def generators(self):
        return []

    def cyclic_factors(self):
        return []

    def exponents(self, g):
        return ()

    def __str__(self):
        return "1"


@dataclass(frozen=True)
class CyclicGroup(Group):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise MalformedGroup(f"cyclic order must be >= 1, got {self.n}")

    def contains(self, g):
        return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < self.n

    def identity(self):
        return 0

    def multiply(self, g, h):
        return (g + h) % self.n

    def inverse(self, g):
        return (-g) % self.n

    def power(self, g, k):
        return (g * k) % self.n

    @property
    def is_finite(self):
        return True

    @property
    def order(self):
        return self.n

    def elements(self):
        return list(range(self.n))

    def generators(self):
        return [1 % self.n]

    def cyclic_factors(self):
        return [self.n]

    def exponents(self, g):
        return (g,)

    def __str__(self):
        return f"Z/{self.n}"


@dataclass(frozen=True)
class FreeAbelianGroup(Group):
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise MalformedGroup(f"rank must be >= 0, got {self.rank}")

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == self.rank
            and all(isinstance(x, int) and not isinstance(x, bool) for x in g)
        )

    def identity(self):
        return (0,) * self.rank

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def power(self, g, k):
        return tuple(a * k for a in g)

    @property
    def is_finite(self):
        return self.rank == 0

    @property
    def order(self):
        if self.rank == 0:
            return 1
        raise InfiniteGroup(f"{self} is infinite")

    def elements(self):
        if self.rank == 0:
            return [()]
        raise InfiniteGroup(f"{self} is infinite")

    def generators(self):
        return [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]

    def __str__(self):
        return f"Z^{self.rank}"


def reduce_word(letters: Iterable[int]) -> tuple:
    """Freely reduce a word given as signed generator indices."""
    stack: list = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@dataclass(frozen=True)
class FreeGroup(Group):
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise MalformedGroup(f"free rank must be >= 1, got {self.rank}")

    def contains(self, g):
        if not isinstance(g, tuple):
            return False
        for i, x in enumerate(g):
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                return False
            if i and g[i - 1] == -x:
                return False  # not reduced
        return True

    def identity(self):
        return ()

    def multiply(self, g, h):
        return reduce_word(list(g) + list(h))

    def inverse(self, g):
        return tuple(-x for x in reversed(g))

    @property
    def is_finite(self):
        return False

    def generators(self):
        return [(i,) for i in range(1, self.rank + 1)]

    def __str__(self):
        return f"F_{self.rank}"


def _light_associativity(t: np.ndarray, ident: int) -> None:
    """Light's associativity test on a Latin square t with identity ident.

    The elements a with (x a) y == x (a y) for all x, y are closed under
    multiplication, so checking a generating set suffices.  Raises
    MalformedGroup with a witness (x, a, y) on failure.
    """
    n = len(t)
    inside = np.zeros(n, dtype=bool)
    inside[ident] = True
    members = np.array([ident])
    while not inside.all():
        a = int(np.argmin(inside))
        bad = np.argwhere(t[t[:, a]] != t[:, t[a]])
        if len(bad):
            x, y = bad[0].tolist()
            raise MalformedGroup(f"table is not associative at ({x},{a},{y})")
        # close members + {a} under multiplication, one frontier at a time
        frontier = np.array([a])
        inside[a] = True
        while len(frontier):
            members = np.concatenate((members, frontier))
            products = np.concatenate(
                (t[np.ix_(frontier, members)].ravel(), t[np.ix_(members, frontier)].ravel())
            )
            frontier = np.unique(products[~inside[products]])
            inside[frontier] = True


def _table_rows(table) -> tuple:
    """The rows of a table as tuples of Python ints; an entry that is not an
    integer (bool and float included) is rejected, never truncated."""
    rows = tuple(tuple(row) for row in table)
    odd = [x for row in rows for x in row if type(x) is not int]
    for x in odd:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise MalformedGroup(f"table entry {x!r} is not an integer")
    return tuple(tuple(map(int, row)) for row in rows) if odd else rows


class FiniteTableGroup(Group):
    """Finite group given by a full multiplication table over indices 0..n-1.

    The table is validated at construction: Latin square, two-sided identity,
    two-sided inverses, and associativity (fail fast on malformed input);
    entries must be integers (bool and float are rejected, not truncated).
    Associativity is Light's test: if (x a) y == x (a y) for every x, y and
    every a in a generating set, the operation is associative.  Generators
    are chosen greedily, each the smallest element outside the sub-table
    the previous ones generate; a proper sub-table of a Latin square has at
    most half its order, so at most log2(n) generators are checked and the
    whole validation is O(n^2 log n).
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None):
        n = len(table)
        rows = _table_rows(table)
        if any(len(row) != n for row in rows):
            raise MalformedGroup("multiplication table is not square")
        try:
            t = np.array(rows, dtype=np.int64).reshape(n, n)
        except OverflowError:
            # beyond int64 is out of range anyway; -1 keeps such entries out
            t = np.array([[x if 0 <= x < n else -1 for x in row] for row in rows])
        full = np.arange(n)
        bad = np.flatnonzero((np.sort(t, axis=1) != full).any(axis=1))
        if len(bad):
            raise MalformedGroup(f"row {bad[0]} is not a permutation")
        bad = np.flatnonzero((np.sort(t, axis=0) != full[:, None]).any(axis=0))
        if len(bad):
            raise MalformedGroup(f"column {bad[0]} is not a permutation")
        two_sided = (t == full).all(axis=1) & (t == full[:, None]).all(axis=0)
        if not two_sided.any():
            raise MalformedGroup("table has no two-sided identity")
        ident = int(np.argmax(two_sided))
        inv = np.argmax(t == ident, axis=1)
        bad = np.flatnonzero(t[inv, full] != ident)
        if len(bad):
            raise MalformedGroup(f"element {bad[0]} has no two-sided inverse")
        _light_associativity(t, ident)
        if names is not None and len(names) != n:
            raise MalformedGroup("names length does not match table order")
        self.table = rows
        self.names = tuple(names) if names is not None else None
        self._identity = ident
        self._inverse = tuple(inv.tolist())

    def contains(self, g):
        return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < len(self.table)

    def identity(self):
        return self._identity

    def multiply(self, g, h):
        return self.table[g][h]

    def inverse(self, g):
        return self._inverse[g]

    @property
    def is_finite(self):
        return True

    @property
    def order(self):
        return len(self.table)

    def elements(self):
        e = self._identity
        return [e] + [x for x in range(len(self.table)) if x != e]

    def __eq__(self, other):
        return isinstance(other, FiniteTableGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __str__(self):
        return f"table group of order {len(self.table)}"


@dataclass(frozen=True)
class DirectProductGroup(Group):
    left: Group
    right: Group

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and self.left.contains(g[0])
            and self.right.contains(g[1])
        )

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def multiply(self, g, h):
        return (self.left.multiply(g[0], h[0]), self.right.multiply(g[1], h[1]))

    def inverse(self, g):
        return (self.left.inverse(g[0]), self.right.inverse(g[1]))

    @property
    def is_finite(self):
        return self.left.is_finite and self.right.is_finite

    @property
    def order(self):
        return self.left.order * self.right.order

    def elements(self):
        return [(a, b) for a in self.left.elements() for b in self.right.elements()]

    def cyclic_factors(self):
        lf = self.left.cyclic_factors()
        rf = self.right.cyclic_factors()
        if lf is None or rf is None:
            return None
        return lf + rf

    def exponents(self, g):
        return self.left.exponents(g[0]) + self.right.exponents(g[1])

    def __str__(self):
        return f"({self.left} x {self.right})"


def product_group(factors: Sequence[Group]) -> Group:
    """Left-fold a list of groups into nested binary direct products."""
    if not factors:
        return TrivialGroup()
    g = factors[0]
    for f in factors[1:]:
        g = DirectProductGroup(g, f)
    return g


def symmetric_group(n: int) -> FiniteTableGroup:
    """S_n as a table group; element i is the i-th permutation of range(n)
    in lexicographic order (so the identity is element 0)."""
    perms = sorted(itertools.permutations(range(n)))
    a = np.array(perms, dtype=np.int64).reshape(len(perms), n)
    # a permutation read as a base-n numeral ranks it lexicographically
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # product p*q is k -> p[q[k]]
    products = a[:, a] @ weights
    table = np.searchsorted(a @ weights, products).tolist()
    names = ["".join(str(x) for x in p) for p in perms]
    return FiniteTableGroup(table, names=names)


class Homomorphism:
    """Group homomorphism given by generator images or a full element map.

    Generator images are supported for trivial, cyclic, free-abelian and free
    sources; any finite source may instead supply ``element_map``.  Defining
    relations (cyclic order, commutativity of free-abelian generator images,
    multiplicativity of element maps) are verified at construction.
    """

    def __init__(self, source: Group, target: Group, generator_images=None, element_map=None):
        self.source = source
        self.target = target
        self.generator_images = None
        self.element_map = None
        if element_map is not None:
            if not source.is_finite:
                raise UndefinedGenerator("element maps require a finite source group")
            emap = dict(element_map)
            for g in source.elements():
                if g not in emap:
                    raise UndefinedGenerator(f"element {g!r} lacks an image")
                target.check(emap[g])
            if emap[source.identity()] != target.identity():
                raise MalformedGroup("element map does not send identity to identity")
            for a in source.elements():
                for b in source.elements():
                    lhs = emap[source.multiply(a, b)]
                    rhs = target.multiply(emap[a], emap[b])
                    if lhs != rhs:
                        raise MalformedGroup(f"element map is not multiplicative at ({a!r},{b!r})")
            self.element_map = emap
            return
        if generator_images is None:
            raise UndefinedGenerator("need generator_images or element_map")
        images = [target.check(im) for im in generator_images]
        gens = source.generators()
        if len(images) != len(gens):
            raise UndefinedGenerator(
                f"{len(gens)} generators but {len(images)} images supplied"
            )
        if isinstance(source, CyclicGroup) and images:
            if target.power(images[0], source.n) != target.identity():
                raise MalformedGroup(
                    f"image of the cyclic generator has order not dividing {source.n}"
                )
        if isinstance(source, FreeAbelianGroup):
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    if not target.commutes(images[i], images[j]):
                        raise MalformedGroup(
                            f"images of commuting generators {i} and {j} do not commute"
                        )
        self.generator_images = tuple(images)

    def apply(self, g):
        src, tgt = self.source, self.target
        src.check(g)
        if self.element_map is not None:
            return self.element_map[g]
        if isinstance(src, TrivialGroup):
            return tgt.identity()
        if isinstance(src, CyclicGroup):
            return tgt.power(self.generator_images[0], g)
        if isinstance(src, FreeAbelianGroup):
            out = tgt.identity()
            for img, e in zip(self.generator_images, g):
                if e:
                    out = tgt.multiply(out, tgt.power(img, e))
            return out
        if isinstance(src, FreeGroup):
            out = tgt.identity()
            for x in g:
                img = self.generator_images[abs(x) - 1]
                if x < 0:
                    img = tgt.inverse(img)
                out = tgt.multiply(out, img)
            return out
        raise UndefinedGenerator(f"no generator convention for source {src}")

    def __call__(self, g):
        return self.apply(g)

    def kernel_avoids(self, elements) -> bool:
        """True if no non-identity element of the list maps to the identity."""
        e_src = self.source.identity()
        e_tgt = self.target.identity()
        return all(g == e_src or self.apply(g) != e_tgt for g in elements)

    def injective_on(self, elements) -> bool:
        """True if the map separates every pair from the list (checked on
        the difference set S * S^-1)."""
        elts = list(elements)
        diffs = {
            self.source.multiply(a, self.source.inverse(b)) for a in elts for b in elts
        }
        return self.kernel_avoids(diffs)

    def __str__(self):
        return f"hom {self.source} -> {self.target}"


def cyclic_quotient(n: int) -> Homomorphism:
    """The reduction Z -> Z/n sending the generator to 1."""
    return Homomorphism(FreeAbelianGroup(1), CyclicGroup(n), generator_images=[1 % n])


def free_abelian_quotient(rank: int, moduli) -> Homomorphism:
    """Z^rank -> Z/N1 x ... x Z/Nr, generator k modulo moduli[k].

    A single int is broadcast to every coordinate.
    """
    if isinstance(moduli, int):
        moduli = [moduli] * rank
    moduli = list(moduli)
    if len(moduli) != rank:
        raise UndefinedGenerator(f"need {rank} moduli, got {len(moduli)}")
    target = product_group([CyclicGroup(n) for n in moduli])
    source = FreeAbelianGroup(rank)
    images = []
    for k in range(rank):
        img = target.identity()
        img = _set_coordinate(target, img, k, moduli[k])
        images.append(img)
    return Homomorphism(source, target, generator_images=images)


def _set_coordinate(group: Group, payload, index: int, modulus: int):
    """Replace coordinate `index` of a nested cyclic-product payload by 1."""
    if isinstance(group, CyclicGroup):
        if index != 0:
            raise IndexError(index)
        return 1 % modulus
    if isinstance(group, TrivialGroup):
        raise IndexError(index)
    assert isinstance(group, DirectProductGroup)
    nleft = len(group.left.cyclic_factors())
    if index < nleft:
        return (_set_coordinate(group.left, payload[0], index, modulus), payload[1])
    return (payload[0], _set_coordinate(group.right, payload[1], index - nleft, modulus))

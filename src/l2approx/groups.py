"""Concrete discrete groups with canonical element forms and homomorphisms.

Elements are plain hashable payloads whose shape depends on the group:

* trivial group      -- the empty tuple ``()``
* cyclic of order n  -- an int in ``[0, n)``
* free abelian       -- a tuple of ints, one per generator
* free               -- a reduced word: tuple of nonzero signed generator
                        indices (``2`` for the second generator, ``-2`` for
                        its inverse), no adjacent cancelling pair
* finite table       -- an int index into the multiplication table
* direct product     -- a tuple with one payload per factor

Two elements are equal iff their payloads are identical, so payloads can be
used directly as dict keys.

The approximation schemes are described here too, as groups and maps: a
quotient tower is a list of surjections onto finite groups, a Folner
exhaustion a list of boxes in Z^n.  Running them is ``schemes``' work.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import (
    InfiniteGroup,
    MalformedGroup,
    MismatchedGroup,
    SchemeError,
    UndefinedGenerator,
    WrongGroup,
    shown,
)


class Group:
    """Common interface for the supported group families.  Groups are treated
    as immutable; assigning to a field is not prevented."""

    _fields: tuple = ()  # equal to a group of its class with equal fields; hash and repr read them

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown_fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown_fields})"

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
            raise MismatchedGroup(f"payload {shown(g)} is not an element of {self}")
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

    def __str__(self):
        return "1"


class CyclicGroup(Group):
    _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise MalformedGroup(f"cyclic order must be >= 1, got {n}")
        self.n = n

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

    def __str__(self):
        return f"Z/{self.n}"


class FreeAbelianGroup(Group):
    _fields = ("rank",)

    def __init__(self, rank: int):
        if rank < 0:
            raise MalformedGroup(f"rank must be >= 0, got {rank}")
        self.rank = rank

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


class FreeGroup(Group):
    _fields = ("rank",)

    def __init__(self, rank: int):
        if rank < 1:
            raise MalformedGroup(f"free rank must be >= 1, got {rank}")
        self.rank = rank

    def contains(self, g):
        if not isinstance(g, tuple):
            return False
        for i, x in enumerate(g):
            if not isinstance(x, int) or isinstance(x, bool) or x == 0 or abs(x) > self.rank:
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


def _table_rows(table) -> tuple:
    """The rows of a table as tuples of Python ints; an entry that is not
    integer-like (``operator.index``; bool and float included) is rejected,
    never truncated."""
    rows = tuple(map(tuple, table))
    if all(set(map(type, row)) <= {int} for row in rows):  # each row's types, in C
        return rows
    return tuple(tuple(map(_table_entry, row)) for row in rows)


def _table_entry(x) -> int:
    """An integer-like entry (numpy's integers included) as a Python int."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise MalformedGroup(f"table entry {shown(x)} is not an integer")


@lru_cache(maxsize=4)
def _validate_table(rows: tuple) -> tuple:
    """(rows, identity, inverses) of the group whose multiplication table is
    ``rows``, or MalformedGroup naming the first defect: square, rows and
    columns permutations, a two-sided identity, two-sided inverses, and
    Light's associativity test.  The rows returned hold the same values as
    those given, each value one int object, ``range(n)``'s own: a table read
    from JSON has a separate object for every entry of 257 and above.
    Memoised, so a problem that repeats one table validates it once."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise MalformedGroup("multiplication table is not square")
    full = list(range(n))
    for i, row in enumerate(rows):
        if sorted(row) != full:
            raise MalformedGroup(f"row {i} is not a permutation")
    if n > 1:  # itemgetter of one index returns a bare value, not a tuple
        rows = tuple(operator.itemgetter(*row)(full) for row in rows)
    for j, column in enumerate(zip(*rows)):
        if sorted(column) != full:
            raise MalformedGroup(f"column {j} is not a permutation")
    # in a Latin square at most one row is the identity row
    identity_row = tuple(full)
    ident = next((e for e, row in enumerate(rows) if row == identity_row), None)
    if ident is None or any(row[ident] != x for x, row in enumerate(rows)):
        raise MalformedGroup("table has no two-sided identity")
    inverses = tuple(full[row.index(ident)] for row in rows)
    for x, y in enumerate(inverses):
        if rows[y][x] != ident:
            raise MalformedGroup(f"element {x} has no two-sided inverse")
    elements = [ident] + [x for x in range(n) if x != ident]
    for a in _greedy_generators(elements, lambda x, s: rows[x][s]):
        # x (a y) for every y, gathered from row x at row a, against row x a,
        # which is (x a) y for every y: both the gather and the compare run in C
        times_a = operator.itemgetter(*rows[a])
        for x, row in enumerate(rows):
            left = rows[row[a]]
            if times_a(row) != left:
                y = next(y for y, z in enumerate(rows[a]) if row[z] != left[y])
                raise MalformedGroup(f"table is not associative at ({x},{a},{y})")
    return rows, ident, inverses


class FiniteTableGroup(Group):
    """Finite group given by a full multiplication table over indices 0..n-1.

    The table is validated at construction: Latin square, two-sided identity,
    two-sided inverses, and associativity (fail fast on malformed input);
    entries must be integers (bool and float are rejected, not truncated).
    Associativity is Light's test: if (x a) y == x (a y) for every x, y and
    every a in a generating set, the operation is associative.  The set is
    ``_greedy_generators``, as for element maps.  It generates even a table
    not yet known to be associative: its span grows from the identity by
    right multiplication until it covers the table, so every element is a
    left-nested product of generators, and the elements that pass Light's
    test are closed under products.  A group has at most log2(n) of them,
    so the whole validation is O(n^2 log n).  It is plain Python, memoised
    on the table (``_validate_table``).
    """

    _fields = ("table",)  # the names do not count

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None):
        rows, self._identity, self._inverse = _validate_table(_table_rows(table))
        if names is not None and len(names) != len(rows):
            raise MalformedGroup("names length does not match table order")
        self.table = rows
        self.names = tuple(names) if names is not None else None

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

    def __str__(self):
        return f"table group of order {len(self.table)}"


class DirectProductGroup(Group):
    """Direct product of ``factors``; an element is a tuple with one payload
    per factor."""

    _fields = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == len(self.factors)
            and all(f.contains(x) for f, x in zip(self.factors, g))
        )

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def multiply(self, g, h):
        return tuple(f.multiply(a, b) for f, a, b in zip(self.factors, g, h))

    def inverse(self, g):
        return tuple(f.inverse(a) for f, a in zip(self.factors, g))

    @property
    def is_finite(self):
        return all(f.is_finite for f in self.factors)

    @property
    def order(self):
        return math.prod(f.order for f in self.factors)

    def elements(self):
        return list(itertools.product(*(f.elements() for f in self.factors)))

    def __str__(self):
        return "(" + " x ".join(map(str, self.factors)) + ")"


def product_group(factors: Sequence[Group]) -> Group:
    """The direct product of a list of groups: the trivial group for none,
    the factor itself for one.  A factor that is a product stays nested."""
    if not factors:
        return TrivialGroup()
    if len(factors) == 1:
        return factors[0]
    return DirectProductGroup(tuple(factors))


def symmetric_group(n: int) -> FiniteTableGroup:
    """S_n as a table group; element i is the i-th permutation of range(n)
    in lexicographic order (so the identity is element 0)."""
    perms = sorted(itertools.permutations(range(n)))
    rank = {p: i for i, p in enumerate(perms)}
    # product p*q is k -> p[q[k]], the entries of p at q, gathered in C; below
    # n = 2 itemgetter would not return a tuple, and the one q is the identity
    at = [operator.itemgetter(*q) if n > 1 else tuple for q in perms]
    table = [[rank[get(p)] for get in at] for p in perms]
    names = ["".join(str(x) for x in p) for p in perms]
    return FiniteTableGroup(table, names=names)


def _greedy_generators(elements: list, multiply) -> list:
    """A generating set of a finite group, given its elements (identity
    first) and its product: each element the first one outside the subgroup
    the previous ones generate.  Each subgroup at least doubles, so there
    are at most log2 |G| of them."""
    gens, span = [], {elements[0]}
    for g in elements:
        if g in span:
            continue
        gens.append(g)
        # close span under right multiplication by the generators; in a
        # finite group that is the subgroup they generate
        frontier = span
        while frontier:
            frontier = {multiply(x, s) for x in frontier for s in gens} - span
            span |= frontier
    return gens


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
                    raise UndefinedGenerator(f"element {shown(g)} lacks an image")
                target.check(emap[g])
            if emap[source.identity()] != target.identity():
                raise MalformedGroup("element map does not send identity to identity")
            # the b with f(ab) = f(a) f(b) for every a are closed under
            # products, so checking b over a generating set covers the group
            for b in _greedy_generators(source.elements(), source.multiply):
                for a in source.elements():
                    lhs = emap[source.multiply(a, b)]
                    rhs = target.multiply(emap[a], emap[b])
                    if lhs != rhs:
                        raise MalformedGroup(f"element map is not multiplicative at ({shown(a)},{shown(b)})")
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

    def __str__(self):
        return f"hom {self.source} -> {self.target}"


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
    units = [tuple(int(j == k) % n for j, n in enumerate(moduli)) for k in range(rank)]
    images = [u[0] for u in units] if rank == 1 else units
    return Homomorphism(FreeAbelianGroup(rank), target, generator_images=images)


# ---------------------------------------------------------------------------
# scheme descriptions
# ---------------------------------------------------------------------------

class QuotientTower:
    """An ordered family of surjections from one group onto finite groups."""

    kind, key = "tower", "levels"  # its scheme type and the report key of its labels

    def __init__(self, source: Group, levels: Sequence[Homomorphism], labels=None):
        levels = list(levels)
        for phi in levels:
            if phi.source != source:
                raise MismatchedGroup(f"level source {phi.source} != {source}")
            if not phi.target.is_finite:
                raise SchemeError(f"tower target {phi.target} is not finite")
        self.source = source
        self.levels = levels
        self.labels = list(labels) if labels is not None else list(range(len(levels)))
        if len(self.labels) != len(levels):
            raise SchemeError("labels length does not match levels")

    @staticmethod
    def zn(rank: int, moduli: Sequence[int]) -> "QuotientTower":
        """The standard tower Z^rank -> (Z/N)^rank for N in moduli."""
        homs = [free_abelian_quotient(rank, int(n)) for n in moduli]
        return QuotientTower(FreeAbelianGroup(rank), homs, labels=[int(n) for n in moduli])


class FolnerExhaustion:
    """The boxes [-m, m]^n in Z^n with the sup-norm word metric, for
    strictly increasing m."""

    kind, key = "folner", "boxes"

    def __init__(self, group: Group, box_sizes):
        if not isinstance(group, FreeAbelianGroup):
            raise WrongGroup(f"Folner exhaustions are built in for Z^n only, got {group}")
        sizes = [int(m) for m in box_sizes]
        if any(m < 0 for m in sizes) or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise SchemeError("box sizes must be strictly increasing and >= 0")
        self.group = group
        self.labels = sizes

    def defect(self, index: int, k: int) -> float:
        """|N_k(X)| / |X| where N_k(X) is the two-sided k-collar of the
        boundary: points within distance k of both X and its complement."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return 0.0
        n = self.group.rank
        m = self.labels[index]
        outer = (2 * (m + k) + 1) ** n
        inner = (2 * (m - k) + 1) ** n if m - k >= 0 else 0
        return (outer - inner) / (2 * m + 1) ** n


def build_boxes_folner(rank: int, m_values: Sequence[int]) -> FolnerExhaustion:
    """Boxes [-m, m]^rank for the given strictly increasing m values."""
    return FolnerExhaustion(FreeAbelianGroup(rank), box_sizes=m_values)

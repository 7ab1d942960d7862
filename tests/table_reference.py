"""numpy reference for the library's finite-table validation.

The library validates a multiplication table in plain Python
(``groups._validate_table``), so that reading a problem never loads numpy.
This is the numpy validator it replaced, kept verbatim apart from being
taken out of ``FiniteTableGroup.__init__``: sorts for the Latin checks,
boolean masks for the identity and the inverses, and Light's associativity
test over ``_greedy_generators`` as fancy indexing.  Tests compare the two
on valid and broken tables: same verdict, same message.
"""

from __future__ import annotations

import numpy as np

from l2approx.errors import MalformedGroup
from l2approx.groups import _greedy_generators


def numpy_table_validation(rows: tuple) -> tuple:
    """(identity, inverses) of the table ``rows`` (tuples of Python ints),
    or MalformedGroup naming the first defect."""
    n = len(rows)
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
    elements = [ident] + [x for x in range(n) if x != ident]
    for a in _greedy_generators(elements, lambda x, s: rows[x][s]):
        bad = np.argwhere(t[t[:, a]] != t[:, t[a]])
        if len(bad):
            x, y = bad[0].tolist()
            raise MalformedGroup(f"table is not associative at ({x},{a},{y})")
    return ident, tuple(inv.tolist())

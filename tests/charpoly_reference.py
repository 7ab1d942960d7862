"""Faddeev-LeVerrier reference for the library's characteristic polynomial.

The library computes det(xI - A) by Berkowitz's division-free recurrence
in plain ``int`` arithmetic (``oracles._char_poly``).  This is the
Faddeev-LeVerrier routine it replaced, kept verbatim apart from its name:
d matrix products in exact ``Fraction`` arithmetic and a division by k at
step k.  Tests compare the two coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def faddeev_leverrier(rows: Sequence[Sequence]) -> list:
    """Characteristic polynomial det(xI - A) by Faddeev-LeVerrier.

    Exact rational arithmetic throughout; returns [c0=1, c1, ..., cd] with
    det(xI - A) = sum_k c_k x^(d-k).  Intended for d up to a few dozen.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    d = len(a)
    if any(len(row) != d for row in a):
        raise ValueError("matrix is not square")
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * d for _ in range(d)]
    for k in range(1, d + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        am = [
            [sum(a[i][t] * m[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        for i in range(d):
            am[i][i] += coeffs[k - 1]
        m = am
        tr = sum(
            sum(a[i][t] * m[t][i] for t in range(d)) for i in range(d)
        )
        coeffs.append(-tr / k)
    return coeffs

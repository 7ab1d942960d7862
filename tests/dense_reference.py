"""Dense float reference for the library's operator assembly.

Left multiplication by a group-ring matrix, built one term and one point at
a time, and a LAPACK eigensolve behind a float Hermitian check.  The
library assembles the same operators as stacked character blocks
(``spectral._operator_blocks``); tests compare the two.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from l2approx.errors import InfiniteGroup, NotHermitian
from l2approx.matrices import RingMatrix

DEFAULT_EIG_TOL = 1e-12


def translation_matrix(delta: RingMatrix, points: Sequence) -> np.ndarray:
    """Left multiplication by a group-ring matrix, restricted to a point list.

    Entry ((k, u), (l, v)) sums the coefficients c of the terms c*g of
    entry (k, l) with ``g * points[v] == points[u]``; products that leave the
    list are dropped.  Real float64 when every coefficient is real,
    complex128 otherwise.
    """
    index = {x: i for i, x in enumerate(points)}
    n = len(points)
    real = all(e.is_real() for row in delta.entries for e in row)
    dtype = np.float64 if real else np.complex128
    h = np.zeros((delta.rows * n, delta.cols * n), dtype=dtype)
    mul = delta.group.multiply
    for k in range(delta.rows):
        for l in range(delta.cols):
            for g, c in delta.entries[k][l].terms.items():
                cval = float(c.re) if real else complex(c)
                for v, y in enumerate(points):
                    u = index.get(mul(g, y))
                    if u is not None:
                        h[k * n + u, l * n + v] += cval
    return h


def regular_representation(delta: RingMatrix) -> np.ndarray:
    """Left-multiplication action of a matrix over a finite group algebra.

    Block (k, l) of the result is the |G| x |G| matrix of left multiplication
    by entry (k, l) in the basis ``group.elements()``; the full matrix has
    size ``rows * |G|``.  Real float64 when every coefficient is real,
    complex128 otherwise.
    """
    group = delta.group
    if not group.is_finite:
        raise InfiniteGroup(f"regular representation needs a finite group, got {group}")
    return translation_matrix(delta, group.elements())


def _require_hermitian(h: np.ndarray, tol: float) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitian(f"matrix of shape {h.shape} is not square")
    scale = max(1.0, float(np.abs(h).max()) if h.size else 0.0)
    dev = float(np.abs(h - h.conj().T).max()) if h.size else 0.0
    if dev > tol * scale:
        raise NotHermitian(f"deviation from Hermitian symmetry {dev:.3e} exceeds {tol * scale:.3e}")
    return (h + h.conj().T) / 2


def hermitian_eigenvalues(h: np.ndarray, tol: float = DEFAULT_EIG_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending (LAPACK backend)."""
    h = _require_hermitian(h, tol)
    if h.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(h)

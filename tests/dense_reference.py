"""Dense float reference for the library's operator assembly.

Left multiplication by a group-ring matrix, built one term and one point at
a time, and a LAPACK eigensolve behind a float Hermitian check.  The
library assembles the same operators as stacked character blocks and
solves them in one function (``spectral._operator_eigenvalues``); tests
compare the two.  One-point symbols (torus grids, products of cyclic
groups) are also built here the long way: full rows of raveled
outer-product phases, summed term by term.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from l2approx import spectral
from l2approx.errors import InfiniteGroup, NotHermitian
from l2approx.groups import TrivialGroup
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


def outer_phase(phases: Sequence[np.ndarray]) -> np.ndarray:
    """The outer product of one 1-d phase per grid axis, every axis
    included, raveled in row-major (ij meshgrid) order; the one point with
    phase 1 for no axes."""
    if not phases:
        return np.ones(1, dtype=np.complex128)
    return reduce(np.multiply.outer, phases).ravel()


def symbol_stack(delta: RingMatrix, count: int, phase) -> np.ndarray:
    """The (count, d, d) complex128 stack of a one-point symbol: entry (k, l)
    sums complex(c) * phase(g) over the terms c*g of delta[k, l] in term
    order, phase(g) a full row of count values."""
    stack = np.zeros((count, delta.rows, delta.cols), dtype=np.complex128)
    for k in range(delta.rows):
        for l in range(delta.cols):
            for g, c in delta.entries[k][l].terms.items():
                stack[:, k, l] += complex(c) * phase(g)
    return stack


def stacked_finite_eigenvalues(delta: RingMatrix) -> np.ndarray:
    """The sorted eigenvalues of ``spectral.finite_spectrum(delta)``, solved
    as one stack: all |C| character blocks of size d|H| (G = H x C) in one
    (|C|, d|H|, d|H|) array and one batched ``eigvalsh``.

    The symbol is assembled as the library assembles it, one grid of |C|
    values per slot, and each slot is scattered into every block at once.
    The library solves the same blocks a slab of characters at a time; each
    block is the same LAPACK call on the same bytes, so the two agree bit
    for bit.
    """
    group = delta.group
    h_group, orders, h_part, exponents = spectral._cyclic_split(group)
    shape, count = tuple(orders), group.order // h_group.order

    def phase(g, real):
        return spectral._phase(
            exponents(g), lambda k, e: spectral._cyclic_angle(e, orders[k]), real
        )

    real = (
        count == 1
        and h_group != TrivialGroup()
        and all(e.is_real() for row in delta.entries for e in row)
    )
    points = h_group.elements()
    rows, cols, n = delta.rows, delta.cols, len(points)
    slots = list({h_part(g) for g in delta.support()})
    slot_index = {s: i for i, s in enumerate(slots)}
    symbol = np.zeros((rows, cols, len(slots)) + shape, dtype=np.float64 if real else np.complex128)
    for k in range(rows):
        for l in range(cols):
            spectral._add_symbol(
                symbol[k, l], delta.entries[k][l], phase, lambda g: slot_index[h_part(g)]
            )
    symbol = symbol.reshape(rows, cols, len(slots), count).transpose(3, 0, 1, 2)
    index = {x: i for i, x in enumerate(points)}
    blocks = np.zeros((count, rows, n, cols, n), dtype=symbol.dtype)
    for i, s in enumerate(slots):
        targets = [index[h_group.multiply(s, y)] for y in points]
        blocks[:, :, targets, :, range(n)] = symbol[..., i]
    w = np.linalg.eigvalsh(blocks.reshape(count, rows * n, cols * n)).ravel()
    w.sort()
    return w

"""Independent ground-truth computations.

Fourier symbol quadrature on the torus for free abelian groups; and for
the trivial group the exact product of the nonzero eigenvalues of a PSD
integer matrix, by Berkowitz's division-free characteristic polynomial:
the positive integer behind det' >= 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._lazy import np
from .errors import NotHermitian, NotPSD, SolveTooLarge, WrongGroup
from .groups import FreeAbelianGroup
from .matrices import RingMatrix
from .spectral import (
    MAX_BLOCK_ENTRIES,
    EigenResult,
    _is_diagonal,
    _operator_eigenvalues,
    _phase,
    check_solve_size,
    default_kernel_threshold,
    log_det,
)


# ---------------------------------------------------------------------------
# trivial group: exact integer determinants
# ---------------------------------------------------------------------------

def _char_poly(rows: Sequence[Sequence]) -> list:
    """Characteristic polynomial det(xI - A) of the square matrix ``rows``
    by Berkowitz's recurrence (Berkowitz, Inf. Proc. Lett. 18, 1984).

    Division-free: integer entries give integer coefficients in plain
    ``int`` arithmetic.  Returns [c0=1, c1, ..., cd] with
    det(xI - A) = sum_k c_k x^(d-k); the empty matrix gives [1].
    """
    coeffs = [1]
    for r in range(len(rows)):
        # the leading (r+1) x (r+1) block is [[A_r, S], [R, a_rr]]: its
        # polynomial is the Toeplitz column 1, -a_rr, -R S, -R A_r S, ...,
        # -R A_r^(r-1) S times that of A_r
        col, v = [1, -rows[r][r]], [row[r] for row in rows[:r]]
        for _ in range(r):
            col.append(-sum(x * y for x, y in zip(rows[r], v)))
            v = [sum(x * y for x, y in zip(row, v)) for row in rows[:r]]
        coeffs = [sum(c * col[i - j] for j, c in enumerate(coeffs[:i + 1])) for i in range(r + 2)]
    return coeffs


def _check_symmetric_integer(rows) -> list:
    """The rows as lists of ``int``, once the matrix is checked square
    (every row first), integer and symmetric."""
    a = [[Fraction(x) for x in row] for row in rows]
    d = len(a)
    if any(len(row) != d for row in a):
        raise ValueError("matrix is not square")
    for i in range(d):
        for j in range(d):
            if a[i][j].denominator != 1:
                raise ValueError(f"entry ({i},{j}) = {a[i][j]} is not an integer")
            if a[i][j] != a[j][i]:
                raise NotPSD(f"matrix is not symmetric at ({i},{j})")
    return [[int(x) for x in row] for row in a]


def nonzero_eigenvalue_product_exact(rows: Sequence[Sequence]) -> int:
    """Product of the nonzero eigenvalues of a PSD integer matrix, exactly.

    This is the absolute value of the lowest nonzero coefficient of the
    characteristic polynomial (``_char_poly``, integers throughout), hence
    a positive integer: 1 for a zero or empty matrix.  Raises NotPSD when
    the sign pattern of the (real-rooted) characteristic polynomial reveals
    a negative eigenvalue.
    """
    coeffs = _char_poly(_check_symmetric_integer(rows))
    for k, c in enumerate(coeffs):
        # real-rooted p has all roots >= 0 iff (-1)^k c_k >= 0 for all k
        if (c if k % 2 == 0 else -c) < 0:
            raise NotPSD(f"characteristic coefficient {k} has the wrong sign: {c}")
    return abs(next(c for c in reversed(coeffs) if c))


# ---------------------------------------------------------------------------
# free abelian groups: torus symbol quadrature
# ---------------------------------------------------------------------------

# eigenvalues per slab of ``torus_kernel_logdet``: 512 KiB of float64
SLAB_EIGENVALUES = 2 ** 16


def check_torus_grid(delta: RingMatrix, grid_per_dim: int) -> int:
    """The m^n points of the torus grid, m = grid_per_dim, once the solve of
    delta on them is checked: delta self-adjoint, exactly (``eigvalsh``
    reads one triangle), over a free abelian group, then the caps:
    ``check_solve_size``, and MAX_BLOCK_ENTRIES on the m^n d^2 entries of
    the stack of d x d symbols, unless delta is diagonal (``_is_diagonal``:
    no stack, one float64 symbol per diagonal entry)."""
    if not delta.is_self_adjoint():
        raise NotHermitian(f"{delta} is not self-adjoint")
    if not isinstance(delta.group, FreeAbelianGroup):
        raise WrongGroup(f"torus oracle needs a free abelian group, got {delta.group}")
    m = int(grid_per_dim)
    if m < 1:
        raise ValueError("grid_per_dim must be >= 1")
    points, d = m ** delta.group.rank, delta.rows
    check_solve_size(points, d, f"oracle grid {m}")
    if points * d * d > MAX_BLOCK_ENTRIES and not _is_diagonal(delta):
        raise SolveTooLarge(
            f"oracle grid {m} has {points} symbols of {d} x {d} = {points * d * d} "
            f"entries; the cap is {MAX_BLOCK_ENTRIES}"
        )
    return points


def _torus_slab(delta: RingMatrix, m: int, rows: slice) -> np.ndarray:
    """Sorted eigenvalues of delta's symbol at the midpoint torus grid points
    whose first index lies in ``rows``, a slice of range(m): the grid
    (len(rows),) + (m,) * (n - 1), or the one point () when n = 0.

    Substitutes generator k -> z_k = exp(2*pi*i*(j_k + 1/2)/m) for every
    grid multi-index j and stacks the eigenvalues of the resulting d x d
    Hermitian values.  The phase exp(i theta.g) is separable: the
    ``_phase`` of the angles theta_1d g_k per axis, those of axis 0 cut to
    ``rows``, broadcast over the grid in (ij) meshgrid order.  Each value
    is the whole grid's at the same point, bit for bit."""
    theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    first = theta_1d[rows]
    n = delta.group.rank
    shape = (len(first),) + (m,) * (n - 1) if n else ()
    return _operator_eigenvalues(
        delta, shape, lambda g, real: _phase(g, lambda k, e: (theta_1d if k else first) * e, real)
    )


def torus_eigen_result(delta: RingMatrix, grid_per_dim: int) -> EigenResult:
    """Eigenvalues of the Fourier symbol on the whole midpoint torus grid,
    one slab (``_torus_slab``) of every row, sorted ascending, with the
    grid's point count as denominator and delta's default kernel
    threshold.  Clustered (``density_from_eigs``) it is the quadrature
    approximation of the spectral density over Z^n."""
    points = check_torus_grid(delta, grid_per_dim)
    m = int(grid_per_dim)
    return EigenResult(_torus_slab(delta, m, slice(0, m)), points, default_kernel_threshold(delta))


def torus_kernel_logdet(delta: RingMatrix, grid_per_dim: int, thresholds) -> tuple:
    """(kernel count at each of ``thresholds``, log det) of the torus
    spectrum, solved here one slab at a time.

    A slab is a run of whole rows of the first grid axis (``_torus_slab``),
    about SLAB_EIGENVALUES eigenvalues and at least one row; the last may be
    partial.  Each slab adds its count at every threshold, an exact integer,
    and then the sum of the log of its positive tail, taken in place: no
    array of the grid's size is built and the whole spectrum is never
    sorted.  Each count is exactly ``kernel_end()`` of ``torus_eigen_result``
    with threshold t; the log det is its ``log_det`` with threshold 0, bit
    for bit on one slab (every rank-1 grid of up to SLAB_EIGENVALUES / d
    points), and agrees to rounding otherwise, since it sums the slabs in
    turn.

    The logdet applies no magnitude cutoff: genuinely small eigenvalues
    near a high-order zero of the symbol carry a real contribution to the
    integral, and masking them by the density's kernel threshold would bias
    the value upward by an amount that does not vanish with the grid.
    Values that round to zero or below (only possible at an exact symbol
    kernel, which the midpoint grid avoids) are skipped.
    """
    points = check_torus_grid(delta, grid_per_dim)
    m, n = int(grid_per_dim), delta.group.rank
    step = max(1, SLAB_EIGENVALUES // (m ** (n - 1) * max(1, delta.rows))) if n else m
    counts, total = [0] * len(thresholds), 0.0
    for lo in range(0, m, step):
        w = _torus_slab(delta, m, slice(lo, lo + step))
        for i, t in enumerate(thresholds):
            counts[i] += int(w.searchsorted(t, "right"))
        tail = w[w.searchsorted(0.0, "right"):]
        total += float(np.sum(np.log(tail, out=tail)))
        del w, tail  # before the next slab is solved
    return counts, total / points


def torus_logdet(delta: RingMatrix, grid_per_dim: int) -> float:
    """Quadrature approximation of the log Fuglede-Kadison determinant:
    log of every strictly positive symbol eigenvalue (``torus_kernel_logdet``)."""
    return torus_kernel_logdet(delta, grid_per_dim, [])[1]


def torus_logdet_report(delta: RingMatrix, grid_per_dim: int, fine: EigenResult) -> dict:
    """Log determinant with a two-grid error estimate.

    ``error_estimate`` is |fine - coarse|, the log determinants on the grid
    m and on the grid max(1, m // 2): an estimate of the quadrature error,
    not a bound.  ``fine`` is ``torus_eigen_result(delta, grid_per_dim)``,
    read at threshold 0 through a view that shares its array.
    """
    value = log_det(EigenResult(fine.eigenvalues, fine.denom, 0.0))
    coarse_grid = max(1, grid_per_dim // 2)
    coarse = torus_logdet(delta, coarse_grid)
    return {
        "method": "torus_quadrature",
        "grid": int(grid_per_dim),
        "value": value,
        "error_estimate": abs(value - coarse),
    }

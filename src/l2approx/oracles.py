"""Independent ground-truth computations.

Three oracle families, each with a different proof route than the pipeline
it checks: exact integer linear algebra for the trivial group, Fourier
symbol quadrature on the torus for free abelian groups, and Mahler measure
by root finding for single-variable integer Laurent polynomials.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import NotPSD, RootFindFailure, WrongGroup
from .groupring import RingElement
from .groups import FreeAbelianGroup
from .matrices import RingMatrix
from .spectral import (
    EigenResult,
    SpectralDensity,
    _block_eigenvalues,
    _operator_blocks,
    default_kernel_threshold,
    density_from_eigs,
    log_det,
)


# ---------------------------------------------------------------------------
# trivial group: exact integer determinants
# ---------------------------------------------------------------------------

def char_poly_exact(rows: Sequence[Sequence]) -> list:
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


def _check_symmetric_integer(rows) -> list:
    a = [[Fraction(x) for x in row] for row in rows]
    d = len(a)
    for i in range(d):
        if len(a[i]) != d:
            raise ValueError("matrix is not square")
        for j in range(d):
            if a[i][j].denominator != 1:
                raise ValueError(f"entry ({i},{j}) = {a[i][j]} is not an integer")
            if a[i][j] != a[j][i]:
                raise NotPSD(f"matrix is not symmetric at ({i},{j})")
    return a


def nonzero_eigenvalue_product_exact(rows: Sequence[Sequence]) -> int:
    """Product of the nonzero eigenvalues of a PSD integer matrix, exactly.

    This is the absolute value of the lowest nonzero coefficient of the
    characteristic polynomial, hence a positive integer.  Raises NotPSD when
    the sign pattern of the (real-rooted) characteristic polynomial reveals
    a negative eigenvalue.
    """
    a = _check_symmetric_integer(rows)
    d = len(a)
    if d == 0:
        return 1
    coeffs = char_poly_exact(a)
    for k, c in enumerate(coeffs):
        # real-rooted p has all roots >= 0 iff (-1)^k c_k >= 0 for all k
        if (c if k % 2 == 0 else -c) < 0:
            raise NotPSD(f"characteristic coefficient {k} has the wrong sign: {c}")
    lowest = None
    for c in reversed(coeffs):
        if c != 0:
            lowest = c
            break
    value = abs(lowest)
    assert value.denominator == 1
    return int(value)


def _log_int(n: int) -> float:
    if n <= 0:
        raise ValueError("need a positive integer")
    if n.bit_length() < 1000:
        return math.log(n)
    shift = n.bit_length() - 500
    return math.log(n >> shift) + shift * math.log(2.0)


def trivial_group_logdet_exact(rows: Sequence[Sequence]) -> float:
    """log of the product of nonzero eigenvalues of a PSD integer matrix.

    The product is a nonzero integer, so the result is always >= 0.
    """
    return _log_int(nonzero_eigenvalue_product_exact(rows))


# ---------------------------------------------------------------------------
# free abelian groups: torus symbol quadrature
# ---------------------------------------------------------------------------

def _require_free_abelian(delta: RingMatrix) -> int:
    if not isinstance(delta.group, FreeAbelianGroup):
        raise WrongGroup(f"torus oracle needs a free abelian group, got {delta.group}")
    return delta.group.rank


def torus_symbol_eigenvalues(delta: RingMatrix, grid_per_dim: int) -> np.ndarray:
    """Eigenvalues of the Fourier symbol on the midpoint torus grid.

    Substitutes generator k -> z_k = exp(2*pi*i*(j_k + 1/2)/m) for every
    grid multi-index j and stacks the eigenvalues of the resulting d x d
    Hermitian values; shape (m^n * d,), sorted ascending.
    """
    n = _require_free_abelian(delta)
    m = int(grid_per_dim)
    if m < 1:
        raise ValueError("grid_per_dim must be >= 1")
    points = m ** n
    theta_1d = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    if n:
        mesh = np.meshgrid(*([theta_1d] * n), indexing="ij")
        theta = np.stack(mesh, axis=-1).reshape(points, n)
    else:
        theta = np.zeros((1, 0))

    def phase(g):
        exps = np.asarray(g, dtype=np.float64)
        return np.exp(1j * (theta @ exps)) if n else np.ones(1)

    return _block_eigenvalues(_operator_blocks(delta, points, phase))


def torus_eigen_result(delta: RingMatrix, grid_per_dim: int) -> EigenResult:
    n = _require_free_abelian(delta)
    w = torus_symbol_eigenvalues(delta, grid_per_dim)
    return EigenResult(w, int(grid_per_dim) ** n, default_kernel_threshold(delta))


def torus_density(delta: RingMatrix, grid_per_dim: int) -> SpectralDensity:
    """Quadrature approximation of the spectral density over Z^n."""
    return density_from_eigs(torus_eigen_result(delta, grid_per_dim))


def _positive_log_det(eig: EigenResult) -> float:
    """Normalized sum of log of every strictly positive eigenvalue.

    The torus logdet applies no magnitude cutoff: genuinely small
    eigenvalues near a high-order zero of the symbol carry a real
    contribution to the integral, and masking them by the density's kernel
    threshold would bias the value upward by an amount that does not vanish
    with the grid.  Values that round to zero or below (only possible at an
    exact symbol kernel, which the midpoint grid avoids) are skipped.
    """
    return log_det(replace(eig, kernel_threshold=0.0))


def torus_logdet(delta: RingMatrix, grid_per_dim: int) -> float:
    """Quadrature approximation of the log Fuglede-Kadison determinant:
    log of every strictly positive symbol eigenvalue (``_positive_log_det``)."""
    return _positive_log_det(torus_eigen_result(delta, grid_per_dim))


def torus_logdet_report(
    delta: RingMatrix, grid_per_dim: int, fine: Optional[EigenResult] = None
) -> dict:
    """Log determinant with a two-grid Richardson-style error estimate.

    ``fine`` is ``torus_eigen_result(delta, grid_per_dim)`` when the caller
    already has it; it is solved here otherwise.
    """
    if fine is None:
        fine = torus_eigen_result(delta, grid_per_dim)
    value = _positive_log_det(fine)
    coarse_grid = max(1, grid_per_dim // 2)
    coarse = torus_logdet(delta, coarse_grid)
    return {
        "method": "torus_quadrature",
        "grid": int(grid_per_dim),
        "value": value,
        "error_estimate": abs(value - coarse),
    }


# ---------------------------------------------------------------------------
# Mahler measure of one-variable integer Laurent polynomials
# ---------------------------------------------------------------------------

LaurentLike = Union[dict, RingElement]


def _laurent_terms(p: LaurentLike) -> dict:
    if isinstance(p, RingElement):
        if not isinstance(p.group, FreeAbelianGroup) or p.group.rank != 1:
            raise WrongGroup("mahler_1x1 needs an element of the Z group ring")
        terms = {}
        for g, c in p.terms.items():
            if c.im != 0:
                raise ValueError("mahler_1x1 needs real coefficients")
            terms[g[0]] = c.re
        return terms
    return {int(k): Fraction(v) for k, v in dict(p).items() if Fraction(v) != 0}


def mahler_1x1(p: LaurentLike, polish_tol: float = 1e-10) -> float:
    """log Mahler measure of a nonzero one-variable Laurent polynomial.

    log M(p) = log|leading coefficient| + sum over roots of log max(1, |r|).
    Roots come from the companion matrix (numpy.roots) and are polished by a
    few Newton steps; the root product is validated against the exact ratio
    of the extreme coefficients.
    """
    terms = _laurent_terms(p)
    if not terms:
        raise ValueError("mahler_1x1 needs a nonzero polynomial")
    lo = min(terms)
    hi = max(terms)
    coeffs = [terms.get(k, Fraction(0)) for k in range(hi, lo - 1, -1)]  # descending
    lead = coeffs[0]
    if hi == lo:
        return math.log(abs(float(lead)))
    cf = np.array([float(c) for c in coeffs])
    roots = np.roots(cf)
    dcf = cf[:-1] * np.arange(len(cf) - 1, 0, -1)
    for _ in range(8):
        vals = np.polyval(cf, roots)
        dvals = np.polyval(dcf, roots)
        step = np.where(np.abs(dvals) > 1e-300, vals / np.where(dvals == 0, 1.0, dvals), 0.0)
        refined = roots - step
        better = np.abs(np.polyval(cf, refined)) <= np.abs(vals)
        roots = np.where(better, refined, roots)
        moved = float(np.max(np.abs(step[better]))) if np.any(better) else 0.0
        if moved < polish_tol:
            break
    # |prod roots| must equal |trailing/leading|
    expected = abs(float(terms[lo] / lead))
    got = float(np.prod(np.abs(roots)))
    if not math.isclose(got, expected, rel_tol=1e-6, abs_tol=1e-12):
        raise RootFindFailure(
            f"root product {got:.12g} mismatches coefficient ratio {expected:.12g}"
        )
    return math.log(abs(float(lead))) + float(np.sum(np.log(np.maximum(1.0, np.abs(roots)))))

"""Finite-level spectral computation.

Converts group-ring matrices over finite groups into Hermitian matrices via
the left regular representation, block-diagonalised by the characters of
the group's cyclic factors, extracts eigenvalue lists, and packages them as
right-continuous spectral step functions with normalized total mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InfiniteGroup, MalformedGroup, NotHermitian
from .groups import DirectProductGroup, Group, Homomorphism, TrivialGroup
from .matrices import RingMatrix, k_bound

DEFAULT_EIG_TOL = 1e-12
KERNEL_THRESHOLD_FACTOR = 1e-9


def default_kernel_threshold(delta: RingMatrix) -> float:
    """Relative zero-eigenvalue cutoff: 1e-9 times the a-priori norm bound."""
    return KERNEL_THRESHOLD_FACTOR * max(1.0, k_bound(delta))


def _translation_matrix(delta: RingMatrix, points: Sequence) -> np.ndarray:
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
    return _translation_matrix(delta, group.elements())


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


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalue list of one finite level plus its trace normalization.

    The level trace of a spectral function f is sum(f(eigenvalues)) / denom,
    so denom is |G| for quotient levels, |X_m| for compressions, and the
    number of grid points for torus quadrature.
    """

    eigenvalues: np.ndarray
    denom: int
    kernel_threshold: float

    @property
    def d(self) -> int:
        return len(self.eigenvalues) // self.denom

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1]) if len(self.eigenvalues) else 0.0

    def moment(self, m: int) -> float:
        return float(np.sum(self.eigenvalues ** m)) / self.denom

    def trace_of(self, values: np.ndarray) -> float:
        """Normalized trace of a function given by its eigenvalue values."""
        return float(np.sum(values)) / self.denom


@dataclass(frozen=True)
class SpectralDensity:
    """Right-continuous step function F(lambda) = mass of spectrum in [0, lambda].

    Jumps are (position, integer count) pairs; every count carries mass
    1/denom, which keeps the total mass exactly d for d*denom eigenvalues.
    """

    jumps: tuple
    denom: int

    @property
    def total_mass(self) -> float:
        return sum(c for _, c in self.jumps) / self.denom

    def evaluate(self, lam: float) -> float:
        acc = 0
        for pos, count in self.jumps:
            if pos <= lam:
                acc += count
            else:
                break
        return acc / self.denom

    def rows(self) -> list:
        """(lambda, F(lambda)) pairs at the jump points, cumulative."""
        out = []
        acc = 0
        for pos, count in self.jumps:
            acc += count
            out.append((pos, acc / self.denom))
        return out


def _cluster_jumps(seg: np.ndarray, thr: float) -> list:
    """(mean, count) jumps of a sorted segment, split where a gap exceeds thr."""
    if not len(seg):
        return []
    starts = np.concatenate(([0], np.flatnonzero(np.diff(seg) > thr) + 1))
    counts = np.diff(np.append(starts, len(seg)))
    means = np.add.reduceat(seg, starts) / counts
    return list(zip(means.tolist(), counts.tolist()))


def density_from_eigs(e: EigenResult) -> SpectralDensity:
    """Cluster an eigenvalue list into spectral jumps.

    Eigenvalues in the kernel window [-thr, thr] (thr the kernel threshold)
    form one jump at exactly 0.  Outside it, a new jump starts wherever the
    gap to the previous eigenvalue exceeds thr, so one jump can span more
    than thr; the kernel window cuts such chains.  Each jump sits at the
    mean of its eigenvalues, summed in ascending order.
    """
    w = np.sort(np.asarray(e.eigenvalues, dtype=np.float64))
    thr = e.kernel_threshold
    below = int(np.searchsorted(w, -thr, side="left"))
    kernel = int(np.searchsorted(w, thr, side="right")) - below
    # below the window: genuinely negative spectrum (non-positive input);
    # inside it: the kernel, since A*A spectra may round slightly negative
    jumps = _cluster_jumps(w[:below], thr)
    if kernel:
        jumps.append((0.0, kernel))
    jumps += _cluster_jumps(w[below + kernel:], thr)
    return SpectralDensity(tuple(jumps), e.denom)


def betti(f: SpectralDensity) -> float:
    """F(0): the normalized kernel dimension."""
    return f.evaluate(0.0)


def log_det(e: EigenResult) -> float:
    """Normalized sum of log of the eigenvalues above the kernel threshold.

    At a finite level this is always finite; an empty sum gives 0.
    """
    w = np.asarray(e.eigenvalues)
    positive = w[w > e.kernel_threshold]
    if len(positive) == 0:
        return 0.0
    return float(np.sum(np.log(positive))) / e.denom


def _symbol_eigenvalues(
    delta: RingMatrix,
    points: int,
    phase,
    h_group: Group = TrivialGroup(),
    h_part=None,
    real: bool = False,
) -> np.ndarray:
    """Sorted eigenvalues of a stack of ``points`` Fourier-symbol blocks.

    ``phase(g)`` is the array of values of the characters at group element
    g.  Over G = H x C, with ``h_part(g)`` the H-component of g, block entry
    ((k, u), (l, v)) sums c * phase(g) over the terms c*g of entry (k, l)
    whose H-component h has h * H[v] == H[u], H listed by
    ``h_group.elements()``; with H trivial each block is the d x d value of
    the symbol.  Real float64 blocks when ``real`` (``phase`` must then be
    real), complex128 otherwise.
    """
    d = delta.rows
    hs = h_group.elements()
    n = len(hs)
    index = {h: i for i, h in enumerate(hs)}
    # symbol[:, k, l, i]: the part of entry (k, l) supported on H-element i
    symbol = np.zeros((points, d, d, n), dtype=np.float64 if real else np.complex128)
    for k in range(d):
        for l in range(d):
            for g, c in delta.entries[k][l].terms.items():
                i = index[h_part(g)] if h_part else 0
                # z lives until the next phase exists; freed inside the update,
                # its block would go back to the OS and be faulted in again
                z = phase(g)
                symbol[:, k, l, i] += (float(c.re) if real else complex(c)) * z
    if n > 1:
        # H-element i puts its coefficient at (u, v) wherever H[u] = H[i] H[v]
        blocks = np.zeros((points, d, n, d, n), dtype=symbol.dtype)
        cols = np.arange(n)
        for i in np.flatnonzero(symbol.any(axis=(0, 1, 2))).tolist():
            rows = [index[h_group.multiply(hs[i], y)] for y in hs]
            blocks[:, :, rows, :, cols] = symbol[..., i]
        symbol = blocks
    w = np.linalg.eigvalsh(symbol.reshape(points, d * n, d * n))
    return np.sort(w.ravel())


def _cyclic_split(group: Group) -> tuple:
    """G = H x C, C the product of the cyclic factors at the top of G.

    Returns (H, orders of C, h_part, exponents): the H-component of an
    element and the exponents of its C-component.  Cyclic products have H
    trivial; a direct product is split only while one side is a cyclic
    product, so cyclic factors under two non-cyclic sides stay in H.
    """
    factors = group.cyclic_factors()
    if factors is not None:
        return TrivialGroup(), factors, lambda g: (), group.exponents
    if isinstance(group, DirectProductGroup):
        left, right = group.left, group.right
        if right.cyclic_factors() is not None:
            h, cf, h_part, exps = _cyclic_split(left)
            return (
                h,
                cf + right.cyclic_factors(),
                lambda g: h_part(g[0]),
                lambda g: exps(g[0]) + right.exponents(g[1]),
            )
        if left.cyclic_factors() is not None:
            h, cf, h_part, exps = _cyclic_split(right)
            return (
                h,
                left.cyclic_factors() + cf,
                lambda g: h_part(g[1]),
                lambda g: left.exponents(g[0]) + exps(g[1]),
            )
    return group, [], lambda g: g, lambda g: ()


def character_spectrum(delta: RingMatrix) -> np.ndarray:
    """Eigenvalues of the regular representation, block-diagonalised.

    G splits as H x C with C the product of the cyclic factors at the top of
    G (``_cyclic_split``).  The characters of C block-diagonalise the left
    regular representation into |C| blocks of size d|H|: left
    multiplication over H, weighted by the character.  Cyclic products give
    d x d blocks, a bare table one dense block, real when every
    coefficient is.  Spectrally identical to ``regular_representation``.
    """
    group = delta.group
    if not group.is_finite:
        raise InfiniteGroup(f"character spectrum needs a finite group, got {group}")
    h_group, factors, h_part, exponents = _cyclic_split(group)
    total = group.order // h_group.order
    r = len(factors)
    if r:
        grids = np.meshgrid(*[np.arange(n) for n in factors], indexing="ij")
        kmesh = np.stack(grids, axis=-1).reshape(total, r).astype(np.float64)
    else:
        kmesh = np.zeros((1, 0))
    orders = np.asarray(factors, dtype=np.float64)

    def phase(g):
        exps = np.asarray(exponents(g), dtype=np.float64)
        return np.exp(-2j * np.pi * (kmesh @ (exps / orders))) if total > 1 else np.ones(1)

    # with C trivial a table solves one real block when it can; cyclic
    # products keep the complex solve they have always had
    real = (
        total == 1
        and group.cyclic_factors() is None
        and all(e.is_real() for row in delta.entries for e in row)
    )
    return _symbol_eigenvalues(delta, total, phase, h_group, h_part, real)


def finite_spectrum(delta: RingMatrix, kernel_threshold: Optional[float] = None) -> EigenResult:
    """Spectrum of a self-adjoint matrix over a finite group, via
    ``character_spectrum``.  Self-adjointness is checked exactly."""
    group = delta.group
    if not group.is_finite:
        raise InfiniteGroup(f"finite_spectrum needs a finite group, got {group}")
    if not delta.is_self_adjoint():
        raise NotHermitian(f"{delta} is not self-adjoint")
    if kernel_threshold is None:
        kernel_threshold = default_kernel_threshold(delta)
    return EigenResult(character_spectrum(delta), group.order, kernel_threshold)


def densities_match(f1: SpectralDensity, f2: SpectralDensity, atol: float = 1e-9):
    """Compare two step functions up to jitter atol in jump positions.

    Walks both jump lists and merges clusters of jump positions closer than
    atol, then compares cumulative masses after each cluster.  Returns
    (matched, max_deviation).
    """
    events = sorted(
        [(pos, 0, count) for pos, count in f1.jumps]
        + [(pos, 1, count) for pos, count in f2.jumps]
    )
    acc = [0, 0]
    maxdev = 0.0
    i = 0
    while i < len(events):
        start = events[i][0]
        while i < len(events) and events[i][0] - start <= atol:
            _, which, count = events[i]
            acc[which] += count
            i += 1
        dev = abs(acc[0] / f1.denom - acc[1] / f2.denom)
        maxdev = max(maxdev, dev)
    maxdev = max(maxdev, abs(f1.total_mass - f2.total_mass))
    return maxdev <= atol * 10 + 1e-12, maxdev


def subgroup_invariance_check(
    delta_u: RingMatrix, embedding: Homomorphism, tol: float = 1e-9
):
    """Induce a matrix along a finite-group embedding and compare densities.

    The spectral density of a matrix over U and of the induced matrix over
    the ambient group agree; returns (ok, max deviation at jump points).
    """
    if embedding.source != delta_u.group:
        raise MalformedGroup("embedding source does not match the matrix group")
    if not embedding.source.is_finite or not embedding.target.is_finite:
        raise InfiniteGroup("subgroup invariance check needs finite groups")
    if not embedding.injective_on(embedding.source.elements()):
        raise MalformedGroup("the supplied homomorphism is not injective")
    thr = default_kernel_threshold(delta_u)
    delta_pi = delta_u.push_forward(embedding)
    f_u = density_from_eigs(finite_spectrum(delta_u, kernel_threshold=thr))
    f_pi = density_from_eigs(finite_spectrum(delta_pi, kernel_threshold=thr))
    return densities_match(f_u, f_pi, atol=tol)

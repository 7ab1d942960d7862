"""Finite-level spectral computation.

Turns group-ring matrices into numeric blocks with one assembly (left
multiplication over a point list, weighted by characters): the regular
representation of a finite group block-diagonalised by the characters of
its cyclic factors, torus symbols and Folner compressions.  Extracts
eigenvalue lists and packages them as right-continuous spectral step
functions with normalized total mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InfiniteGroup, MalformedGroup, NotHermitian
from .groups import DirectProductGroup, Group, Homomorphism, TrivialGroup
from .matrices import RingMatrix, k_bound

KERNEL_THRESHOLD_FACTOR = 1e-9


def default_kernel_threshold(delta: RingMatrix) -> float:
    """Relative zero-eigenvalue cutoff: 1e-9 times the a-priori norm bound."""
    return KERNEL_THRESHOLD_FACTOR * max(1.0, k_bound(delta))


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


def _operator_blocks(
    delta: RingMatrix,
    count: int,
    phase,
    group: Group = TrivialGroup(),
    points: Sequence = ((),),
    part=lambda g: (),
    real: bool = False,
) -> np.ndarray:
    """Stack of ``count`` blocks of left multiplication over a point list.

    ``phase(g)`` gives the ``count`` values (an array, or a scalar for all)
    of the characters at group element g.  Block entry ((k, u), (l, v))
    sums c * phase(g) over the terms c*g of entry (k, l) with
    ``group.multiply(part(g), points[v]) == points[u]``; products that leave
    the list are dropped.  Slots are keyed by the distinct values of
    ``part(g)``, so a window of a group works like the group.  Real float64
    blocks when ``real`` (``phase`` must then be real), complex128
    otherwise; shape (count, rows * |points|, cols * |points|).
    """
    rows, cols, n = delta.rows, delta.cols, len(points)
    slots = list({part(g) for g in delta.support()})
    slot_index = {s: i for i, s in enumerate(slots)}
    # symbol[:, k, l, i]: the part of entry (k, l) on terms g with part(g) = slots[i]
    dtype = np.float64 if real else np.complex128
    symbol = np.zeros((count, rows, cols, len(slots)), dtype=dtype)
    for k in range(rows):
        for l in range(cols):
            for g, c in delta.entries[k][l].terms.items():
                i = slot_index[part(g)]
                # z lives until the next phase exists; freed inside the update,
                # its block would go back to the OS and be faulted in again
                z = phase(g)
                symbol[:, k, l, i] += (float(c.re) if real else complex(c)) * z
    if n == 1 and len(slots) == 1 and group.multiply(slots[0], points[0]) == points[0]:
        # one point fixed by the one slot: the symbol is the block, no copy
        return symbol.reshape(count, rows, cols)
    index = {x: i for i, x in enumerate(points)}
    blocks = np.zeros((count, rows, n, cols, n), dtype=symbol.dtype)
    for i, s in enumerate(slots):
        # slot s puts its coefficient at (u, v) wherever s * points[v] = points[u];
        # no two slots share a (u, v), since s * y = x has one solution s
        targets = [index.get(group.multiply(s, y)) for y in points]
        vs = [v for v, u in enumerate(targets) if u is not None]
        blocks[:, :, [targets[v] for v in vs], :, vs] = symbol[..., i]
    return blocks.reshape(count, rows * n, cols * n)


def _block_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """All eigenvalues of a stack of Hermitian blocks, sorted ascending."""
    return np.sort(np.linalg.eigvalsh(blocks).ravel())


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
    coefficient is.  Spectrally identical to the left regular representation.
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
    return _block_eigenvalues(
        _operator_blocks(delta, total, phase, h_group, h_group.elements(), h_part, real)
    )


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

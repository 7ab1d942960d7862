"""Finite-level spectral computation.

Turns group-ring matrices into numeric blocks with one assembly (left
multiplication over a point list, weighted by characters): the regular
representation of a finite group block-diagonalised by the characters of
its cyclic factors, and torus symbols.  Extracts
eigenvalue lists and packages them as right-continuous spectral step
functions with normalized total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from ._lazy import np
from .errors import InfiniteGroup, NotHermitian, SolveTooLarge
from .groups import CyclicGroup, DirectProductGroup, Group, TrivialGroup, product_group
from .matrices import RingMatrix, k_bound

KERNEL_THRESHOLD_FACTOR = 1e-9
# eigenvalues of one solve: d |G| for a finite level, d m^n for a torus grid
MAX_SOLVE_POINTS = 2 ** 22
# entries of the character blocks of a finite group G = H x C, |C| (d |H|)^2:
# the entries assembled over a level and its solve time, not what is resident,
# since the blocks are solved one slab at a time
MAX_BLOCK_ENTRIES = 2 ** 24
# elements per step of a pass over a spectrum: the sortedness check,
# density_from_eigs and verdicts.density_tail_integral; and the entries of
# one slab of character blocks (at least one block)
CHUNK = 8192


def check_solve_size(points: int, rows: int, what: str) -> None:
    """SolveTooLarge when a d x d matrix (d = rows) solved at ``points``
    points (|G| of a finite level, m^n of a torus grid) would have more than
    MAX_SOLVE_POINTS eigenvalues."""
    if points * rows > MAX_SOLVE_POINTS:
        raise SolveTooLarge(
            f"{what} has {points} points x {rows} rows = {points * rows} eigenvalues "
            f"in one solve; the cap is {MAX_SOLVE_POINTS}"
        )


def check_group_solve(group: Group, rows: int, what: str) -> None:
    """``check_solve_size`` at the |G| points of a finite group G, then
    SolveTooLarge when its |C| character blocks of size d |H| (G = H x C,
    ``_cyclic_split``) would hold more than MAX_BLOCK_ENTRIES entries.

    The blocks are solved a slab at a time, so this bounds the entries
    assembled and the time of the solve, not the memory held at once."""
    check_solve_size(group.order, rows, what)
    h = _cyclic_split(group)[0].order
    blocks, size = group.order // h, rows * h
    if blocks * size * size > MAX_BLOCK_ENTRIES:
        raise SolveTooLarge(
            f"{what} has {blocks} character blocks of {size} x {size} = "
            f"{blocks * size * size} entries; the cap is {MAX_BLOCK_ENTRIES}"
        )


def default_kernel_threshold(delta: RingMatrix) -> float:
    """Relative zero-eigenvalue cutoff: 1e-9 times the a-priori norm bound."""
    return KERNEL_THRESHOLD_FACTOR * max(1.0, k_bound(delta))


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalue list of one finite level plus its trace normalization.

    The eigenvalues are float64 and sorted ascending: every backend
    (character blocks, torus symbols, banded Folner solves) returns them so,
    which one O(n) pass confirms, CHUNK pairs at a time, and any other
    input (or one with a NaN) is sorted here once.
    The level trace of a spectral function f is sum(f(eigenvalues)) / denom,
    so denom is |G| for quotient levels, |X_m| for compressions, and the
    number of grid points for torus quadrature.  The kernel threshold must
    be >= 0; ``kernel_end`` cuts the spectrum there for every reader.  A
    reader that needs another cut builds another EigenResult on the same
    array, which is already sorted and is not copied.
    """

    eigenvalues: np.ndarray
    denom: int
    kernel_threshold: float

    def __post_init__(self):
        if not self.kernel_threshold >= 0.0:
            raise ValueError(f"kernel threshold must be >= 0, got {self.kernel_threshold}")
        w = np.asarray(self.eigenvalues, dtype=np.float64)
        a, b = w[:-1], w[1:]
        if not all(np.all(a[i:i + CHUNK] <= b[i:i + CHUNK]) for i in range(0, len(a), CHUNK)):
            w = np.sort(w)
        object.__setattr__(self, "eigenvalues", w)

    def kernel_end(self) -> int:
        """The kernel split: the number of eigenvalues at or below the
        kernel threshold.  F(0) is kernel_end() / denom, ``log_det`` sums
        the logs of the rest, and ``density_from_eigs`` ends its zero jump
        here."""
        return int(self.eigenvalues.searchsorted(self.kernel_threshold, "right"))

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1]) if len(self.eigenvalues) else 0.0

    def moment(self, m: int) -> float:
        return float(np.sum(self.eigenvalues ** m)) / self.denom


class SpectralDensity:
    """Right-continuous step function F(lambda) = mass of spectrum in [0, lambda].

    Jumps are ascending float64 positions with integer counts; every count
    carries mass 1/denom, which keeps the total mass exactly d for d*denom
    eigenvalues.  Only the positions and the cumulative counts are stored,
    kept as given, 16 bytes per jump: ``cumulative[j]`` is the count of the
    first j jumps, one entry longer than ``positions``.  F is read from the
    cumulative counts by binary search, and ``counts`` is their difference.
    """

    def __init__(self, positions: np.ndarray, cumulative: np.ndarray, denom: int):
        self.positions, self._cumulative, self.denom = positions, cumulative, denom

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self._cumulative)

    @property
    def jumps(self) -> tuple:
        """(position, count) pairs as Python floats and ints."""
        return tuple(zip(self.positions.tolist(), self.counts.tolist()))

    @property
    def total_mass(self) -> float:
        return int(self._cumulative[-1]) / self.denom

    def evaluate(self, lam: float) -> float:
        return int(self._cumulative[self.positions.searchsorted(lam, "right")]) / self.denom

    def rows(self) -> list:
        """(lambda, F(lambda)) pairs at the jump points, cumulative."""
        return list(zip(self.positions.tolist(), (self._cumulative[1:] / self.denom).tolist()))


def _jump_starts(w: np.ndarray, thr: float, below: int, end: int) -> np.ndarray:
    """The index of the first eigenvalue of every jump, then len(w): one
    jump starts at 0, below and end, and one at each i in (0, below) or
    (end, len(w)) with w[i] - w[i - 1] > thr, tested CHUNK gaps at a time
    into one mask."""
    n = len(w)
    starts = np.zeros(n + 1, dtype=bool)
    starts[[0, below, end, n]] = True
    gap = np.empty(min(n, CHUNK))
    for lo, hi in ((0, below), (end, n)):
        for i in range(lo + 1, hi, CHUNK):
            j = min(i + CHUNK, hi)
            np.greater(np.subtract(w[i:j], w[i - 1:j - 1], out=gap[:j - i]), thr, out=starts[i:j])
    return np.flatnonzero(starts)


def density_from_eigs(e: EigenResult) -> SpectralDensity:
    """Cluster an eigenvalue list into spectral jumps.

    Eigenvalues in the kernel window [-thr, thr] (thr the kernel threshold)
    form one jump at exactly 0.  Outside it, a new jump starts wherever the
    gap to the previous eigenvalue exceeds thr, so one jump can span more
    than thr; the kernel window cuts such chains.  Each jump sits at the
    mean of its eigenvalues, summed in ascending order.  The jump starts
    are the density's cumulative counts, and the means are summed and
    divided in its positions array: no other array of jump or eigenvalue
    length outlives a step.
    """
    w = e.eigenvalues
    thr = e.kernel_threshold
    # below the window: genuinely negative spectrum (non-positive input);
    # inside it: the kernel, since A*A spectra may round slightly negative
    below, end = int(w.searchsorted(-thr, "left")), e.kernel_end()
    cumulative = _jump_starts(w, thr, below, end)
    positions = np.add.reduceat(w, cumulative[:-1], out=np.empty(len(cumulative) - 1))
    for i in range(0, len(positions), CHUNK):
        positions[i:i + CHUNK] /= np.diff(cumulative[i:i + CHUNK + 1])
    if end > below:
        positions[cumulative.searchsorted(below)] = 0.0
    return SpectralDensity(positions, cumulative, e.denom)


def betti(f: SpectralDensity) -> float:
    """F(0): the normalized kernel dimension."""
    return f.evaluate(0.0)


def log_det(e: EigenResult) -> float:
    """Normalized sum of log of the eigenvalues above the kernel threshold:
    eigenvalues[kernel_end():].

    At a finite level this is always finite; an empty sum gives 0.  The
    tail is a view, whose log is the one new array.
    """
    return float(np.sum(np.log(e.eigenvalues[e.kernel_end():]))) / e.denom


def _phase(exponents: Sequence[int], angle, real: bool):
    """The product, in axis order, of exp(i angle(k, e)) over the axes k
    with a nonzero exponent e, each on its own axis: an array that
    broadcasts over the grid, or the scalar 1 when every e is 0.

    With ``real``, its real part, bit for bit: the cosine of the angle when
    one axis moves, the real part of the complex product when several do."""
    n = len(exponents)
    angles = [
        angle(k, e).reshape([-1 if j == k else 1 for j in range(n)])
        for k, e in enumerate(exponents)
        if e
    ]
    if not angles:
        return 1
    if real and len(angles) == 1:
        return np.cos(angles[0], out=angles[0])
    z = reduce(np.multiply, [np.exp(1j * a) for a in angles])
    return z.real if real else z


def _add_symbol(out: np.ndarray, x, phase, slot) -> None:
    """Add c * phase(g) to ``out[slot(g)]`` for every term c*g of the ring
    element x, in term order: x's symbol, one grid of values per slot.
    ``slot(g)`` indexes the first axis of ``out``, and
    ``phase(g, real)`` is the character at g, with ``real`` its real part
    (``_phase``).  A float64 ``out`` takes the real part of each term: a
    real c adds c * phase(g, True), which is Re(c * phase(g)) with no
    complex array, any other c adds Re(complex(c) * phase(g, False)).

    A real c with a one-axis float64 phase z of the slot's length (a rank-1
    level) is added CHUNK elements at a time: each element is one float64
    multiply and one add, the bits of ``out[slot(g)] += c * z``, with no
    product of z's size.  Phases are only read, and each is dropped before
    the next is built, so such a term holds the target and one phase."""
    real = not np.iscomplexobj(out)
    for g, c in x.terms.items():
        s = slot(g)
        chunked = real and c.is_real()
        if chunked:
            z, coef = phase(g, True), float(c.re)
            chunked = np.ndim(z) == 1 and z.shape == out.shape[1:] and z.dtype == np.float64
        else:
            z, coef = phase(g, False), complex(c)
        if chunked:
            t = out[s]
            for i in range(0, len(t), CHUNK):
                t[i:i + CHUNK] += coef * z[i:i + CHUNK]
        else:
            # c * z is freed at once: kept, it would add a block to the peak
            out[s] += (coef * z).real if real else coef * z
        del z


def _is_diagonal(delta: RingMatrix) -> bool:
    """Every off-diagonal entry of the square matrix delta is zero in the ring."""
    d = delta.rows
    return all(delta.entries[k][l].is_zero() for k in range(d) for l in range(d) if k != l)


def _operator_eigenvalues(
    delta: RingMatrix,
    shape: tuple,
    phase,
    group: Group = TrivialGroup(),
    part=lambda g: (),
    real: bool = False,
) -> np.ndarray:
    """Sorted eigenvalues of count = prod(shape) blocks of left
    multiplication over the points ``group.elements()``, one per character
    of a grid of the given shape.

    ``phase(g, real)``, the characters at group element g, broadcasts over
    ``shape`` (``_phase``).  Block entry ((k, u), (l, v)) sums
    c * phase(g) over the terms c*g of entry (k, l) with
    ``group.multiply(part(g), points[v]) == points[u]``, where every slot,
    a distinct value of ``part(g)``, is an element of ``group``.  Real
    float64 blocks when ``real``, where every coefficient of delta must be
    real, complex128 otherwise; each block is rows * |points| square.

    At one point the blocks are d x d, and when delta is diagonal
    (``_is_diagonal``) so are they: the eigenvalues are the real parts of
    the diagonal symbols, each diagonal entry summed in its own row in
    float64 from the real parts of its terms, and no LAPACK call is made.
    That is bit-identical to ``eigvalsh`` on the stack: LAPACK reads only
    the real part of a Hermitian diagonal, ``?heevd`` reduces a diagonal
    matrix with zero reflectors, and ``dsterf`` returns its 1 x 1 blocks as
    they are.  There a term with a real coefficient reads the real phase
    (``_add_symbol``).

    Otherwise, at one point the symbol array, viewed as (count, rows,
    cols), is the stack of blocks, solved by one batched ``eigvalsh``
    without a copy.  At more points each slot is scattered into the blocks
    a slab of consecutive characters at a time: max(1, CHUNK // block
    entries) blocks per slab, built in a fresh array, solved by one
    batched ``eigvalsh`` and freed before the next, their eigenvalues
    written into one (count, rows * |points|) array that is raveled and
    sorted once.  So the level holds its symbol, its eigenvalues and one
    slab.  Each block is the same LAPACK call on the same bytes as in one
    stack of all count blocks, so the eigenvalues are bit for bit the
    stack's.
    """
    points = group.elements()
    rows, cols, n = delta.rows, delta.cols, len(points)
    if n == 1 and _is_diagonal(delta):
        # one array from assembly to sort, each entry assembled in its row
        w = np.zeros((rows,) + shape)
        for k in range(rows):
            _add_symbol(w, delta.entries[k][k], phase, lambda g: k)
        w = w.ravel()
        w.sort()
        return w
    count = math.prod(shape)
    slots = list({part(g) for g in delta.support()})
    slot_index = {s: i for i, s in enumerate(slots)}
    # symbol[k, l, i]: the part of entry (k, l) on terms g with part(g) = slots[i],
    # a contiguous grid of count values
    dtype = np.float64 if real else np.complex128
    symbol = np.zeros((rows, cols, len(slots)) + shape, dtype=dtype)
    for k in range(rows):
        for l in range(cols):
            _add_symbol(symbol[k, l], delta.entries[k][l], phase, lambda g: slot_index[part(g)])
    # viewed as (count, rows, cols, slots)
    symbol = symbol.reshape(rows, cols, len(slots), count).transpose(3, 0, 1, 2)
    if n == 1 and len(slots) == 1:
        # one point, fixed by the one slot: the symbol is the block, no copy
        w = np.linalg.eigvalsh(symbol[..., 0])
    else:
        index = {x: i for i, x in enumerate(points)}
        # slot s puts its coefficient at (u, v) wherever s * points[v] = points[u];
        # no two slots share a (u, v), since s * y = x has one solution s
        targets = [[index[group.multiply(s, y)] for y in points] for s in slots]
        # CHUNK entries of blocks per slab, and at least one block
        per = max(1, CHUNK // max(1, rows * n * cols * n))
        w = np.empty((count, rows * n))
        for lo in range(0, count, per):
            hi = min(lo + per, count)
            blocks = np.zeros((hi - lo, rows, n, cols, n), dtype=symbol.dtype)
            for i, t in enumerate(targets):
                blocks[:, :, t, :, range(n)] = symbol[lo:hi, ..., i]
            w[lo:hi] = np.linalg.eigvalsh(blocks.reshape(hi - lo, rows * n, cols * n))
            del blocks  # freed before the next slab is built
    w = w.ravel()
    w.sort()
    return w


def _leaves(group: Group, get=lambda g: g) -> list:
    """(leaf, payload getter) for every leaf factor of a nested direct
    product, depth first; the getter reads the leaf's payload from an
    element of ``group``."""
    if not isinstance(group, DirectProductGroup):
        return [(group, get)]
    return [
        leaf
        for i, factor in enumerate(group.factors)
        for leaf in _leaves(factor, lambda g, i=i: get(g)[i])
    ]


def _cyclic_split(group: Group) -> tuple:
    """G = H x C, read from the leaf factors of G by their type.

    Cyclic leaves form C, trivial leaves drop out and every other leaf goes
    into H, each in depth-first order.  Returns (H, orders of C, h_part,
    exponents): the H-component of an element (its one H payload, or the
    tuple of them) and the exponents of its C-component.
    """
    leaves = [(leaf, get) for leaf, get in _leaves(group) if not isinstance(leaf, TrivialGroup)]
    h = [(leaf, get) for leaf, get in leaves if not isinstance(leaf, CyclicGroup)]
    c = [(leaf.n, get) for leaf, get in leaves if isinstance(leaf, CyclicGroup)]

    def h_part(g):
        hs = tuple(get(g) for _, get in h)
        return hs[0] if len(hs) == 1 else hs

    return (
        product_group([leaf for leaf, _ in h]),
        [n for n, _ in c],
        h_part,
        lambda g: tuple(get(g) for _, get in c),
    )


def _cyclic_angle(e: int, n: int) -> np.ndarray:
    """The angles -2 pi (k (e / n)) of the characters k = 0..n-1 of Z/n at
    exponent e, whose exp is exp(-2 pi i k e / n).  The float expression
    k * (e / n) is kept as written: other forms of the same value change
    the printed reports."""
    y = np.arange(n, dtype=np.float64)
    y *= e / n
    y *= -2.0 * np.pi
    return y


def finite_spectrum(delta: RingMatrix) -> EigenResult:
    """Spectrum of a self-adjoint matrix over a finite group: the
    eigenvalues of its regular representation, block-diagonalised, at
    delta's default kernel threshold.  Self-adjointness is checked exactly.

    G splits as H x C with C the product of every cyclic factor of G
    (``_cyclic_split``).  The characters of C block-diagonalise the left
    regular representation into |C| blocks of size d|H|: left
    multiplication over H, weighted by the character, on a grid with one
    axis per cyclic factor (``_phase``).  Cyclic products give
    d x d blocks, a bare table one dense block, real when every
    coefficient is.  Spectrally identical to the left regular representation.
    """
    group = delta.group
    if not group.is_finite:
        raise InfiniteGroup(f"finite_spectrum needs a finite group, got {group}")
    if not delta.is_self_adjoint():
        raise NotHermitian(f"{delta} is not self-adjoint")
    check_group_solve(group, delta.rows, f"group {group}")
    h_group, orders, h_part, exponents = _cyclic_split(group)
    total = group.order // h_group.order

    def phase(g, real):
        return _phase(exponents(g), lambda k, e: _cyclic_angle(e, orders[k]), real)

    # with C trivial a table solves one real block when it can; cyclic
    # products keep the complex solve they have always had
    real = (
        total == 1
        and h_group != TrivialGroup()
        and all(e.is_real() for row in delta.entries for e in row)
    )
    w = _operator_eigenvalues(delta, tuple(orders), phase, h_group, h_part, real)
    return EigenResult(w, group.order, default_kernel_threshold(delta))

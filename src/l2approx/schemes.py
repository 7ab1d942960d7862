"""Approximation pipelines.

Two pipelines produce per-level spectral reports for a positive self-adjoint
group-ring matrix: quotient towers (push the matrix onto finite quotients,
take the regular representation) and box Folner exhaustions over Z^n
(band compressions of the operator to boxes).  The schemes themselves are
described in ``groups``; the verdicts on the reports live in ``verdicts``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Optional

from ._lazy import flapack, np
from .errors import (
    BoxTooLarge,
    InjectivityUncertified,
    MismatchedGroup,
    SchemeError,
)
from .groupring import GaussianRational
from .groups import FolnerExhaustion, QuotientTower
from .matrices import RingMatrix, k_bound, trace
from .spectral import (
    EigenResult,
    SpectralDensity,
    check_group_solve,
    default_kernel_threshold,
    density_from_eigs,
    finite_spectrum,
    log_det,
)

NORM_SLACK = 1e-9
# powers m of Delta whose exact traces every tower and Folner level reports
TRACE_POWERS = (1, 2, 3)


# ---------------------------------------------------------------------------
# per-level reports
# ---------------------------------------------------------------------------

@dataclass
class LevelReport:
    """One approximation level: its exact traces and the numbers its
    spectrum gives.  f0 = kernel_end() / denom, logdet, the moments at the
    powers of exact_traces, matrix_size, max_eigenvalue, norm_bound_ok and
    the density are derived from the init-only ``eigen`` when the report is
    made, and the spectrum is not kept: a report holds its density but not
    its eigenvalues.  ``dataclasses.replace`` must be given ``eigen`` again,
    so a report cannot carry a number its spectrum disagrees with.  The
    density comes last: the log and power temporaries of logdet and the
    moments are freed before it exists.  wall_time is the caller's to set."""

    level: object
    eigen: InitVar[EigenResult]
    norm_bound: float
    wall_time: float
    exact_traces: dict = field(default_factory=dict)
    trace_certified: dict = field(default_factory=dict)
    defects: dict = field(default_factory=dict)
    f0: float = field(init=False)
    logdet: float = field(init=False)
    moments: dict = field(init=False)
    matrix_size: int = field(init=False)
    max_eigenvalue: float = field(init=False)
    norm_bound_ok: bool = field(init=False)
    density: SpectralDensity = field(init=False)

    def __post_init__(self, eig: EigenResult):
        self.f0 = eig.kernel_end() / eig.denom
        self.logdet = log_det(eig)
        self.moments = {m: eig.moment(m) for m in self.exact_traces}
        self.matrix_size = len(eig.eigenvalues)
        self.max_eigenvalue = eig.max_eigenvalue
        self.norm_bound_ok = self.max_eigenvalue <= self.norm_bound + NORM_SLACK
        self.density = density_from_eigs(eig)


def _diag_support(delta: RingMatrix) -> set:
    s: set = set()
    for i in range(delta.rows):
        s |= delta.entries[i][i].support()
    return s


def reference_traces(delta: RingMatrix, powers) -> tuple:
    """Exact tr of Delta^m and the diagonal supports, for m in powers."""
    traces = {}
    supports = {}
    power = RingMatrix.identity(delta.group, delta.rows)
    top = max(powers) if powers else 0
    for m in range(1, top + 1):
        power = power @ delta
        if m in powers:
            traces[m] = trace(power)
            supports[m] = _diag_support(power)
    return traces, supports


# ---------------------------------------------------------------------------
# quotient-tower pipeline
# ---------------------------------------------------------------------------

def check_tower_caps(delta: RingMatrix, tower: QuotientTower) -> None:
    """SolveTooLarge for the first level of the tower beyond a solve cap."""
    for phi, label in zip(tower.levels, tower.labels):
        check_group_solve(phi.target, delta.rows, f"tower level {label}")


def run_tower(
    delta: RingMatrix,
    tower: QuotientTower,
    *,
    kernel_threshold: Optional[float] = None,
) -> list:
    """Push a self-adjoint matrix down a tower and report every level.

    Each level records F(0), the normalized log determinant, the density,
    and spectral moments.  Whenever the level certifies injectivity on the
    support of Delta^m, the exact level trace of Delta_i^m is compared with
    the exact trace upstairs and must match exactly.

    Two passes.  The first, in scheme order, pushes every level forward,
    takes its exact traces and certifies them, so the warnings come in
    scheme order and a trace mismatch fails before any eigensolve.  The
    second solves the levels largest first (a stable sort, so equal orders
    keep scheme order), cuts each spectrum at the tower's kernel threshold
    and makes the report straight from it, which the report does not keep:
    each smaller level is solved next to the larger levels' densities, not
    their spectra, and a ladder peaks at its top level.  Reports come back
    in scheme order; a level's wall_time is the sum of its two passes.
    """
    if delta.group != tower.source:
        raise MismatchedGroup(f"matrix over {delta.group}, tower from {tower.source}")
    if not delta.is_self_adjoint():
        raise SchemeError("run_tower expects a self-adjoint (A*A) matrix")
    check_tower_caps(delta, tower)  # before any level runs
    kb = k_bound(delta)
    thr = kernel_threshold if kernel_threshold is not None else default_kernel_threshold(delta)
    ref_traces, ref_supports = reference_traces(delta, TRACE_POWERS)

    levels = []  # (pushed-forward matrix, exact traces, certified, seconds) per level
    for phi, label in zip(tower.levels, tower.labels):
        t0 = time.perf_counter()
        delta_i = delta.push_forward(phi)
        exact_traces, _ = reference_traces(delta_i, TRACE_POWERS)
        certified = {}
        for m in TRACE_POWERS:
            ok = phi.kernel_avoids(ref_supports[m])
            certified[m] = ok
            if not ok:
                warnings.warn(
                    f"level {label} does not certify injectivity for power {m}",
                    InjectivityUncertified,
                )
            elif exact_traces[m] != ref_traces[m]:
                raise SchemeError(
                    f"certified level {label} trace of power {m} "
                    f"({exact_traces[m]}) differs from the exact value {ref_traces[m]}"
                )
        levels.append((delta_i, exact_traces, certified, time.perf_counter() - t0))

    reports = [None] * len(levels)
    for i in sorted(range(len(levels)), key=lambda j: -tower.levels[j].target.order):
        delta_i, exact_traces, certified, seconds = levels[i]
        t0 = time.perf_counter()
        rep = LevelReport(
            tower.labels[i],
            EigenResult(finite_spectrum(delta_i).eigenvalues, delta_i.group.order, thr),
            kb,
            0.0,
            exact_traces,
            certified,
        )
        rep.wall_time = seconds + time.perf_counter() - t0  # the whole level, density included
        reports[i] = rep
    return reports


# ---------------------------------------------------------------------------
# Folner (compression) pipeline over Z^n
# ---------------------------------------------------------------------------

def _support_radius(delta: RingMatrix) -> int:
    """Largest sup-norm of a group element in the support of a Z^n matrix."""
    return max((max(map(abs, g), default=0) for g in delta.support()), default=0)


MAX_BOX_ROWS = 2 ** 14  # rows of one box level
MAX_BAND_ENTRIES = 2 ** 24  # entries of its band


def _band_terms(delta: RingMatrix, weights):
    """(band row, l, g, c) for each term c*g of each Delta_kl: the row
    d * sum_c g_c * weights[c] + k - l of its entries (see ``_box_band``)."""
    d = delta.rows
    for k in range(d):
        for l in range(d):
            for g, c in delta.entries[k][l].terms.items():
                yield d * sum(a * w for a, w in zip(g, weights)) + k - l, l, g, c


def _band_shape(delta: RingMatrix, rank: int, m: int) -> tuple:
    """(N, bandwidth) of the compression of Delta to the box [-m, m]^rank.

    The bandwidth is the largest |band row| of a term of Delta, at most
    N - 1 and at least 0: a matrix with no rows has a (1, 0) band, whose
    solve returns no eigenvalues.  BoxTooLarge beyond MAX_BOX_ROWS rows or
    MAX_BAND_ENTRIES band entries."""
    side = 2 * m + 1
    size = delta.rows * side ** rank
    weights = [side ** (rank - 1 - c) for c in range(rank)]
    reach = max((abs(row) for row, *_ in _band_terms(delta, weights)), default=0)
    bw = max(0, min(size - 1, reach))
    if size > MAX_BOX_ROWS or size * (bw + 1) > MAX_BAND_ENTRIES:
        raise BoxTooLarge(
            f"box m={m} has {size} rows and {size * (bw + 1)} band entries; "
            f"the caps are {MAX_BOX_ROWS} rows and {MAX_BAND_ENTRIES} entries"
        )
    return size, bw


def _box_band(delta: RingMatrix, rank: int, m: int, real: bool) -> np.ndarray:
    """The compression to [-m, m]^rank in LAPACK lower-band storage, entry
    (i, j) at ab[i - j, j].  Row (x, k) is d * (lexicographic index of x) + k,
    so the coefficient c of g in Delta_kl sits at band row
    d * sum_c g_c (2m+1)^(rank-1-c) + k - l of each column (y, l) with y + g
    in the box.  Real float64 when ``real``, complex128 otherwise."""
    d = delta.rows
    side = 2 * m + 1
    weights = [side ** (rank - 1 - c) for c in range(rank)]
    size, bw = _band_shape(delta, rank, m)
    ab = np.zeros((bw + 1, size), dtype=np.float64 if real else np.complex128)
    for row, l, g, c in _band_terms(delta, weights):
        if 0 <= row <= bw:
            # box indices of the y with y + g in the box, per coordinate
            ys = [np.arange(max(0, -a), min(side, side - a)) * w for a, w in zip(g, weights)]
            cols = reduce(np.add.outer, ys, np.zeros((), dtype=np.intp)).ravel()
            ab[row, d * cols + l] = float(c.re) if real else complex(c)
    return ab


def _band_eigenvalues(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix whose lower band is ab
    (``_box_band``): ``dsbevd`` for a real band, ``zhbevd`` for a complex one.
    The same call, with the same checks, as
    ``scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True)``."""
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    name = "zhbevd" if np.iscomplexobj(ab) else "dsbevd"
    w, _, info = getattr(flapack(), name)(ab, compute_v=0, lower=1, overwrite_ab=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed (LAPACK info={info})")
    return w


def compressed_trace_powers(delta: RingMatrix, m: int, powers) -> dict:
    """Exact traces of (P Delta P)^k for the requested powers k, P the
    projection onto the box X = [-m, m]^n.

    tr((P Delta P)^k) sums over closed walks of k support steps, with group
    elements summing to 0, the product of their coefficients times
    |X ∩ (X + s_1) ∩ ... ∩ (X + s_{k-1})| = prod_c max(0, 2m + 1 - span_c)
    for the prefix sums s_i, span_c the range of their coordinate c, 0 included.
    """
    powers = {int(k) for k in powers}
    top = max(powers, default=0)
    side = 2 * m + 1
    steps = [
        [(l, g, c) for l in range(delta.cols) for g, c in delta.entries[k][l].terms.items()]
        for k in range(delta.rows)
    ]
    radius = _support_radius(delta)
    origin = (0,) * delta.group.rank
    out = {k: GaussianRational.of(0) for k in powers}

    def extend(start, k, total, coef, prefixes):
        length = len(prefixes)
        if length in powers and k == start and total == origin:
            spans = (max(v) - min(v) for v in zip(*prefixes))
            out[length] += coef * math.prod(max(0, side - span) for span in spans)
        if length == top:
            return
        reach = (top - length - 1) * radius  # the walk must still get back to 0
        for l, g, c in steps[k]:
            nxt = tuple(a + b for a, b in zip(total, g))
            if all(abs(v) <= reach for v in nxt):
                extend(start, l, nxt, coef * c, prefixes + (total,))

    for k in range(delta.rows):
        extend(k, k, origin, GaussianRational.of(1), ())
    return out


def run_folner(
    delta: RingMatrix,
    exhaustion: FolnerExhaustion,
    *,
    kernel_threshold: Optional[float] = None,
) -> list:
    """Compress a self-adjoint matrix over Z^n to each Folner box.

    Traces of the first few powers of the compression are computed exactly
    and reported next to the exact traces upstairs; the gap is bounded by a
    multiple of the boundary defect and must decrease along the exhaustion.

    Each compression is a band (``_box_band``) solved by LAPACK ``?sbevd``
    or ``?hbevd`` (``_band_eigenvalues``).  That reads only the lower band,
    and the exact ``is_self_adjoint`` check makes the matrix it stands for
    exactly Hermitian: no float check.
    """
    if delta.group != exhaustion.group:
        raise MismatchedGroup(f"matrix over {delta.group}, sets over {exhaustion.group}")
    if not delta.is_self_adjoint():
        raise SchemeError("run_folner expects a self-adjoint matrix")
    rank = exhaustion.group.rank
    _band_shape(delta, rank, exhaustion.labels[-1])  # caps, before any level runs
    kb = k_bound(delta)
    thr = kernel_threshold if kernel_threshold is not None else default_kernel_threshold(delta)
    support_radius = _support_radius(delta)
    real = all(e.is_real() for row in delta.entries for e in row)

    reports = []
    for i, m in enumerate(exhaustion.labels):
        t0 = time.perf_counter()
        nw = (2 * m + 1) ** rank
        exact = compressed_trace_powers(delta, m, TRACE_POWERS)
        exact_traces = {k: GaussianRational.of(Fraction(1, nw)) * exact[k] for k in TRACE_POWERS}
        defects = {k: exhaustion.defect(i, max(1, k * support_radius)) for k in TRACE_POWERS}
        certified = {k: True for k in TRACE_POWERS}
        rep = LevelReport(
            m,
            EigenResult(_band_eigenvalues(_box_band(delta, rank, m, real)), nw, thr),
            kb,
            0.0,
            exact_traces,
            certified,
            defects,
        )
        rep.wall_time = time.perf_counter() - t0  # the whole level, density included
        reports.append(rep)
    return reports


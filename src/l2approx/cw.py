"""Cellular chain complexes over group rings and their L2 invariants.

A complex is a list of cell counts per degree plus boundary matrices
(``matrices.ChainComplexSpec``); the degree-p Laplacian combines the
boundary leaving degree p and the boundary entering it.  Invariants per
degree (kernel mass, log determinant) come from either the torus oracle
(free abelian groups), the exact finite-group spectrum, or a quotient
tower, and combine into torsion when the complex is L2-acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotAComplex, ProblemFormatError, SchemeError
from .groups import FreeAbelianGroup
from .matrices import ChainComplexSpec, RingMatrix, laplacian
from .oracles import check_torus_grid, torus_kernel_logdet
from .schemes import QuotientTower, run_tower
from .spectral import (
    EigenResult,
    _is_diagonal,
    check_group_solve,
    check_solve_size,
    default_kernel_threshold,
    finite_spectrum,
    log_det,
)
from .verdicts import DEFAULT_TOL, Context, sintapr

ACYCLICITY_TOL = 0.01


def validate(spec: ChainComplexSpec) -> None:
    """Exact chain-complex checks: shapes, groups, and boundary squared = 0."""
    for p, b in enumerate(spec.boundaries, start=1):
        if b.group != spec.group:
            raise NotAComplex(p, f"boundary {p} lives over {b.group}, not {spec.group}")
        if b.shape != (spec.dims[p - 1], spec.dims[p]):
            raise NotAComplex(
                p,
                f"boundary {p} has shape {b.shape}, expected "
                f"({spec.dims[p - 1]}, {spec.dims[p]})",
            )
    for p in range(1, spec.top_degree):
        down = spec.boundaries[p - 1]
        up = spec.boundaries[p]
        if (down @ up) != RingMatrix.zero(spec.group, down.rows, up.cols):
            raise NotAComplex(p + 1, f"boundary composition at degree {p + 1} is nonzero")


def laplacians(spec: ChainComplexSpec) -> list:
    """Degree-wise combinatorial Laplacians."""
    return [
        laplacian(spec.boundary(p), spec.boundary(p + 1))
        for p in range(len(spec.dims))
    ]


@dataclass
class L2Report:
    """Per-degree invariants plus derived global quantities."""

    betti: list
    logdet: list
    det_class: list
    torsion: Optional[float]
    acyclic: bool
    euler_l2: float
    euler_cells: int
    method: str
    dims: list


def _summands(delta: RingMatrix) -> list:
    """The direct summands of delta: its 1 x 1 diagonal entries when it is
    diagonal (``_is_diagonal``), else delta itself."""
    if _is_diagonal(delta):
        return [RingMatrix.from_element(delta.entries[k][k]) for k in range(delta.rows)]
    return [delta]


def _summand_solve(x: RingMatrix, grid: int, thresholds: list) -> dict:
    """{t: (kernel count at t, log det)} for every t in thresholds, from one
    solve of x: on the torus the log det keeps every positive eigenvalue
    (``torus_kernel_logdet``), on a finite group it drops those up to t,
    read through an EigenResult with threshold t on the one spectrum."""
    group = x.group
    if isinstance(group, FreeAbelianGroup) and group.rank > 0:
        counts, logdet = torus_kernel_logdet(x, grid, thresholds)
        return {t: (count, logdet) for t, count in zip(thresholds, counts)}
    eig = finite_spectrum(x)
    cuts = [EigenResult(eig.eigenvalues, eig.denom, t) for t in thresholds]
    return {cut.kernel_threshold: (cut.kernel_end(), log_det(cut)) for cut in cuts}


def _oracle_degrees(deltas: list, grid: int, denom: int) -> list:
    """(F(0), log det, True) of each Laplacian, from its direct summands.

    b^(2) and the Fuglede-Kadison determinant are additive over direct sums,
    so each distinct summand of the complex is solved once: the torus's
    Delta_1 = Delta_0 + Delta_0 solves nothing of its own.  Each Laplacian
    keeps its own kernel threshold, whose k_bound carries its d^2, and a
    summand's solve reads its kernel count at the threshold of every
    Laplacian that holds it.  F(0) is the integer sum of the counts over
    denom (grid points or |G|), bit for bit the whole operator's; the log
    det is the sum of the summands', each on the torus a sum over the
    grid's slabs (``torus_kernel_logdet``), which may differ from the
    whole operator's sorted sum in the last bits."""
    split = {
        delta: (default_kernel_threshold(delta), _summands(delta)) for delta in dict.fromkeys(deltas)
    }
    need = {}
    for t, xs in split.values():
        for x in xs:
            need.setdefault(x, set()).add(t)
    solved = {x: _summand_solve(x, grid, sorted(ts)) for x, ts in need.items()}
    degrees = {}
    for delta, (t, xs) in split.items():
        parts = [solved[x][t] for x in xs]
        degrees[delta] = (sum(c for c, _ in parts) / denom, sum((ld for _, ld in parts), 0.0), True)
    return [degrees[delta] for delta in deltas]


def _tower_degree(delta: RingMatrix, tower: QuotientTower, tol: float):
    reports = run_tower(delta, tower)
    det_ok = all(rep.logdet >= -tol for rep in reports)
    if det_ok and delta.rows > 0:
        det_ok = sintapr(Context(delta, delta, reports, tol=tol))["ok"]
    return reports[-1].f0, reports[-1].logdet, det_ok


def l2_invariants(
    spec: ChainComplexSpec,
    *,
    oracle_grid: Optional[int] = None,
    tower: Optional[QuotientTower] = None,
    tol: float = DEFAULT_TOL,
) -> L2Report:
    """Betti numbers, determinants and torsion of a validated complex.

    Exactly one computation route is used: a torus/finite oracle (default,
    grid configurable) or a user-supplied quotient tower.  Torsion is the
    alternating degree-weighted sum of log determinants, defined only when
    every Betti estimate is below the acyclicity tolerance.
    """
    validate(spec)
    if tower is not None and oracle_grid is not None:
        raise SchemeError("pick one of oracle_grid / tower, not both")
    # the caps that need only the widest Laplacian's max(dims) rows are
    # checked before the exact Laplacians are built, and every cap before
    # the first solve of any degree
    rows = max(spec.dims, default=0)
    group = spec.group
    torus = tower is None and isinstance(group, FreeAbelianGroup) and group.rank > 0
    if tower is None:
        grid = int(oracle_grid) if oracle_grid is not None else 1024
        method = f"oracle(grid={grid})"
        if torus:
            check_solve_size(grid ** group.rank, rows, f"oracle grid {grid}")
        elif group.is_finite:
            check_group_solve(group, rows, f"group {group}")
        else:
            raise ProblemFormatError(
                f"the oracle route needs a free abelian or finite group, got {group}"
            )
    else:
        method = f"tower(levels={tower.labels})"
        for phi, label in zip(tower.levels, tower.labels):
            check_group_solve(phi.target, rows, f"tower level {label}")
    deltas = laplacians(spec)
    if torus:
        # the symbol stack cap exempts diagonal Laplacians, so it needs them
        for delta in sorted(deltas, key=lambda x: -x.rows):
            check_torus_grid(delta, grid)
    if tower is None:
        results = _oracle_degrees(deltas, grid, grid ** group.rank if torus else group.order)
    else:
        # the tower route runs each distinct Laplacian whole (the circle's
        # Delta_0 and Delta_1 are one run): its sintapr determinant-class
        # verdict is defined on the whole operator, not on its summands
        solved = {delta: _tower_degree(delta, tower, tol) for delta in dict.fromkeys(deltas)}
        results = [solved[delta] for delta in deltas]
    bettis = [b for b, _, _ in results]
    logdets = [ld for _, ld, _ in results]
    det_class = [ok for _, _, ok in results]
    acyclic = all(b <= ACYCLICITY_TOL for b in bettis)
    torsion = None
    if acyclic:
        torsion = sum((-1) ** p * p * logdets[p] for p in range(len(logdets)))
    euler_l2 = sum((-1) ** p * bettis[p] for p in range(len(bettis)))
    euler_cells = sum((-1) ** p * spec.dims[p] for p in range(len(spec.dims)))
    return L2Report(
        betti=bettis,
        logdet=logdets,
        det_class=det_class,
        torsion=torsion,
        acyclic=acyclic,
        euler_l2=euler_l2,
        euler_cells=euler_cells,
        method=method,
        dims=list(spec.dims),
    )


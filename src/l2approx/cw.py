"""Cellular chain complexes over group rings and their L2 invariants.

A complex is a list of cell counts per degree plus boundary matrices; the
degree-p Laplacian combines the boundary leaving degree p and the boundary
entering it.  Invariants per degree (kernel mass, log determinant) come from
either the torus oracle (free abelian groups), the exact finite-group
spectrum, or a quotient tower, and combine into torsion when the complex is
L2-acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .errors import NotAComplex, SchemeError, TorsionUndefined, WrongGroup
from .groups import FreeAbelianGroup, Group
from .matrices import RingMatrix, laplacian
from .oracles import _positive_log_det, torus_eigen_result
from .schemes import QuotientTower, run_tower, sintapr_check
from .spectral import betti, density_from_eigs, finite_spectrum, log_det

ACYCLICITY_TOL = 0.01


@dataclass(frozen=True)
class ChainComplexSpec:
    """Cell counts per degree and boundary maps boundaries[p]: C_{p+1} -> C_p."""

    group: Group
    dims: tuple
    boundaries: tuple

    def __post_init__(self):
        if len(self.boundaries) != max(0, len(self.dims) - 1):
            raise NotAComplex(
                None,
                f"{len(self.dims)} degrees need {max(0, len(self.dims) - 1)} boundaries, "
                f"got {len(self.boundaries)}",
            )

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def boundary(self, p: int) -> Optional[RingMatrix]:
        """The boundary map leaving degree p (None at the bottom)."""
        if 1 <= p <= self.top_degree:
            return self.boundaries[p - 1]
        return None


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
    out = []
    for p in range(len(spec.dims)):
        out.append(
            laplacian(
                spec.boundary(p),
                spec.boundary(p + 1),
                group=spec.group,
                dim=spec.dims[p],
            )
        )
    return out


@dataclass
class L2Report:
    """Per-degree invariants plus derived global quantities."""

    betti: list
    logdet: list
    det_class: list
    det_lower_bound: list
    torsion: Optional[float]
    acyclic: bool
    euler_l2: float
    euler_cells: int
    method: str
    details: dict

    def require_torsion(self) -> float:
        if self.torsion is None:
            raise TorsionUndefined(
                f"complex is not L2-acyclic within {ACYCLICITY_TOL}: betti={self.betti}"
            )
        return self.torsion


def _oracle_degree(delta: RingMatrix, grid: int):
    group = delta.group
    if isinstance(group, FreeAbelianGroup) and group.rank > 0:
        eig = torus_eigen_result(delta, grid)
        logdet = _positive_log_det(eig)
    elif group.is_finite:
        eig = finite_spectrum(delta)
        logdet = log_det(eig)
    else:
        raise WrongGroup(f"no oracle available for {group}")
    return betti(density_from_eigs(eig)), logdet, True


def _tower_degree(delta: RingMatrix, tower: QuotientTower, tol: float):
    reports = run_tower(delta, tower)
    last = reports[-1]
    det_ok = all(rep.logdet >= -tol for rep in reports)
    if det_ok and delta.rows > 0:
        kmax = max(rep.max_eigenvalue for rep in reports)
        k_for_bound = max(kmax, 1.0) * (1.0 + 1e-9) + 1e-12
        verdict = sintapr_check(reports, d=delta.rows, K=k_for_bound, tol=tol)
        det_ok = verdict["ok"]
    return last.f0, last.logdet, det_ok


def l2_invariants(
    spec: ChainComplexSpec,
    *,
    oracle_grid: Optional[int] = None,
    tower: Optional[QuotientTower] = None,
    tol: float = 0.02,
    acyclicity_tol: float = ACYCLICITY_TOL,
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
    deltas = laplacians(spec)
    if tower is None:
        grid = int(oracle_grid) if oracle_grid is not None else 1024
        method = f"oracle(grid={grid})"
        degree = partial(_oracle_degree, grid=grid)
    else:
        method = f"tower(levels={tower.labels})"
        degree = partial(_tower_degree, tower=tower, tol=tol)
    results = [degree(delta) for delta in deltas]
    bettis = [b for b, _, _ in results]
    logdets = [ld for _, ld, _ in results]
    det_class = [ok for _, _, ok in results]
    per_degree = [{"betti": b, "logdet": ld} for b, ld, _ in results]
    acyclic = all(b <= acyclicity_tol for b in bettis)
    torsion = None
    if acyclic:
        torsion = sum((-1) ** p * p * logdets[p] for p in range(len(logdets)))
    euler_l2 = sum((-1) ** p * bettis[p] for p in range(len(bettis)))
    euler_cells = sum((-1) ** p * spec.dims[p] for p in range(len(spec.dims)))
    return L2Report(
        betti=bettis,
        logdet=logdets,
        det_class=det_class,
        det_lower_bound=[min(ld, 0.0) for ld in logdets],
        torsion=torsion,
        acyclic=acyclic,
        euler_l2=euler_l2,
        euler_cells=euler_cells,
        method=method,
        details={"per_degree": per_degree, "dims": list(spec.dims)},
    )


def circle_complex() -> ChainComplexSpec:
    """The circle: one 0-cell, one 1-cell, boundary t - 1 over Z."""
    from .groupring import RingElement

    z = FreeAbelianGroup(1)
    t = RingElement.delta(z, (1,))
    d1 = RingMatrix(z, [[t - 1]])
    return ChainComplexSpec(z, (1, 1), (d1,))


def torus_complex() -> ChainComplexSpec:
    """The 2-torus with its standard CW structure over Z^2."""
    from .groupring import RingElement

    z2 = FreeAbelianGroup(2)
    a = RingElement.delta(z2, (1, 0))
    b = RingElement.delta(z2, (0, 1))
    d1 = RingMatrix(z2, [[a - 1, b - 1]])
    d2 = RingMatrix(z2, [[b - 1], [1 - a]])
    return ChainComplexSpec(z2, (1, 2, 1), (d1, d2))


def point_complex() -> ChainComplexSpec:
    """A single 0-cell over the trivial group."""
    from .groups import TrivialGroup

    return ChainComplexSpec(TrivialGroup(), (1,), ())

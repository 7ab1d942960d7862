"""Verdicts: the certificates checked on the finite levels of a run.

Every verdict is one function of one ``Context`` and returns a dict with
``ok`` and its own fields: subgroup invariance of densities, the vanishing
Whitehead determinant of an invertible matrix, the kernel comparison for
complex coefficients, the two-sided density squeeze against an oracle, the
determinant semicontinuity estimate, the Folner trace gaps and the norm
bounds.  Each function is named after its check: ``jsonio.VERDICTS`` lists
the names with the schemes that serve each and what it needs beyond them,
in the order a run evaluates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from ._lazy import np
from .errors import (
    HypothesisViolated,
    InfiniteGroup,
    InsufficientLevels,
    MalformedGroup,
    NotInverse,
    SchemeError,
)
from .groups import Homomorphism
from .matrices import RingMatrix, k_bound
from .oracles import torus_eigen_result, torus_logdet_report
from .schemes import NORM_SLACK, TRACE_POWERS, LevelReport, reference_traces
from .spectral import (
    CHUNK,
    EigenResult,
    SpectralDensity,
    betti,
    density_from_eigs,
    finite_spectrum,
)

# the verdict tolerance of approx --tol, cw --levels, every Context and
# verify's torus logdet lower bound
DEFAULT_TOL = 0.02

# the fewest levels a squeeze reads: its tail is their last third
SQUEEZE_LEVELS = 3


@dataclass
class Context:
    """What a verdict reads: the problem's A (``matrix``) with its optional
    ``inverse`` and ``embedding``; the operator ``delta`` the levels ran
    (A*A under whitehead, else A) and their ``reports``; the oracle
    ``grid`` (None where no oracle serves), the ``lambda_grid`` and
    ``tol``.  The oracle is solved here, on first read, for every verdict."""

    matrix: RingMatrix
    delta: Optional[RingMatrix] = None
    reports: Sequence[LevelReport] = ()
    inverse: Optional[RingMatrix] = None
    embedding: Optional[Homomorphism] = None
    grid: Optional[int] = None
    lambda_grid: Sequence[float] = ()
    tol: float = DEFAULT_TOL

    @cached_property
    def oracle_eig(self) -> EigenResult:
        """delta on the fine torus grid: the one solve of the oracle."""
        return torus_eigen_result(self.delta, self.grid)

    @cached_property
    def oracle(self) -> Optional[dict]:
        """The oracle logdet report of that solve, or None with no grid."""
        return None if self.grid is None else torus_logdet_report(self.delta, self.grid, self.oracle_eig)

    @cached_property
    def oracle_density(self) -> SpectralDensity:
        """The oracle solve clustered into a density."""
        return density_from_eigs(self.oracle_eig)


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


def subgroup(ctx: Context) -> dict:
    """Induce A along a finite-group embedding and compare densities.

    The spectral density of a matrix over U and of the induced matrix over
    the ambient group agree; ``max_deviation`` is the largest gap at a jump
    point, matched up to 1e-9 of jitter (``densities_match``).
    """
    delta_u, embedding = ctx.matrix, ctx.embedding
    if embedding.source != delta_u.group:
        raise MalformedGroup("embedding source does not match the matrix group")
    if not embedding.source.is_finite or not embedding.target.is_finite:
        raise InfiniteGroup("subgroup invariance check needs finite groups")
    # a homomorphism is injective iff its kernel is trivial
    if not embedding.kernel_avoids(embedding.source.elements()):
        raise MalformedGroup("the supplied homomorphism is not injective")
    # injective, so push-forward keeps every coefficient, in term order, and
    # both operators have the same default kernel threshold
    delta_pi = delta_u.push_forward(embedding)
    f_u = density_from_eigs(finite_spectrum(delta_u))
    f_pi = density_from_eigs(finite_spectrum(delta_pi))
    ok, dev = densities_match(f_u, f_pi)
    return {"ok": ok, "max_deviation": dev}


def whitehead(ctx: Context) -> dict:
    """Vanishing of the determinant on invertible matrices.

    Verifies A B = B A = I exactly over the ring, B the ``inverse``; every
    level log determinant (the levels ran A*A) and the torus oracle value of
    A*A (``oracle``; None off Z^n) must vanish within tolerance.
    Non-integral inputs are accepted but flagged, since the vanishing
    statement needs integer entries.
    """
    a, b, tol = ctx.matrix, ctx.inverse, ctx.tol
    ident = RingMatrix.identity(a.group, a.rows)
    if a @ b != ident or b @ a != ident:
        raise NotInverse("A and B are not exact two-sided inverses")
    levels_ok = all(abs(rep.logdet) <= tol for rep in ctx.reports)
    oracle_ok = ctx.oracle is None or abs(ctx.oracle["value"]) <= tol / 2
    return {
        "ok": levels_ok and oracle_ok,
        "integral": a.is_integral() and b.is_integral(),
        "levels_ok": levels_ok,
        "logdets": [rep.logdet for rep in ctx.reports],
        "oracle": ctx.oracle,
        "oracle_ok": oracle_ok,
        "tol": tol,
    }


# named after its check like every verdict; it shadows the builtin only in
# this module, which does not use it
def complex(ctx: Context) -> dict:
    """Tail F(0) of a tower run against the torus-density oracle; valid over
    Z^n without any integrality assumption, so it serves complex coefficients."""
    tail_f0 = ctx.reports[-1].f0
    oracle_f0 = betti(ctx.oracle_density)
    return {
        "ok": abs(tail_f0 - oracle_f0) <= ctx.tol,
        "tail_f0": tail_f0,
        "oracle_f0": oracle_f0,
        "tol": ctx.tol,
        "oracle_grid": ctx.grid,
    }


def check_levels(checks, count: int) -> None:
    """InsufficientLevels when ``checks`` hold a squeeze over fewer than
    SQUEEZE_LEVELS levels: the squeeze checks its reports, and a tower run
    its levels before any runs."""
    if "squeeze" in checks and count < SQUEEZE_LEVELS:
        raise InsufficientLevels(f"squeeze needs >= {SQUEEZE_LEVELS} levels, got {count}")


def squeeze(ctx: Context) -> dict:
    """Two-sided squeeze of the level densities against an oracle density.

    Over the tail (last third) of the levels, the upper envelope at lambda
    must not exceed the oracle there, and the oracle must not exceed the
    lower envelope at the next grid point, both up to tol.
    """
    reports, tol = ctx.reports, ctx.tol
    check_levels(("squeeze",), len(reports))
    tail = reports[-math.ceil(len(reports) / 3):]
    grid = sorted(float(x) for x in ctx.lambda_grid)
    rows = []
    for lam, following in zip(grid, grid[1:] + [None]):
        fbar = max(rep.density.evaluate(lam) for rep in tail)
        f_oracle = ctx.oracle_density.evaluate(lam)
        flow_next = None
        if following is not None:
            flow_next = min(rep.density.evaluate(following) for rep in tail)
        ok = fbar <= f_oracle + tol and (flow_next is None or f_oracle <= flow_next + tol)
        rows.append(
            {"lambda": lam, "fbar": fbar, "oracle": f_oracle, "flow_next": flow_next, "ok": ok}
        )
    return {"ok": all(row["ok"] for row in rows), "tol": tol, "rows": rows}


def density_tail_integral(density: SpectralDensity, k: float) -> float:
    """integral over (0, K] of (F(lambda) - F(0)) / lambda d lambda for a
    step function, evaluated exactly from the jumps.

    Jumps within rounding slack of K count as inside, so a spectrum whose
    top eigenvalue equals K stays consistent with the logdet identity.
    The positions ascend, so the jumps inside are one slice; it is summed
    CHUNK jumps at a time, the running total carried into each chunk.
    """
    slack = 1e-9 * max(1.0, k)
    pos = density.positions
    lo, hi = pos.searchsorted(0.0, "right"), pos.searchsorted(k + slack, "right")
    total = 0.0
    for start in range(lo, hi, CHUNK):
        stop = min(start + CHUNK, hi)
        # math.log, not np.log, whose last bit differs on some inputs
        logs = np.fromiter(map(math.log, (k / pos[start:stop]).tolist()), dtype=np.float64)
        terms = np.diff(density._cumulative[start:stop + 1]) / density.denom * logs
        # a running sum in jump order, from the total so far; np.sum would
        # add pairwise
        terms[0] += total
        total = float(np.cumsum(terms, out=terms)[-1])
    return total


def sintapr(ctx: Context) -> dict:
    """Determinant semicontinuity certification.

    Requires every level log determinant to be >= -tol (the semi-integral
    hypothesis).  Per level checks the integral identity bound
    I_i <= ln(K)(d - F_i(0)) and the consistency of logdet with the
    integral; finally compares the tail-end logdet against the oracle
    value, where there is one.  K is max(norm_bound, 1), the k_bound of the
    operator every level ran, and d its size.
    """
    reports, tol = ctx.reports, ctx.tol
    K = max(reports[0].norm_bound, 1.0)
    for rep in reports:
        if rep.logdet < -tol:
            raise HypothesisViolated(
                f"level {rep.level} has logdet {rep.logdet:.6g} < {-tol}"
            )
        if rep.max_eigenvalue > K + NORM_SLACK:
            raise SchemeError(
                f"level {rep.level} spectrum exceeds K={K}: {rep.max_eigenvalue}"
            )
    rows = []
    for rep in reports:
        integral = density_tail_integral(rep.density, K)
        bound = math.log(K) * (ctx.delta.rows - rep.f0)
        identity_gap = abs(rep.logdet - (bound - integral))
        ok = integral <= bound + tol and identity_gap <= 1e-8
        rows.append(
            {
                "level": rep.level,
                "integral": integral,
                "bound": bound,
                "logdet": rep.logdet,
                "identity_gap": identity_gap,
                "ok": ok,
            }
        )
    limsup_estimate = reports[-1].logdet
    oracle_logdet = ctx.oracle["value"] if ctx.oracle else None
    oracle_ok = True
    if oracle_logdet is not None:
        oracle_ok = limsup_estimate <= oracle_logdet + tol
    return {
        "ok": all(row["ok"] for row in rows) and oracle_ok,
        "tol": tol,
        "rows": rows,
        "limsup_estimate": limsup_estimate,
        "oracle_logdet": oracle_logdet,
        "oracle_ok": oracle_ok,
    }


def traces(ctx: Context) -> dict:
    """Folner trace convergence.

    At every box, the gap between each exact compressed trace and the exact
    trace of Delta^m upstairs; the worst gap must not grow along the
    exhaustion and must end below 1e-2.
    """
    ref, _ = reference_traces(ctx.delta, TRACE_POWERS)
    rows = []
    for rep in ctx.reports:
        gaps = {str(m): abs(float(t.re) - float(ref[m].re)) for m, t in rep.exact_traces.items()}
        rows.append({"level": rep.level, "trace_gaps": gaps})
    worst = [max(row["trace_gaps"].values()) for row in rows]
    shrinking = all(b <= a + 1e-12 for a, b in zip(worst, worst[1:]))
    return {"ok": bool(worst) and shrinking and worst[-1] < 1e-2, "rows": rows}


def norms(ctx: Context) -> dict:
    """Every level's spectrum lies below its a-priori norm bound; reports
    A's ``k_bound`` and the largest eigenvalue of any level."""
    return {
        "ok": all(rep.norm_bound_ok for rep in ctx.reports),
        "k_bound": k_bound(ctx.matrix),
        "max_eigenvalue": max(rep.max_eigenvalue for rep in ctx.reports),
    }

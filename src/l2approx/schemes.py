"""Approximation pipelines and their certification checks.

Two pipelines produce per-level spectral reports for a positive self-adjoint
group-ring matrix: quotient towers (push the matrix onto finite quotients,
take the regular representation) and box Folner exhaustions over Z^n
(compress the operator to a finite window).  On top of the reports sit the
certification checks: sandwich polynomials squeezing characteristic
functions, the two-sided density squeeze against an oracle, the determinant
semicontinuity estimate, and the Whitehead-determinant test for invertible
integer matrices.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import (
    CertificationFailed,
    HypothesisViolated,
    InjectivityUncertified,
    InsufficientLevels,
    MismatchedGroup,
    NotInverse,
    SchemeError,
    WrongGroup,
)
from .groupring import GaussianRational
from .groups import FreeAbelianGroup, Group, Homomorphism, free_abelian_quotient
from .matrices import RingMatrix, k_bound, positive_square, trace
from .oracles import torus_eigen_result, torus_logdet_report
from .spectral import (
    EigenResult,
    SpectralDensity,
    _operator_blocks,
    betti,
    default_kernel_threshold,
    density_from_eigs,
    finite_spectrum,
    log_det,
)

NORM_SLACK = 1e-9


# ---------------------------------------------------------------------------
# scheme descriptions
# ---------------------------------------------------------------------------

class QuotientTower:
    """An ordered family of surjections from one group onto finite groups."""

    def __init__(self, source: Group, levels: Sequence[Homomorphism], labels=None):
        levels = list(levels)
        for phi in levels:
            if phi.source != source:
                raise MismatchedGroup(f"level source {phi.source} != {source}")
            if not phi.target.is_finite:
                raise SchemeError(f"tower target {phi.target} is not finite")
        self.source = source
        self.levels = levels
        self.labels = list(labels) if labels is not None else list(range(len(levels)))
        if len(self.labels) != len(levels):
            raise SchemeError("labels length does not match levels")

    def __len__(self):
        return len(self.levels)

    @staticmethod
    def zn(rank: int, moduli: Sequence[int]) -> "QuotientTower":
        """The standard tower Z^rank -> (Z/N)^rank for N in moduli."""
        homs = [free_abelian_quotient(rank, int(n)) for n in moduli]
        return QuotientTower(FreeAbelianGroup(rank), homs, labels=[int(n) for n in moduli])

    @staticmethod
    def constant(group: Group, count: int) -> "QuotientTower":
        """Identity levels over a finite group (a stationary tower)."""
        if not group.is_finite:
            raise SchemeError("constant towers need a finite group")
        ident = Homomorphism(group, group, element_map={g: g for g in group.elements()})
        return QuotientTower(group, [ident] * count, labels=list(range(count)))

    def injectivity_certificate(self, index: int, support) -> bool:
        """Certify that level `index` separates the given support set
        (checked on the difference set, per the residual-limit argument)."""
        return self.levels[index].injective_on(support)


class FolnerExhaustion:
    """Nested finite subsets of Z^n with the sup-norm word metric.

    The built-in family is the boxes [-m, m]^n; arbitrary nested sets may be
    supplied explicitly (they are checked for nestedness).
    """

    def __init__(self, group: Group, box_sizes=None, explicit_sets=None):
        if not isinstance(group, FreeAbelianGroup):
            raise WrongGroup(f"Folner exhaustions are built in for Z^n only, got {group}")
        self.group = group
        self.box_sizes = None
        self.explicit_sets = None
        if box_sizes is not None:
            sizes = [int(m) for m in box_sizes]
            if any(m < 0 for m in sizes) or any(
                a >= b for a, b in zip(sizes, sizes[1:])
            ):
                raise SchemeError("box sizes must be strictly increasing and >= 0")
            self.box_sizes = sizes
        elif explicit_sets is not None:
            sets = [sorted(set(map(tuple, s))) for s in explicit_sets]
            for a, b in zip(sets, sets[1:]):
                if not set(a) <= set(b):
                    raise SchemeError("explicit Folner sets must be nested")
            for s in sets:
                for x in s:
                    group.check(x)
            self.explicit_sets = sets
        else:
            raise SchemeError("need box_sizes or explicit_sets")

    def __len__(self):
        return len(self.box_sizes if self.box_sizes is not None else self.explicit_sets)

    @property
    def labels(self):
        if self.box_sizes is not None:
            return list(self.box_sizes)
        return list(range(len(self.explicit_sets)))

    def set_at(self, index: int) -> list:
        if self.box_sizes is not None:
            m = self.box_sizes[index]
            return list(itertools.product(range(-m, m + 1), repeat=self.group.rank))
        return list(self.explicit_sets[index])

    def defect(self, index: int, k: int) -> float:
        """|N_k(X)| / |X| where N_k(X) is the two-sided k-collar of the
        boundary: points within distance k of both X and its complement."""
        if k < 0:
            raise ValueError("k must be >= 0")
        n = self.group.rank
        if self.box_sizes is not None:
            m = self.box_sizes[index]
            if k == 0:
                return 0.0
            outer = (2 * (m + k) + 1) ** n
            inner = (2 * (m - k) + 1) ** n if m - k >= 0 else 0
            return (outer - inner) / (2 * m + 1) ** n
        return self._defect_brute(self.explicit_sets[index], k)

    def _defect_brute(self, points, k: int) -> float:
        pts = set(points)
        if k == 0:
            return 0.0
        n = self.group.rank
        collar = 0
        # every candidate is within distance k of the set by construction
        candidates = set()
        for p in pts:
            for off in itertools.product(range(-k, k + 1), repeat=n):
                candidates.add(tuple(a + b for a, b in zip(p, off)))
        for x in candidates:
            if x not in pts:
                collar += 1  # distance to the complement is 0
                continue
            dout = None
            for r in range(1, k + 1):
                shell = (
                    tuple(a + b for a, b in zip(x, off))
                    for off in itertools.product(range(-r, r + 1), repeat=n)
                    if max(abs(v) for v in off) == r
                )
                if any(s not in pts for s in shell):
                    dout = r
                    break
            if dout is not None:
                collar += 1
        return collar / len(pts)

    def defect_profile(self, k: int) -> list:
        return [self.defect(i, k) for i in range(len(self))]

    def check_defect_decreasing(self, k: int):
        """Returns (ok, start_index): the profile must be nonincreasing from
        some index onward."""
        prof = self.defect_profile(k)
        start = len(prof) - 1
        while start > 0 and prof[start - 1] >= prof[start]:
            start -= 1
        return start < len(prof) - 1 or len(prof) <= 1, start


def build_boxes_folner(rank: int, m_values: Sequence[int]) -> FolnerExhaustion:
    """Boxes [-m, m]^rank for the given strictly increasing m values."""
    return FolnerExhaustion(FreeAbelianGroup(rank), box_sizes=m_values)


# ---------------------------------------------------------------------------
# per-level reports
# ---------------------------------------------------------------------------

@dataclass
class LevelReport:
    """One approximation level: kernel mass, log determinant, density."""

    level: object
    f0: float
    logdet: float
    density: SpectralDensity
    matrix_size: int
    wall_time: float
    max_eigenvalue: float
    norm_bound: float
    norm_bound_ok: bool
    eigen: EigenResult = field(repr=False)
    moments: dict = field(default_factory=dict)
    exact_traces: dict = field(default_factory=dict)
    trace_certified: dict = field(default_factory=dict)
    defects: dict = field(default_factory=dict)


def _level_report(
    level,
    eig: EigenResult,
    norm_bound: float,
    t0: float,
    exact_traces: dict,
    trace_certified: dict,
    defects: Optional[dict] = None,
) -> LevelReport:
    """Assemble one level's report from its spectrum and exact traces; the
    moments are taken at the powers of exact_traces and wall_time runs from
    t0 to the end of the assembly."""
    dens = density_from_eigs(eig)
    f0 = betti(dens)
    logdet = log_det(eig)
    moments = {m: eig.moment(m) for m in exact_traces}
    return LevelReport(
        level=level,
        f0=f0,
        logdet=logdet,
        density=dens,
        matrix_size=len(eig.eigenvalues),
        wall_time=time.perf_counter() - t0,
        max_eigenvalue=eig.max_eigenvalue,
        norm_bound=norm_bound,
        norm_bound_ok=eig.max_eigenvalue <= norm_bound + NORM_SLACK,
        eigen=eig,
        moments=moments,
        exact_traces=exact_traces,
        trace_certified=trace_certified,
        defects=defects or {},
    )


def _diag_support(delta: RingMatrix) -> set:
    s: set = set()
    for i in range(delta.rows):
        s |= delta.entries[i][i].support()
    return s


def _reference_traces(delta: RingMatrix, powers) -> tuple:
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

def run_tower(
    delta: RingMatrix,
    tower: QuotientTower,
    *,
    kernel_threshold: Optional[float] = None,
    exact_powers: Sequence[int] = (1, 2, 3),
) -> list:
    """Push a self-adjoint matrix down a tower and report every level.

    Each level records F(0), the normalized log determinant, the density,
    and spectral moments.  Whenever the level certifies injectivity on the
    support of Delta^m, the exact level trace of Delta_i^m is compared with
    the exact trace upstairs and must match exactly.
    """
    if delta.group != tower.source:
        raise MismatchedGroup(f"matrix over {delta.group}, tower from {tower.source}")
    if not delta.is_self_adjoint():
        raise SchemeError("run_tower expects a self-adjoint (A*A) matrix")
    kb = k_bound(delta)
    thr = kernel_threshold if kernel_threshold is not None else default_kernel_threshold(delta)
    powers = tuple(sorted(set(int(m) for m in exact_powers)))
    ref_traces, ref_supports = _reference_traces(delta, powers)

    reports = []
    for phi, label in zip(tower.levels, tower.labels):
        t0 = time.perf_counter()
        delta_i = delta.push_forward(phi)
        eig = finite_spectrum(delta_i, kernel_threshold=thr)
        exact_traces, _ = _reference_traces(delta_i, powers)
        certified = {}
        for m in powers:
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
        reports.append(_level_report(label, eig, kb, t0, exact_traces, certified))
    return reports


# ---------------------------------------------------------------------------
# Folner (compression) pipeline over Z^n
# ---------------------------------------------------------------------------

def compress(delta: RingMatrix, window: Sequence) -> tuple:
    """Compression P Delta P to a finite window of Z^n.

    Returns (ndarray of size d*|window|, |window|).  Entry ((k,x),(l,y)) is
    the coefficient of x - y in Delta_{kl}, i.e. the matrix of the windowed
    left translation action; real float64 when every coefficient is real,
    complex128 otherwise.
    """
    group = delta.group
    if not isinstance(group, FreeAbelianGroup):
        raise WrongGroup(f"compress needs a matrix over Z^n, got {group}")
    window = list(window)
    real = all(e.is_real() for row in delta.entries for e in row)
    h = _operator_blocks(delta, 1, lambda g: 1.0, group, window, lambda g: g, real)
    return h[0], len(window)


def _support_radius(delta: RingMatrix) -> int:
    """Largest sup-norm of a group element in the support of a Z^n matrix."""
    return max((max(map(abs, g), default=0) for g in delta.support()), default=0)


def compressed_trace_powers(delta: RingMatrix, window: Sequence, powers) -> dict:
    """Exact traces of (P Delta P)^m for the requested powers.

    tr((P Delta P)^m) is a sum over closed walks k_0 -> k_1 -> ... -> k_m = k_0
    of m support steps whose group elements g_1, ..., g_m sum to 0.  A walk
    contributes the product of its coefficients times the number of window
    points y with y - s in the window for every prefix sum s, that is
    |X ∩ (X + s_1) ∩ ... ∩ (X + s_{m-1})|.
    """
    powers = {int(m) for m in powers}
    top = max(powers, default=0)
    points = set(window)
    translates = {}

    def walk_count(prefixes) -> int:
        for s in prefixes:
            if s not in translates:
                translates[s] = {tuple(a + b for a, b in zip(x, s)) for x in points}
        return len(points.intersection(*(translates[s] for s in prefixes)))

    steps = [
        [(l, g, c) for l in range(delta.cols) for g, c in delta.entries[k][l].terms.items()]
        for k in range(delta.rows)
    ]
    radius = _support_radius(delta)
    origin = (0,) * delta.group.rank
    out = {m: GaussianRational.of(0) for m in powers}

    def extend(start, k, total, coef, prefixes):
        length = len(prefixes)
        if length in powers and k == start and total == origin:
            out[length] = out[length] + coef * walk_count(prefixes)
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
    trace_powers: Sequence[int] = (1, 2, 3),
) -> list:
    """Compress a self-adjoint matrix over Z^n to each Folner set.

    Traces of the first few powers of the compression are computed exactly
    and reported next to the exact traces upstairs; the gap is bounded by a
    multiple of the boundary defect and must decrease along the exhaustion.

    The compression goes to the LAPACK solver with no float Hermitian
    check: entry ((k,x),(l,y)) is the coefficient of x - y in Delta_{kl},
    a single rounded coefficient, so the exact ``is_self_adjoint`` check
    below already makes the float matrix exactly Hermitian.
    """
    if delta.group != exhaustion.group:
        raise MismatchedGroup(f"matrix over {delta.group}, sets over {exhaustion.group}")
    if not delta.is_self_adjoint():
        raise SchemeError("run_folner expects a self-adjoint matrix")
    kb = k_bound(delta)
    thr = kernel_threshold if kernel_threshold is not None else default_kernel_threshold(delta)
    powers = tuple(sorted(set(int(m) for m in trace_powers)))
    support_radius = _support_radius(delta)

    reports = []
    for i, label in enumerate(exhaustion.labels):
        window = exhaustion.set_at(i)
        t0 = time.perf_counter()
        h, nw = compress(delta, window)
        eig = EigenResult(np.linalg.eigvalsh(h), nw, thr)
        exact = compressed_trace_powers(delta, window, powers)
        exact_traces = {m: GaussianRational.of(Fraction(1, nw)) * exact[m] for m in powers}
        defects = {
            m: exhaustion.defect(i, max(1, m * support_radius)) for m in powers
        }
        reports.append(
            _level_report(
                label, eig, kb, t0, exact_traces, {m: True for m in powers}, defects
            )
        )
    return reports


# ---------------------------------------------------------------------------
# sandwich polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichPolynomial:
    """A polynomial certified to squeeze between two step functions.

    On [0, K] it satisfies  chi_[0,lam](x) <= p(x) <= (1/n) + chi_[0,lam+1/n](x),
    verified on a dense grid with an explicit derivative-based margin so the
    bound holds between grid points as well.  Coefficients are a Chebyshev
    series on [0, K].
    """

    lam: float
    n: int
    K: float
    coefficients: tuple
    degree: int
    certified: bool
    grid_used: int

    def evaluate(self, x):
        u = 2.0 * np.asarray(x, dtype=np.float64) / self.K - 1.0
        return cheb.chebval(u, np.asarray(self.coefficients))

    def trace_on(self, eig: EigenResult) -> float:
        return eig.trace_of(self.evaluate(eig.eigenvalues))


def _erf_vec(x: np.ndarray) -> np.ndarray:
    return np.array([math.erf(v) for v in np.asarray(x, dtype=np.float64).ravel()]).reshape(
        np.shape(x)
    )


def _certify(coef: np.ndarray, lam: float, n: int, K: float, grid: int):
    """Grid certification with a derivative margin.

    Returns (ok, shift, grid) where shift is the constant that must be added
    so the lower bound holds; the returned verdict applies to coef with that
    shift already folded in by the caller.
    """
    xs = np.linspace(0.0, K, grid)
    h = xs[1] - xs[0]
    u = 2.0 * xs / K - 1.0
    p = cheb.chebval(u, coef)
    dcoef = cheb.chebder(coef) * (2.0 / K)
    slope = float(np.max(np.abs(cheb.chebval(u, dcoef))))
    margin = 0.55 * slope * h  # covers the worst drift inside one grid cell
    lower_band = xs <= lam + h
    tail_band = xs >= lam + 1.0 / n - h
    shift = max(0.0, float(1.0 + margin - np.min(p[lower_band])))
    p = p + shift
    ok = (
        float(np.min(p[lower_band]) - margin) >= 1.0
        and float(np.min(p) - margin) >= 0.0
        and float(np.max(p) + margin) <= 1.0 + 1.0 / n
        and (not np.any(tail_band) or float(np.max(p[tail_band]) + margin) <= 1.0 / n)
    )
    return ok, shift, margin


def build_sandwich(
    lam: float,
    n: int,
    K: float,
    *,
    degree_cap: int = 400,
    grid: Optional[int] = None,
) -> SandwichPolynomial:
    """Construct a certified sandwich polynomial for (lam, n, K).

    The target is a smooth error-function step from 1 + 1/(2n) down to
    1/(2n) with the transition centered at lam + 1/(2n); Chebyshev
    interpolants of doubling degree are tried until one certifies on the
    grid, after shifting up by its worst undershoot on [0, lam].
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= lam < K:
        raise ValueError(f"need 0 <= lam < K, got lam={lam}, K={K}")
    half = 1.0 / (2.0 * n)
    center = lam + half
    # transition sharp enough that the tails clear the bands with room
    alpha = 2.0 * n * (1.1 + math.sqrt(math.log(16.0 * n)))

    def target(x):
        return half + 0.5 * (1.0 + _erf_vec(alpha * (center - np.asarray(x))))

    degree = 25
    grid_points = int(grid) if grid is not None else 20001
    if grid_points < 10000:
        raise ValueError("certification grid must have at least 10^4 points")
    last_error = None
    while degree <= degree_cap:
        series = cheb.Chebyshev.interpolate(lambda u: target((u + 1.0) * K / 2.0), degree)
        coef = series.coef
        ok, shift, margin = _certify(coef, lam, n, K, grid_points)
        if ok:
            coef = coef.copy()
            coef[0] += shift
            return SandwichPolynomial(
                lam=float(lam),
                n=int(n),
                K=float(K),
                coefficients=tuple(float(c) for c in coef),
                degree=int(degree),
                certified=True,
                grid_used=grid_points,
            )
        last_error = f"degree {degree}: margin {margin:.3g}, shift {shift:.3g}"
        degree = min(degree * 2, degree_cap) if degree < degree_cap else degree_cap + 1
    raise CertificationFailed(
        f"no polynomial up to degree {degree_cap} certified for "
        f"(lam={lam}, n={n}, K={K}); last attempt: {last_error}"
    )


def sandwich_level_check(
    poly: SandwichPolynomial, reports: Sequence[LevelReport], tol: float = 1e-8
) -> list:
    """Evaluate the squeezed trace inequality at every level.

    For each level: F_i(lam) <= tr_i p(Delta_i) <= F_i(lam + 1/n) + d/n,
    up to tol.  Returns one dict per level.
    """
    out = []
    for rep in reports:
        d = rep.eigen.d
        tr_p = poly.trace_on(rep.eigen)
        left = rep.density.evaluate(poly.lam)
        right = rep.density.evaluate(poly.lam + 1.0 / poly.n) + d / poly.n
        out.append(
            {
                "level": rep.level,
                "f_lam": left,
                "trace_p": tr_p,
                "f_lam_plus": right,
                "ok": left <= tr_p + tol and tr_p <= right + tol,
            }
        )
    return out


# ---------------------------------------------------------------------------
# convergence and determinant checks
# ---------------------------------------------------------------------------

def _tail(reports: Sequence[LevelReport]) -> Sequence[LevelReport]:
    count = max(1, math.ceil(len(reports) / 3))
    return reports[-count:]


def squeeze_check(
    reports: Sequence[LevelReport],
    oracle_density: SpectralDensity,
    lambda_grid: Sequence[float],
    tol: float = 0.02,
) -> dict:
    """Two-sided squeeze of the level densities against an oracle density.

    Over the tail (last third) of the levels, the upper envelope at lambda
    must not exceed the oracle there, and the oracle must not exceed the
    lower envelope at the next grid point, both up to tol.
    """
    if len(reports) < 3:
        raise InsufficientLevels(f"squeeze needs >= 3 levels, got {len(reports)}")
    tail = _tail(reports)
    grid = sorted(float(x) for x in lambda_grid)
    rows = []
    all_ok = True
    for idx, lam in enumerate(grid):
        fbar = max(rep.density.evaluate(lam) for rep in tail)
        f_oracle = oracle_density.evaluate(lam)
        upper_ok = fbar <= f_oracle + tol
        if idx + 1 < len(grid):
            flow_next = min(rep.density.evaluate(grid[idx + 1]) for rep in tail)
            lower_ok = f_oracle <= flow_next + tol
        else:
            flow_next = None
            lower_ok = True
        ok = upper_ok and lower_ok
        all_ok = all_ok and ok
        rows.append(
            {
                "lambda": lam,
                "fbar": fbar,
                "oracle": f_oracle,
                "flow_next": flow_next,
                "ok": ok,
            }
        )
    return {"ok": all_ok, "tol": tol, "rows": rows}


def density_tail_integral(density: SpectralDensity, k: float) -> float:
    """integral over (0, K] of (F(lambda) - F(0)) / lambda d lambda for a
    step function, evaluated exactly from the jumps.

    Jumps within rounding slack of K count as inside, so a spectrum whose
    top eigenvalue equals K stays consistent with the logdet identity.
    """
    slack = 1e-9 * max(1.0, k)
    acc = 0.0
    for pos, count in density.jumps:
        if pos <= 0.0 or pos > k + slack:
            continue
        acc += (count / density.denom) * math.log(k / pos)
    return acc


def sintapr_check(
    reports: Sequence[LevelReport],
    d: int,
    K: float,
    tol: float = 0.02,
    oracle_logdet: Optional[float] = None,
) -> dict:
    """Determinant semicontinuity certification.

    Requires every level log determinant to be >= -tol (the semi-integral
    hypothesis).  Per level checks the integral identity bound
    I_i <= ln(K)(d - F_i(0)) and the consistency of logdet with the
    integral; finally compares the tail-end logdet against the oracle.
    """
    for rep in reports:
        if rep.logdet < -tol:
            raise HypothesisViolated(
                f"level {rep.level} has logdet {rep.logdet:.6g} < {-tol}"
            )
        if rep.max_eigenvalue > K + 1e-9:
            raise SchemeError(
                f"level {rep.level} spectrum exceeds K={K}: {rep.max_eigenvalue}"
            )
    rows = []
    all_ok = True
    for rep in reports:
        integral = density_tail_integral(rep.density, K)
        bound = math.log(K) * (d - rep.f0)
        identity_gap = abs(rep.logdet - (bound - integral))
        ok = integral <= bound + tol and identity_gap <= 1e-8
        all_ok = all_ok and ok
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
    oracle_ok = True
    if oracle_logdet is not None:
        oracle_ok = limsup_estimate <= oracle_logdet + tol
    return {
        "ok": all_ok and oracle_ok,
        "tol": tol,
        "rows": rows,
        "limsup_estimate": limsup_estimate,
        "oracle_logdet": oracle_logdet,
        "oracle_ok": oracle_ok,
    }


def whitehead_check(
    a: RingMatrix,
    b: RingMatrix,
    tower: QuotientTower,
    tol: float = 0.02,
    oracle_grid: int = 2048,
) -> dict:
    """Vanishing of the determinant on invertible matrices.

    Verifies A B = B A = I exactly over the ring, then runs the tower on
    A*A; every level log determinant and (over Z^n) the torus oracle value
    must vanish within tolerance.  Non-integral inputs are accepted but
    flagged, since the vanishing statement needs integer entries.
    """
    ident = RingMatrix.identity(a.group, a.rows)
    if a @ b != ident or b @ a != ident:
        raise NotInverse("A and B are not exact two-sided inverses")
    integral = a.is_integral() and b.is_integral()
    delta = positive_square(a)
    reports = run_tower(delta, tower)
    levels_ok = all(abs(rep.logdet) <= tol for rep in reports)
    oracle = None
    oracle_ok = True
    if isinstance(a.group, FreeAbelianGroup):
        oracle = torus_logdet_report(delta, oracle_grid)
        oracle_ok = abs(oracle["value"]) <= tol / 2
    return {
        "ok": levels_ok and oracle_ok,
        "integral": integral,
        "levels_ok": levels_ok,
        "logdets": [rep.logdet for rep in reports],
        "oracle": oracle,
        "oracle_ok": oracle_ok,
        "tol": tol,
        "reports": reports,
    }


def complex_tower_run(
    delta: RingMatrix,
    tower: QuotientTower,
    *,
    oracle_grid: int = 1024,
    tol: float = 0.02,
    oracle: Optional[EigenResult] = None,
) -> tuple:
    """Tower pipeline for complex-coefficient matrices over Z^n.

    Same per-level computation as run_tower; the verdict compares the tail
    F(0) against the torus-density oracle, which is valid without any
    integrality assumption over free abelian groups.  ``oracle`` is
    ``torus_eigen_result(delta, oracle_grid)`` when the caller already has
    it; it is solved here otherwise.
    """
    if not isinstance(delta.group, FreeAbelianGroup):
        raise WrongGroup(f"complex approximation is certified over Z^n, got {delta.group}")
    reports = run_tower(delta, tower)
    if oracle is None:
        oracle = torus_eigen_result(delta, oracle_grid)
    oracle_f0 = betti(density_from_eigs(oracle))
    tail_f0 = reports[-1].f0
    verdict = {
        "ok": abs(tail_f0 - oracle_f0) <= tol,
        "tail_f0": tail_f0,
        "oracle_f0": oracle_f0,
        "tol": tol,
        "oracle_grid": oracle_grid,
    }
    return reports, verdict

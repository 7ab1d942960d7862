"""Bundled property suites behind `l2approx verify`.

Each suite rechecks one family of guarantees on randomized inputs with a
fixed seed: exact trace matching along towers and compressions, the density
squeeze against the torus oracle, determinant integrality and lower bounds,
vanishing determinants of invertible matrices, and subgroup invariance of
densities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._lazy import np
from .groupring import RingElement
from .groups import (
    CyclicGroup,
    FreeAbelianGroup,
    Homomorphism,
    QuotientTower,
    build_boxes_folner,
    symmetric_group,
)
from .matrices import RingMatrix, positive_square
from .oracles import nonzero_eigenvalue_product_exact, torus_logdet
from .schemes import reference_traces, run_folner, run_tower
from .verdicts import DEFAULT_TOL, Context, sintapr, squeeze, subgroup, whitehead

DEFAULT_SEED = 20260808


@dataclass
class CheckLine:
    name: str
    ok: bool
    detail: str = ""


def _random_integer_laurent(rng: random.Random, radius: int = 3, cmax: int = 3) -> RingElement:
    z = FreeAbelianGroup(1)
    terms = {}
    for k in range(-radius, radius + 1):
        c = rng.randint(-cmax, cmax)
        if c:
            terms[(k,)] = c
    if not terms:
        terms[(0,)] = 1
    return RingElement(z, terms)


def _random_delta(rng: random.Random) -> RingMatrix:
    a = _random_integer_laurent(rng)
    return positive_square(RingMatrix.from_element(a))


def suite_traces(seed: int) -> list:
    """Exact trace equalities: towers (once injectivity certifies), and
    Folner compressions against the moments of their eigenvalues."""
    rng = random.Random(seed)
    lines = []
    for trial in range(8):
        delta = _random_delta(rng)
        tower = QuotientTower.zn(1, [32, 64, 128, 256])
        # run_tower raises if a certified level trace deviates
        reports = run_tower(delta, tower)
        certified = sum(
            1 for rep in reports for ok in rep.trace_certified.values() if ok
        )
        lines.append(
            CheckLine(
                f"tower-exact-traces[{trial}]",
                certified > 0,
                f"{certified} certified power traces matched exactly",
            )
        )
    for trial in range(4):
        delta = _random_delta(rng)
        exh = build_boxes_folner(1, [4, 8, 16])
        reports = run_folner(delta, exh)
        ok = True
        worst = 0.0
        for rep in reports:
            for m, exact in rep.exact_traces.items():
                gap = abs(rep.moments[m] - float(exact.re))
                worst = max(worst, gap)
                ok = ok and gap <= 1e-8 and exact.im == 0
        lines.append(
            CheckLine(f"folner-exact-traces[{trial}]", ok, f"max float gap {worst:.2e}")
        )
    # spectral moments must match the exact global trace on certified levels
    delta = _random_delta(rng)
    tower = QuotientTower.zn(1, [64, 256])
    reports = run_tower(delta, tower)
    ok = True
    traces, _ = reference_traces(delta, (1, 2, 3))
    for m, value in traces.items():
        exact = float(value.re)
        for rep in reports:
            if rep.trace_certified[m]:
                ok = ok and abs(rep.moments[m] - exact) <= 1e-8 * max(1.0, abs(exact))
    lines.append(CheckLine("moment-consistency", ok))
    return lines


def suite_squeeze(seed: int) -> list:
    rng = random.Random(seed)
    lines = []
    for trial in range(4):
        delta = _random_delta(rng)
        tower = QuotientTower.zn(1, [16, 32, 64, 128, 256])
        reports = run_tower(delta, tower)
        top = max(rep.max_eigenvalue for rep in reports) + 1.0
        grid = [top * k / 8 for k in range(9)]
        verdict = squeeze(Context(delta, delta, reports, grid=2048, lambda_grid=grid))
        lines.append(
            CheckLine(f"squeeze[{trial}]", verdict["ok"], f"grid of {len(grid)} points")
        )
    return lines


def suite_determinant(seed: int) -> list:
    rng = random.Random(seed)
    npr = np.random.default_rng(seed)
    lines = []
    ok = True
    smallest = None
    for _ in range(100):
        d = rng.randint(1, 8)
        k = rng.randint(1, 8)
        a = npr.integers(-3, 4, size=(k, d))
        gram = (a.T @ a).tolist()
        product = nonzero_eigenvalue_product_exact(gram)
        smallest = product if smallest is None else min(smallest, product)
        ok = ok and product >= 1
    lines.append(
        CheckLine("trivial-group-integrality", ok, f"min nonzero-eig product {smallest}")
    )
    worst = 0.0
    ok = True
    for _ in range(10):
        delta = _random_delta(rng)
        val = torus_logdet(delta, 1024)
        worst = min(worst, val)
        ok = ok and val >= -DEFAULT_TOL
    lines.append(CheckLine("torus-logdet-lower-bound", ok, f"min value {worst:.4f}"))
    # semicontinuity hypothesis holds along towers of integer matrices
    delta = _random_delta(rng)
    reports = run_tower(delta, QuotientTower.zn(1, [16, 64, 256]))
    verdict = sintapr(Context(delta, delta, reports))
    lines.append(CheckLine("sintapr-level-bounds", verdict["ok"]))
    return lines


def _whitehead_verdict(a: RingMatrix, b: RingMatrix, oracle_grid: int = 2048) -> dict:
    delta = positive_square(a)
    reports = run_tower(delta, QuotientTower.zn(1, [16, 64, 256]))
    return whitehead(Context(a, delta, reports, inverse=b, grid=oracle_grid))


def suite_whitehead(seed: int) -> list:
    rng = random.Random(seed)
    z = FreeAbelianGroup(1)
    t = RingElement.delta(z, (1,))
    lines = []
    one = RingElement.one(z)
    zero = RingElement.zero(z)
    for trial in range(4):
        x = _random_integer_laurent(rng, radius=2, cmax=2)
        e = RingMatrix(z, [[one, x], [zero, one]])
        e_inv = RingMatrix(z, [[one, -x], [zero, one]])
        verdict = _whitehead_verdict(e, e_inv, oracle_grid=1024)
        lines.append(
            CheckLine(
                f"elementary-matrix[{trial}]",
                verdict["ok"] and verdict["integral"],
                f"max level |logdet| {max(abs(v) for v in verdict['logdets']):.2e}",
            )
        )
    verdict = _whitehead_verdict(RingMatrix.from_element(t), RingMatrix.from_element(t.star()))
    lines.append(CheckLine("shift-matrix", verdict["ok"]))
    return lines


def _subgroup_line(name: str, delta: RingMatrix, emb: Homomorphism) -> CheckLine:
    verdict = subgroup(Context(delta, embedding=emb))
    return CheckLine(name, verdict["ok"], f"max deviation {verdict['max_deviation']:.2e}")


def suite_subgroup(seed: int) -> list:
    rng = random.Random(seed)
    lines = []
    for trial in range(6):
        m = rng.randint(2, 6)
        k = rng.randint(2, 4)
        sub = CyclicGroup(m)
        amb = CyclicGroup(m * k)
        emb = Homomorphism(sub, amb, generator_images=[k])
        x = RingElement(
            sub, {g: rng.randint(-2, 2) for g in sub.elements()}
        )
        delta = positive_square(RingMatrix.from_element(x))
        lines.append(_subgroup_line(f"cyclic-embedding[{trial}]", delta, emb))
    s3 = symmetric_group(3)
    three_cycle = next(
        g for g in s3.elements() if s3.multiply(g, s3.multiply(g, g)) == s3.identity() and g != s3.identity()
    )
    emb = Homomorphism(CyclicGroup(3), s3, generator_images=[three_cycle])
    x = RingElement(CyclicGroup(3), {0: 1, 1: -1})
    delta = positive_square(RingMatrix.from_element(x))
    lines.append(_subgroup_line("cyclic-into-s3", delta, emb))
    return lines


SUITES = {
    "traces": suite_traces,
    "squeeze": suite_squeeze,
    "determinant": suite_determinant,
    "whitehead": suite_whitehead,
    "subgroup": suite_subgroup,
}


def run_suite(name: str, seed: int = DEFAULT_SEED):
    """Run one suite (or 'all'); returns (passed, list of CheckLine)."""
    lines = [line for key in (SUITES if name == "all" else [name]) for line in SUITES[key](seed)]
    return all(line.ok for line in lines), lines

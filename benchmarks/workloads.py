"""Seeded benchmark inputs and the independent references they are checked against.

Every workload is one CLI invocation on one generated input file.  The
references below are exact or closed-form values derived by hand from the
mathematics of each input; none of them calls into ``l2approx``.

One *operation* is one level, degree or verdict check.  A check that cannot
run because the CLI exited with code 2 or 3, timed out, or printed no report
counts as failed, so every invocation attempts the same number of operations.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("folner-box", "torus-oracle", "tower-ladder", "dense-finite")

# Bundled fixtures whose default report is compared byte for byte with the
# report of the seed commit.  Each workload checks the fixtures that run the
# same code path, so every fixture is checked once per set of runs.
FIXTURES = {
    "folner-box": [("approx", "zd_folner")],
    "torus-oracle": [("cw", "torus"), ("cw", "circle"), ("cw", "point")],
    "tower-ladder": [
        ("approx", "zd_laplacian"),
        ("approx", "complex_shift"),
        ("approx", "whitehead_elementary"),
    ],
    "dense-finite": [("approx", "subgroup_z2_z4")],
}

FOLNER_BOXES = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
TOWER_LEVELS = [2 ** e for e in range(10, 19)]
TOWER_STRIDES = (1, 3, 5, 7)
TORUS_GRID = 1024
DENSE_CYCLIC_ORDERS = [1, 2, 4, 8, 12]

# G = sum_k (-1)^k / (2k+1)^2; 4G/pi is the log Mahler measure of the
# two-variable Laplacian 4 - a - 1/a - b - 1/b.
CATALAN = 0.915965594177219015054603514932384110774
TORUS_LOGDET = 4.0 * CATALAN / math.pi
# Midpoint quadrature on the 1024^2 grid lands 6.6e-7 above 4G/pi.
TORUS_QUADRATURE_TOL = 5e-6
# Reports carry 12 significant digits.
REL_TOL = 1e-8

# Reference checks that fail on the seed commit because of the float kernel
# cutoff: at N = 2^17 and 2^18 the smallest nonzero eigenvalues of the cycle
# Laplacian, (2 pi k / N)^2, fall below the cutoff 1e-9 * K and are counted
# as kernel.  They are reported but do not make a run incorrect; an exact
# kernel computation turns them into passes.
KNOWN_DEFECTS = frozenset({"tower N=131072", "tower N=262144"})


@dataclass
class Case:
    """One generated input: CLI subcommand, input JSON, flags and checker."""

    command: str
    problem: dict
    flags: list
    operations: int
    check: Callable[[dict], list]

    def cli_args(self, path: str) -> list:
        return [self.command, path] + self.flags


def _term(word, re):
    return {"word": word, "re": re}


def _close(value, ref, rel=REL_TOL, abs_tol=1e-12) -> bool:
    return abs(value - ref) <= max(abs_tol, rel * abs(ref))


def _rational(x) -> Fraction:
    return Fraction(str(x))


def _verdicts(report: dict, names) -> list:
    verdicts = report.get("verdicts", {})
    return [
        (f"verdict {name}", bool(verdicts.get(name, {}).get("ok")), "")
        for name in names
    ]


def _levels(report: dict) -> dict:
    return {row.get("level"): row for row in report.get("levels", [])}


# ---------------------------------------------------------------------------
# folner-box: Delta = 2 - t - 1/t over Z compressed to boxes [-m, m]
# ---------------------------------------------------------------------------

def folner_box(seed: int) -> Case:
    """No random part: the traces verdict's 1e-2 bound at m = 1024 holds for
    this matrix only, so the seed is not used."""
    problem = {
        "group": {"type": "free_abelian", "rank": 1},
        "matrix": {
            "rows": 1,
            "cols": 1,
            "entries": [[[_term([0], 2), _term([1], -1), _term([-1], -1)]]],
        },
        "scheme": {"type": "folner", "boxes": FOLNER_BOXES},
        "checks": ["traces", "norms"],
    }

    def check(report: dict) -> list:
        rows = _levels(report)
        out = []
        for m in FOLNER_BOXES:
            row = rows.get(m)
            if row is None:
                out.append((f"box {m}", False, "missing"))
                continue
            size = 2 * m + 1
            # The compression is the Dirichlet path Laplacian on L = 2m+1
            # vertices: det = L + 1, and tr P^k from closed walks.
            want = {"1": Fraction(2), "2": 6 - Fraction(2, size), "3": 20 - Fraction(12, size)}
            traces = row.get("exact_traces", {})
            traces_ok = all(
                k in traces and _rational(traces[k]["re"]) == v and _rational(traces[k]["im"]) == 0
                for k, v in want.items()
            )
            logdet_ref = math.log(size + 1) / size
            ok = traces_ok and row["f0"] == 0 and _close(row["logdet"], logdet_ref)
            out.append((f"box {m}", ok, f"logdet {row['logdet']} ref {logdet_ref}"))
        return out + _verdicts(report, ["traces", "norms"])

    return Case("approx", problem, [], len(FOLNER_BOXES) + 2, check)


# ---------------------------------------------------------------------------
# torus-oracle: the cellular chain complex of the 2-torus over Z^2
# ---------------------------------------------------------------------------

SIGNED_PERMUTATIONS = [
    (perm, signs)
    for perm in ((0, 1), (1, 0))
    for signs in itertools.product((1, -1), repeat=2)
]


def _torus_complex(perm, signs) -> dict:
    """Torus complex with generator k of Z^2 replaced by signs[k] * e_perm[k].

    A signed permutation is an automorphism of Z^2, so the image is again a
    chain complex with the same L2 invariants.
    """

    def word(a, b):
        vec = [0, 0]
        for k, e in enumerate((a, b)):
            vec[perm[k]] += signs[k] * e
        return vec

    def elt(*terms):
        return [_term(word(a, b), c) for (a, b), c in terms]

    d1 = {
        "rows": 1,
        "cols": 2,
        "entries": [[elt(((1, 0), 1), ((0, 0), -1)), elt(((0, 1), 1), ((0, 0), -1))]],
    }
    d2 = {
        "rows": 2,
        "cols": 1,
        "entries": [
            [elt(((0, 1), 1), ((0, 0), -1))],
            [elt(((0, 0), 1), ((1, 0), -1))],
        ],
    }
    return {
        "group": {"type": "free_abelian", "rank": 2},
        "cells": [1, 2, 1],
        "boundaries": [d1, d2],
    }


def torus_oracle(seed: int) -> Case:
    perm, signs = SIGNED_PERMUTATIONS[random.Random(seed).randrange(len(SIGNED_PERMUTATIONS))]
    problem = _torus_complex(perm, signs)
    # Laplacians: Delta_0 = Delta_2 = 4 - a - 1/a - b - 1/b and Delta_1 is
    # two copies of it, so logdet_1 = 2 logdet_0 and the torsion vanishes.
    refs = [TORUS_LOGDET, 2.0 * TORUS_LOGDET, TORUS_LOGDET]

    def check(report: dict) -> list:
        out = []
        betti = report.get("betti", [])
        logdet = report.get("logdet", [])
        det_class = report.get("det_class", [])
        for p, ref in enumerate(refs):
            if p >= min(len(betti), len(logdet), len(det_class)):
                out.append((f"degree {p}", False, "missing"))
                continue
            ok = betti[p] == 0 and det_class[p] is True and abs(logdet[p] - ref) <= TORUS_QUADRATURE_TOL
            out.append((f"degree {p}", ok, f"logdet {logdet[p]} ref {ref}"))
        torsion = report.get("torsion")
        out.append(("torsion", torsion is not None and abs(torsion) <= 1e-9, f"{torsion}"))
        out.append(
            (
                "euler",
                report.get("euler_l2") == 0 and report.get("euler_cells") == 0
                and report.get("acyclic") is True and report.get("dims") == [1, 2, 1],
                "",
            )
        )
        return out

    return Case("cw", problem, ["--grid", str(TORUS_GRID)], len(refs) + 2, check)


# ---------------------------------------------------------------------------
# tower-ladder: Delta = 2 - t^s - t^-s over Z, tower Z -> Z/N
# ---------------------------------------------------------------------------

def tower_ladder(seed: int) -> Case:
    """The stride s is odd and N a power of two, so s is a unit mod N and the
    level spectrum is that of the N-cycle Laplacian whatever s is."""
    s = random.Random(seed).choice(TOWER_STRIDES)
    problem = {
        "group": {"type": "free_abelian", "rank": 1},
        "matrix": {
            "rows": 1,
            "cols": 1,
            "entries": [[[_term([0], 2), _term([s], -1), _term([-s], -1)]]],
        },
        "scheme": {"type": "tower", "levels": TOWER_LEVELS},
        "oracle": {"grid": 4096},
        "lambda_grid": [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4],
        "checks": ["squeeze", "sintapr", "norms"],
    }

    def check(report: dict) -> list:
        rows = _levels(report)
        out = []
        for n in TOWER_LEVELS:
            row = rows.get(n)
            if row is None:
                out.append((f"tower N={n}", False, "missing"))
                continue
            # kernel: the constants; nonzero eigenvalues multiply to N^2
            # (N times the N spanning trees of the cycle).
            logdet_ref = 2.0 * math.log(n) / n
            kernel = row["f0"] * n
            ok = abs(kernel - 1) <= 1e-6 and _close(row["logdet"], logdet_ref, rel=1e-6)
            out.append((f"tower N={n}", ok, f"F(0)*N {kernel:.6g} logdet/ref {row['logdet'] / logdet_ref:.6g}"))
        return out + _verdicts(report, ["squeeze", "sintapr", "norms"])

    return Case("approx", problem, [], len(TOWER_LEVELS) + 3, check)


# ---------------------------------------------------------------------------
# dense-finite: free group F2 -> S5 x Z/k given by a multiplication table
# ---------------------------------------------------------------------------

S5 = sorted(itertools.permutations(range(5)))
S5_INDEX = {p: i for i, p in enumerate(S5)}


def _compose(p, q):
    return tuple(p[q[k]] for k in range(len(q)))


S5_TABLE = [[S5_INDEX[_compose(p, q)] for q in S5] for p in S5]


def subgroup_order(gens, k: int) -> int:
    """Order of the subgroup of S5 x Z/k generated by (permutation, residue)
    pairs, by closure under right multiplication by the generators."""
    ident = (tuple(range(5)), 0)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p, r in frontier:
            for q, s in gens:
                g = (_compose(p, q), (r + s) % k)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return len(seen)


def dense_finite(seed: int) -> Case:
    """Delta = 4 - a - 1/a - b - 1/b pushed to S5 x Z/k.  Its kernel is the
    functions constant on cosets of H = <a, b>, so F(0) |G| = [G : H]."""
    rng = random.Random(seed)
    maps = []
    index = {}
    for k in DENSE_CYCLIC_ORDERS:
        gens = [(rng.choice(S5), rng.randrange(k)) for _ in range(2)]
        index[k] = len(S5) * k // subgroup_order(gens, k)
        maps.append(
            {
                "target": {
                    "type": "product",
                    "factors": [
                        {"type": "finite_table", "table": S5_TABLE},
                        {"type": "cyclic", "n": k},
                    ],
                },
                "images": [[S5_INDEX[p], r] for p, r in gens],
            }
        )
    problem = {
        "group": {"type": "free", "rank": 2},
        "matrix": {
            "rows": 1,
            "cols": 1,
            "entries": [[[
                _term([], 4), _term([1], -1), _term([-1], -1), _term([2], -1), _term([-2], -1)
            ]]],
        },
        "scheme": {"type": "tower", "maps": maps, "labels": DENSE_CYCLIC_ORDERS},
        "checks": ["norms"],
    }

    def check(report: dict) -> list:
        rows = _levels(report)
        out = []
        for k in DENSE_CYCLIC_ORDERS:
            row = rows.get(k)
            if row is None:
                out.append((f"level {k}", False, "missing"))
                continue
            order = len(S5) * k
            kernel = row["f0"] * order
            ok = row["matrix_size"] == order and abs(kernel - index[k]) <= 1e-6
            out.append((f"level {k}", ok, f"F(0)*|G| {kernel:.6g} index {index[k]}"))
        return out + _verdicts(report, ["norms"])

    return Case("approx", problem, [], len(DENSE_CYCLIC_ORDERS) + 1, check)


BUILDERS = {
    "folner-box": folner_box,
    "torus-oracle": torus_oracle,
    "tower-ladder": tower_ladder,
    "dense-finite": dense_finite,
}


def make_case(workload: str, seed: int) -> Case:
    return BUILDERS[workload](seed)


def check_report(case: Case, stdout: bytes, code) -> list:
    """(name, ok, detail) per operation; all fail unless the CLI exited 0 or 1
    with a JSON report."""
    if code in (0, 1):
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        if isinstance(report, dict):
            results = case.check(report)
            if len(results) == case.operations:
                return results
    return [(f"operation {i}", False, f"exit {code}") for i in range(case.operations)]

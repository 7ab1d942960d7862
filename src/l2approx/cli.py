"""Command-line interface.

    l2approx density  problem.json  [--level N | --grid G] [--output F] [--json]
    l2approx approx   problem.json  [--levels ...] [--boxes ...] [--lambda-grid ...]
                                    [--grid G] [--tol T] [--eps-ker E]
                                    [--timings] [--densities] [--output F]
    l2approx cw       complex.json  [--grid G | --levels ...] [--tol T] [--output F]
    l2approx verify   SUITE         [--seed S]

Exit codes: 0 success, 1 property/verdict failure, 2 input error,
3 computation error.  Reports are emitted deterministically (sorted keys,
12 significant digit floats); per-level wall times are only included with
--timings since they break byte-for-byte reproducibility.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .cw import l2_invariants
from .errors import L2ApproxError
from .groups import FreeAbelianGroup
from .jsonio import (
    Problem,
    ProblemFormatError,
    canonical_dumps,
    density_csv,
    density_to_json,
    group_to_json,
    level_report_to_json,
    load_json,
    parse_complex,
    parse_problem,
)
from .matrices import k_bound, trace_poly
from .oracles import torus_density, torus_eigen_result, torus_logdet_report
from .schemes import (
    FolnerExhaustion,
    QuotientTower,
    build_boxes_folner,
    complex_tower_run,
    run_folner,
    run_tower,
    sintapr_check,
    squeeze_check,
    whitehead_check,
)
from .spectral import density_from_eigs, finite_spectrum, subgroup_invariance_check
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3


def _write_output(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _flag(parse, ok, what: str):
    """An argparse type: a malformed flag is a usage error (exit 2) before
    any work starts."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return convert


def _split(parse):
    return lambda text: [parse(x) for x in text.split(",") if x.strip()]


_levels = _flag(_split(int), lambda v: all(n >= 1 for n in v), "comma-separated integers >= 1")
# a leading -1 makes the first size >= 0
_boxes = _flag(
    _split(int),
    lambda v: all(a < b for a, b in zip([-1] + v, v)),
    "comma-separated strictly increasing integers >= 0",
)
_grid = _flag(int, lambda n: n >= 1, "an integer >= 1")
_finite = _flag(float, math.isfinite, "a finite number")
_finite_list = _flag(
    _split(float), lambda v: all(map(math.isfinite, v)), "comma-separated finite numbers"
)


def _load_problem(path: str) -> Problem:
    return parse_problem(load_json(path))


def _default_lambda_grid(problem: Problem) -> list:
    top = k_bound(problem.matrix)
    return [top * k / 8 for k in range(9)]


def cmd_density(args) -> int:
    problem = _load_problem(args.problem)
    if args.grid is not None or (problem.scheme is None and problem.oracle_grid is not None):
        grid = args.grid if args.grid is not None else problem.oracle_grid
        density = torus_density(problem.matrix, grid)
    elif problem.scheme is not None:
        scheme = problem.scheme
        label = scheme.labels[-1] if args.level is None else args.level
        if label not in scheme.labels:
            raise ProblemFormatError(f"level {label} not in scheme levels {scheme.labels}")
        if isinstance(scheme, FolnerExhaustion):
            reports = run_folner(problem.matrix, FolnerExhaustion(scheme.group, [label]))
        else:
            phi = scheme.levels[scheme.labels.index(label)]
            reports = run_tower(problem.matrix, QuotientTower(scheme.source, [phi], [label]))
        density = reports[0].density
    elif problem.group.is_finite:
        density = density_from_eigs(finite_spectrum(problem.matrix))
    else:
        raise ProblemFormatError("problem has no scheme, oracle grid, or finite group")
    if args.json:
        _write_output(canonical_dumps(density_to_json(density)) + "\n", args.output)
    else:
        _write_output(density_csv(density), args.output)
    return EXIT_OK


def _requested_checks(problem: Problem) -> list:
    if problem.checks:
        return problem.checks
    if isinstance(problem.scheme, FolnerExhaustion):
        return ["traces", "norms"]
    if problem.scheme is None and problem.embedding is not None:
        return ["subgroup"]
    checks = ["norms"]
    if isinstance(problem.group, FreeAbelianGroup) and problem.matrix.is_self_adjoint():
        checks = ["squeeze", "sintapr", "norms"]
    if problem.inverse is not None:
        checks = ["whitehead", "norms"]
    return checks


def cmd_approx(args) -> int:
    problem = _load_problem(args.problem)
    scheme = problem.scheme
    if args.levels:
        if not isinstance(problem.group, FreeAbelianGroup):
            raise ProblemFormatError("--levels needs a free abelian group")
        scheme = QuotientTower.zn(problem.group.rank, args.levels)
    if args.boxes:
        if not isinstance(problem.group, FreeAbelianGroup):
            raise ProblemFormatError("--boxes needs a free abelian group")
        scheme = build_boxes_folner(problem.group.rank, args.boxes)
    checks = _requested_checks(problem)
    tol = args.tol
    grid = next(g for g in (args.grid, problem.oracle_grid, 2048) if g is not None)
    lam_grid = args.lambda_grid or problem.lambda_grid or _default_lambda_grid(problem)
    eps = args.eps_ker
    report: dict = {
        "tool": {"name": "l2approx", "version": __version__},
        "problem": {
            "group": group_to_json(problem.group),
            "matrix_shape": list(problem.matrix.shape),
            "k_bound": k_bound(problem.matrix),
        },
        "defaults": {
            "tol": tol,
            "oracle_grid": grid,
            "lambda_grid": lam_grid,
            "eps_ker": eps,
        },
        "verdicts": {},
    }
    verdicts = report["verdicts"]
    failed = False
    if "subgroup" in checks:
        if problem.embedding is None:
            raise ProblemFormatError("subgroup check needs an 'embedding'")
        ok, dev = subgroup_invariance_check(problem.matrix, problem.embedding)
        verdicts["subgroup"] = {"ok": ok, "max_deviation": dev}
        failed = failed or not ok
    if isinstance(scheme, QuotientTower):
        report["scheme"] = {"type": "tower", "levels": scheme.labels}
        oracle_available = (
            isinstance(problem.group, FreeAbelianGroup)
            and problem.matrix.is_self_adjoint()
        )
        # one fine-grid solve serves the oracle logdet, the squeeze density
        # and the complex verdict
        oracle_eig = torus_eigen_result(problem.matrix, grid) if oracle_available else None
        if "whitehead" in checks:
            if problem.inverse is None:
                raise ProblemFormatError("whitehead check needs an 'inverse' matrix")
            verdict = whitehead_check(
                problem.matrix, problem.inverse, scheme, tol=tol, oracle_grid=grid
            )
            reports = verdict.pop("reports")
            verdicts["whitehead"] = verdict
            failed = failed or not verdict["ok"]
        elif "complex" in checks:
            reports, verdict = complex_tower_run(
                problem.matrix, scheme, oracle_grid=grid, tol=tol, oracle=oracle_eig
            )
            verdicts["complex"] = verdict
            failed = failed or not verdict["ok"]
        else:
            reports = run_tower(problem.matrix, scheme, kernel_threshold=eps)
        if oracle_available:
            report["oracle"] = torus_logdet_report(problem.matrix, grid, oracle_eig)
        if "squeeze" in checks:
            if not oracle_available:
                raise ProblemFormatError(
                    "squeeze needs a self-adjoint matrix over a free abelian group"
                )
            oracle_density = density_from_eigs(oracle_eig)
            verdicts["squeeze"] = squeeze_check(reports, oracle_density, lam_grid, tol=tol)
            failed = failed or not verdicts["squeeze"]["ok"]
        if "sintapr" in checks:
            kb = max(k_bound(problem.matrix), 1.0)
            oracle_logdet = report["oracle"]["value"] if oracle_available else None
            verdict = sintapr_check(
                reports, d=problem.matrix.rows, K=kb, tol=tol, oracle_logdet=oracle_logdet
            )
            verdicts["sintapr"] = verdict
            failed = failed or not verdict["ok"]
    elif isinstance(scheme, FolnerExhaustion):
        report["scheme"] = {"type": "folner", "boxes": scheme.labels}
        reports = run_folner(problem.matrix, scheme, kernel_threshold=eps)
        if "traces" in checks:
            powers = reports[0].exact_traces if reports else ()
            upstairs = {m: trace_poly(problem.matrix, [0] * m + [1]) for m in powers}
            rows = []
            ok = True
            prev = None
            for rep in reports:
                diffs = {}
                for m, exact in rep.exact_traces.items():
                    diffs[str(m)] = abs(float(exact.re) - float(upstairs[m].re))
                worst = max(diffs.values())
                if prev is not None:
                    ok = ok and worst <= prev + 1e-12
                prev = worst
                rows.append({"level": rep.level, "trace_gaps": diffs})
            ok = ok and (prev is not None and prev < 1e-2)
            verdicts["traces"] = {"ok": ok, "rows": rows}
            failed = failed or not ok
    else:
        reports = []
        if not verdicts:
            raise ProblemFormatError(
                "no scheme given (problem 'scheme' or --levels/--boxes)"
            )
    if "norms" in checks and reports:
        ok = all(rep.norm_bound_ok for rep in reports)
        verdicts["norms"] = {
            "ok": ok,
            "k_bound": k_bound(problem.matrix),
            "max_eigenvalue": max(rep.max_eigenvalue for rep in reports),
        }
        failed = failed or not ok
    if reports:
        report["levels"] = [
            level_report_to_json(
                rep, include_timing=args.timings, include_density=args.densities
            )
            for rep in reports
        ]
    _write_output(canonical_dumps(report) + "\n", args.output)
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_cw(args) -> int:
    spec = parse_complex(load_json(args.complex))
    tower = None
    grid = None
    if args.levels:
        if not isinstance(spec.group, FreeAbelianGroup):
            raise ProblemFormatError("--levels needs a free abelian group")
        tower = QuotientTower.zn(spec.group.rank, args.levels)
    else:
        grid = args.grid
    rep = l2_invariants(spec, oracle_grid=grid, tower=tower, tol=args.tol)
    out = {
        "betti": rep.betti,
        "logdet": rep.logdet,
        "det_class": rep.det_class,
        "torsion": rep.torsion,
        "acyclic": rep.acyclic,
        "euler_l2": rep.euler_l2,
        "euler_cells": rep.euler_cells,
        "method": rep.method,
        "dims": rep.details["dims"],
    }
    _write_output(canonical_dumps(out) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("L2APPROX_SEED", DEFAULT_SEED))
    passed, lines = run_suite(args.suite, seed)
    for line in lines:
        status = "PASS" if line.ok else "FAIL"
        detail = f"  ({line.detail})" if line.detail else ""
        print(f"{status} {line.name}{detail}")
    print(f"{'PASS' if passed else 'FAIL'} suite={args.suite} seed={seed}")
    return EXIT_OK if passed else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2approx",
        description="Spectral invariants of group-ring matrices and their finite approximations",
    )
    parser.add_argument("--version", action="version", version=f"l2approx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="spectral density of one level or oracle grid")
    p.add_argument("problem")
    p.add_argument("--level", type=int, help="tower/box label to evaluate")
    p.add_argument("--grid", type=_grid, help="torus oracle grid per dimension")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--output")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("approx", help="run an approximation scheme with verdicts")
    p.add_argument("problem")
    p.add_argument("--levels", type=_levels, help="comma-separated tower moduli override")
    p.add_argument("--boxes", type=_boxes, help="comma-separated Folner box sizes override")
    p.add_argument("--lambda-grid", type=_finite_list, help="comma-separated evaluation points")
    p.add_argument("--grid", type=_grid, help="oracle grid per dimension")
    p.add_argument("--tol", type=_finite, default=0.02)
    p.add_argument("--eps-ker", type=_finite, help="kernel threshold override")
    p.add_argument("--timings", action="store_true", help="include wall times (non-reproducible)")
    p.add_argument("--densities", action="store_true", help="include full densities per level")
    p.add_argument("--output")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("cw", help="L2 invariants of a cellular chain complex")
    p.add_argument("complex")
    p.add_argument("--grid", type=_grid, help="oracle grid per dimension")
    p.add_argument("--levels", type=_levels, help="tower moduli (uses the tower route)")
    p.add_argument("--tol", type=_finite, default=0.02)
    p.add_argument("--output")
    p.set_defaults(func=cmd_cw)

    p = sub.add_parser("verify", help="run a bundled property suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, help="override L2APPROX_SEED")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"l2approx: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (L2ApproxError, ValueError, ArithmeticError) as exc:
        print(f"l2approx: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())

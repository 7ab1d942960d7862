"""Command-line interface.

    l2approx density  problem.json  [--level N | --grid G] [--output F] [--json]
    l2approx approx   problem.json  [--levels ... | --boxes ...] [--lambda-grid ...]
                                    [--grid G] [--tol T] [--eps-ker E]
                                    [--timings] [--densities] [--output F]
    l2approx cw       complex.json  [--grid G | --levels ... [--tol T]] [--output F]
    l2approx verify   SUITE         [--seed S]

Exit codes: 0 success, 1 property/verdict failure, 2 input error,
3 computation error.  Reports are emitted deterministically (sorted keys,
12 significant digit floats); per-level wall times are only included with
--timings since they break byte-for-byte reproducibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import warnings

from . import __version__, verdicts
from .cw import l2_invariants
from .errors import L2ApproxError, ProblemFormatError, SolveTooLarge, shown
from .groups import FolnerExhaustion, FreeAbelianGroup, QuotientTower, build_boxes_folner
from .jsonio import (
    VERDICTS,
    Problem,
    canonical_dumps,
    density_csv,
    density_to_json,
    group_to_json,
    level_report_to_json,
    load_json,
    parse_complex,
    parse_problem,
    require,
)
from .matrices import RingMatrix, k_bound, positive_square
from .oracles import check_torus_grid, torus_eigen_result
from .schemes import check_tower_caps, run_folner, run_tower
from .spectral import density_from_eigs, finite_spectrum
from .verdicts import DEFAULT_TOL, Context
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3


def _check_output(path) -> None:
    """Open --output for appending and close it again, before any work: a
    path that cannot be written is an input error with the message its
    final write would give, and an existing file is left as it is until the
    report replaces it.  A file the check creates is removed again."""
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ProblemFormatError(str(exc)) from exc
    if not existed:
        os.remove(path)


def _write_output(text: str, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ProblemFormatError(str(exc)) from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _flag(parse, ok, what: str):
    """An argparse type: a malformed flag is a usage error (exit 2) before
    any work starts.  The converter's name is private, like the module-level
    names it is bound to."""

    def _convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return _convert


def _split(parse):
    # None for an empty list, which _flag rejects like a malformed one
    return lambda text: [parse(x) for x in text.split(",") if x.strip()] or None


_levels = _flag(_split(int), lambda v: all(n >= 1 for n in v), "comma-separated integers >= 1")
# a leading -1 makes the first size >= 0
_boxes = _flag(
    _split(int),
    lambda v: all(a < b for a, b in zip([-1] + v, v)),
    "comma-separated strictly increasing integers >= 0",
)
_grid = _flag(int, lambda n: n >= 1, "an integer >= 1")
_threshold = _flag(float, lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0")
_finite_list = _flag(
    _split(float), lambda v: all(map(math.isfinite, v)), "comma-separated finite numbers"
)


def _load_problem(path: str) -> Problem:
    return parse_problem(load_json(path))


def _operator(problem: Problem, checks) -> RingMatrix:
    """A*A under the whitehead check, else A: the one operator of every
    level, oracle, density and verdict."""
    return positive_square(problem.matrix) if "whitehead" in checks else problem.matrix


def cmd_density(args) -> int:
    problem = _load_problem(args.problem)
    scheme = problem.scheme
    if args.level is not None and scheme is None:
        raise ProblemFormatError("--level needs a problem 'scheme'")
    delta = _operator(problem, _requested_checks(problem, scheme))
    grid = args.grid or (problem.oracle_grid if scheme is None else None)
    if grid is not None:
        if not isinstance(problem.group, FreeAbelianGroup):
            what = "--grid" if args.grid else "oracle grid"
            raise ProblemFormatError(f"{what} needs a free abelian group")
        density = density_from_eigs(torus_eigen_result(delta, grid))
    elif scheme is not None:
        label = scheme.labels[-1] if args.level is None else args.level
        if label not in scheme.labels:
            raise ProblemFormatError(f"level {label} not in scheme levels {shown(scheme.labels)}")
        if isinstance(scheme, FolnerExhaustion):
            reports = run_folner(delta, FolnerExhaustion(scheme.group, [label]))
        else:
            phi = scheme.levels[scheme.labels.index(label)]
            reports = run_tower(delta, QuotientTower(scheme.source, [phi], [label]))
        density = reports[0].density
    elif problem.group.is_finite:
        density = density_from_eigs(finite_spectrum(delta))
    else:
        raise ProblemFormatError("problem has no scheme, oracle grid, or finite group")
    if args.json:
        _write_output(canonical_dumps(density_to_json(density)) + "\n", args.output)
    else:
        _write_output(density_csv(density), args.output)
    return EXIT_OK


def _requested_checks(problem: Problem, scheme) -> list:
    """The problem's checks, or the defaults for this scheme (None: none)."""
    if problem.checks is not None:
        return problem.checks
    if isinstance(scheme, FolnerExhaustion):
        return ["traces", "norms"]
    if scheme is None and problem.embedding is not None:
        return ["subgroup"]
    if problem.inverse is not None:
        return ["whitehead", "norms"]
    if isinstance(problem.group, FreeAbelianGroup) and problem.matrix.is_self_adjoint():
        return ["squeeze", "sintapr", "norms"]
    return ["norms"]


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
    kind = None if scheme is None else scheme.kind
    checks = _requested_checks(problem, scheme)
    delta = _operator(problem, checks)
    oracle_available = (
        kind == "tower" and isinstance(problem.group, FreeAbelianGroup) and delta.is_self_adjoint()
    )
    require(
        checks, kind, embedding=problem.embedding is not None,
        inverse=problem.inverse is not None, oracle=oracle_available,
    )
    tol = args.tol
    grid = next(g for g in (args.grid, problem.oracle_grid, 2048) if g is not None)
    if oracle_available:
        check_torus_grid(delta, grid)  # the oracle's cap, before the scheme runs
    kb = k_bound(problem.matrix)
    lam_grid = args.lambda_grid or problem.lambda_grid or [kb * k / 8 for k in range(9)]
    report: dict = {
        "tool": {"name": "l2approx", "version": __version__},
        "problem": {
            "group": group_to_json(problem.group),
            "matrix_shape": list(problem.matrix.shape),
            "k_bound": kb,
        },
        "defaults": {
            "tol": tol,
            "oracle_grid": grid,
            "lambda_grid": lam_grid,
            "eps_ker": args.eps_ker,
        },
    }
    if kind == "tower":  # every cap, then the level count the checks need, before any level runs
        check_tower_caps(delta, scheme)
        verdicts.check_levels(checks, len(scheme.labels))
    reports = []
    if kind is not None:
        report["scheme"] = {"type": kind, scheme.key: scheme.labels}
        run = run_tower if kind == "tower" else run_folner
        reports = run(delta, scheme, kernel_threshold=args.eps_ker)
    ctx = Context(
        problem.matrix, delta, reports, inverse=problem.inverse, embedding=problem.embedding,
        grid=grid if oracle_available else None, lambda_grid=lam_grid, tol=tol,
    )
    if ctx.oracle is not None and "whitehead" not in checks:
        report["oracle"] = ctx.oracle
    results = {name: getattr(verdicts, name)(ctx) for name in VERDICTS if name in checks}
    report["verdicts"] = results
    if reports:
        report["levels"] = [
            level_report_to_json(
                rep, include_timing=args.timings, include_density=args.densities
            )
            for rep in reports
        ]
    _write_output(canonical_dumps(report) + "\n", args.output)
    return EXIT_OK if all(v["ok"] for v in results.values()) else EXIT_PROPERTY


def cmd_cw(args) -> int:
    if args.tol is not None and not args.levels:
        raise ProblemFormatError("--tol needs --levels: only the tower route reads it")
    spec = parse_complex(load_json(args.complex))
    tower = None
    if args.levels:
        if not isinstance(spec.group, FreeAbelianGroup):
            raise ProblemFormatError("--levels needs a free abelian group")
        tower = QuotientTower.zn(spec.group.rank, args.levels)
    tol = DEFAULT_TOL if args.tol is None else args.tol
    rep = l2_invariants(spec, oracle_grid=args.grid, tower=tower, tol=tol)
    _write_output(canonical_dumps(dataclasses.asdict(rep)) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    passed, lines = run_suite(args.suite, args.seed)
    for line in lines:
        status = "PASS" if line.ok else "FAIL"
        detail = f"  ({line.detail})" if line.detail else ""
        print(f"{status} {line.name}{detail}")
    print(f"{'PASS' if passed else 'FAIL'} suite={args.suite} seed={args.seed}")
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
    one = p.add_mutually_exclusive_group()
    one.add_argument("--level", type=int, help="tower/box label to evaluate")
    one.add_argument("--grid", type=_grid, help="torus oracle grid per dimension")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--output")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("approx", help="run an approximation scheme with verdicts")
    p.add_argument("problem")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--levels", type=_levels, help="comma-separated tower moduli override")
    one.add_argument("--boxes", type=_boxes, help="comma-separated Folner box sizes override")
    p.add_argument("--lambda-grid", type=_finite_list, help="comma-separated evaluation points")
    p.add_argument("--grid", type=_grid, help="oracle grid per dimension")
    p.add_argument("--tol", type=_threshold, default=DEFAULT_TOL)
    p.add_argument("--eps-ker", type=_threshold, help="kernel threshold override, >= 0")
    p.add_argument("--timings", action="store_true", help="include wall times (non-reproducible)")
    p.add_argument("--densities", action="store_true", help="include full densities per level")
    p.add_argument("--output")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("cw", help="L2 invariants of a cellular chain complex")
    p.add_argument("complex")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--grid", type=_grid, help="oracle grid per dimension")
    one.add_argument("--levels", type=_levels, help="tower moduli (uses the tower route)")
    p.add_argument("--tol", type=_threshold, help=f"tower route tolerance, default {DEFAULT_TOL}; needs --levels")
    p.add_argument("--output")
    p.set_defaults(func=cmd_cw)

    p = sub.add_parser("verify", help="run a bundled property suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default: {DEFAULT_SEED}")
    p.set_defaults(func=cmd_verify)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One stderr line per warning, in the form of the CLI's errors."""
    print(f"l2approx: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            _check_output(getattr(args, "output", None))
            return args.func(args)
    except (ProblemFormatError, SolveTooLarge) as exc:
        print(f"l2approx: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (L2ApproxError, ValueError, ArithmeticError, KeyError) as exc:
        print(f"l2approx: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from l2approx import cli, cw, oracles, spectral, symmetric_group
from l2approx.cli import main
from l2approx.errors import InjectivityUncertified
from l2approx.groups import QuotientTower
from l2approx.schemes import run_tower
from l2approx.verify import DEFAULT_SEED, SUITES, CheckLine

from conftest import record_torus_slabs

FIXTURES = resources.files("l2approx") / "fixtures"
SEED_REPORTS = Path(__file__).resolve().parent.parent / "benchmarks" / "seed_reports"


def fixture_path(name):
    return str(FIXTURES / name)


def test_density_tower_level_csv(tmp_path, capsys):
    out = tmp_path / "density.csv"
    code = main(
        ["density", fixture_path("zd_laplacian.json"), "--level", "64", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,F"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1 / 64
    assert float(lines[-1].split(",")[1]) == 1.0


def test_density_of_whitehead_problem_is_the_density_of_a_star_a(capsys):
    """A problem with an inverse has the whitehead check, under which approx
    runs A*A: density runs the same operator, a 2 x 2 positive matrix with
    total mass 2 and, A being invertible, no kernel."""
    assert main(["density", fixture_path("whitehead_elementary.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_mass"] == 2
    assert math.isclose(sum(j["mass"] for j in payload["jumps"]), 2.0)
    assert payload["jumps"][0]["lambda"] > 0


def test_density_identity_matrix(tmp_path):
    problem = {
        "group": {"type": "cyclic", "n": 6},
        "matrix": {"entries": [[[{"word": 0, "re": 1}]]]},
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "density.csv"
    assert main(["density", str(path), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1:] == ["1,1"]


def test_density_unknown_level_is_input_error(capsys):
    code = main(["density", fixture_path("zd_laplacian.json"), "--level", "7"])
    assert code == 2
    assert "level" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem",
    [
        {"group": {"type": "cyclic", "n": 4}, "matrix": {"entries": [[[{"word": 0, "re": 1}]]]}},
        {
            "group": {"type": "free_abelian", "rank": 1},
            "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
            "oracle": {"grid": 8},
        },
    ],
    ids=["finite-group", "oracle-grid"],
)
def test_density_level_without_scheme_exits_2(problem, tmp_path, capsys):
    # a level needs a scheme; it is never dropped in favour of the oracle
    # grid or the finite group's own spectrum
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["density", str(path), "--level", "4"]) == 2
    assert "--level needs a problem 'scheme'" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["approx", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["approx", "/nonexistent/problem.json"]) == 2


@pytest.mark.parametrize(
    "case", ["problem-is-a-directory", "complex-is-a-directory", "not-utf-8", "output-is-a-directory"]
)
def test_unreadable_input_or_output_exits_2(case, tmp_path, capsys):
    """A problem that cannot be read or decoded, and an --output that cannot
    be written, are input errors: exit 2, one stderr line, no report."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"group": "\xe9"}')
    argv = {
        "problem-is-a-directory": ["approx", str(tmp_path)],
        "complex-is-a-directory": ["cw", str(tmp_path)],
        "not-utf-8": ["density", str(latin1)],
        "output-is-a-directory": [
            "density", fixture_path("zd_laplacian.json"), "--output", str(tmp_path)
        ],
    }[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("l2approx: input error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", fixture_path("zd_folner.json")],
        ["approx", fixture_path("zd_laplacian.json")],
        ["density", fixture_path("zd_laplacian.json")],
        ["cw", fixture_path("circle.json")],
    ],
    ids=["approx-folner", "approx-tower", "density", "cw"],
)
def test_unwritable_output_exits_2_before_any_level(argv, tmp_path, monkeypatch, capsys):
    """An --output that cannot be written (a directory, a missing parent)
    exits 2 with the one stderr line its write would give, before any
    level or invariant is computed."""

    def no_run(*args, **kwargs):
        raise AssertionError("work ran before the output was checked")

    for name in ("run_folner", "run_tower", "l2_invariants"):
        monkeypatch.setattr(cli, name, no_run)
    for output in (tmp_path, tmp_path / "missing" / "report.out"):
        assert main([*argv, "--output", str(output)]) == 2
        out, err = capsys.readouterr()
        with pytest.raises(OSError) as write_error:
            open(output, "w")
        assert (out, err) == ("", f"l2approx: input error: {write_error.value}\n")
    assert list(tmp_path.iterdir()) == []


def test_output_is_untouched_by_a_failed_run(tmp_path, capsys):
    """The output check neither truncates an existing file nor leaves a new
    one behind: a run that fails after it keeps the old report or no file,
    and a run that succeeds replaces the report."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": 1}')
    kept = tmp_path / "kept.out"
    kept.write_text("old report\n")
    assert main(["density", str(bad), "--output", str(kept)]) == 2
    assert main(["density", str(bad), "--output", str(tmp_path / "new.out")]) == 2
    assert capsys.readouterr().err.count("input error") == 2
    assert kept.read_text() == "old report\n" and not (tmp_path / "new.out").exists()
    assert main(["cw", fixture_path("point.json"), "--output", str(kept)]) == 0
    assert kept.read_bytes() == (SEED_REPORTS / "point.out").read_bytes()


def test_key_error_in_the_library_exits_3(monkeypatch, capsys):
    """Only ProblemFormatError and SolveTooLarge are input errors: a
    KeyError from library code is a computation error."""
    monkeypatch.setattr(cli, "l2_invariants", lambda *args, **kwargs: {}["levels"])
    assert main(["cw", fixture_path("point.json")]) == 3
    assert capsys.readouterr() == ("", "l2approx: KeyError: 'levels'\n")


def test_approx_zd_fixture(tmp_path):
    out = tmp_path / "report.json"
    code = main(["approx", fixture_path("zd_laplacian.json"), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert {k: v["ok"] for k, v in report["verdicts"].items()} == {
        "squeeze": True,
        "sintapr": True,
        "norms": True,
    }
    f0 = [level["f0"] for level in report["levels"]]
    assert f0[:3] == [1 / 8, 1 / 16, 1 / 32]
    assert "oracle" in report and abs(report["oracle"]["value"]) < 0.01
    assert "wall_time" not in report["levels"][0]
    # one oracle solve serves the report and every verdict: on the tower
    # Z/256, Z/512, Z/1024 under sintapr alone, the report's oracle value is
    # the one the verdict compared against
    problem = json.loads((FIXTURES / "zd_laplacian.json").read_text())
    del problem["oracle"], problem["lambda_grid"]
    problem.update(scheme={"type": "tower", "levels": [256, 512, 1024]}, checks=["sintapr"])
    (tmp_path / "sintapr.json").write_text(json.dumps(problem))
    assert main(["approx", str(tmp_path / "sintapr.json"), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["oracle"]["value"] == report["verdicts"]["sintapr"]["oracle_logdet"]


@pytest.mark.parametrize(
    "entries",
    [
        [[[{"word": [1], "re": 1}]]],
        [[[{"word": [0], "re": 2}], [{"word": [1], "re": 1}]], [[], [{"word": [0], "re": 2}]]],
    ],
    ids=["t", "upper_triangular"],
)
def test_torus_density_of_non_self_adjoint_matrix_exits_3(entries, tmp_path, capsys):
    """t (symbol z) and [[2, t], [0, 2]] (lower triangle 2 I) are not
    self-adjoint: the torus oracle prints no density for them."""
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps({"group": {"type": "free_abelian", "rank": 1}, "matrix": {"entries": entries}})
    )
    out = tmp_path / "density.csv"
    assert main(["density", str(path), "--grid", "8", "--output", str(out)]) == 3
    assert "NotHermitian" in capsys.readouterr().err
    assert not out.exists()


def test_approx_single_level_squeeze_fails(capsys):
    code = main(["approx", fixture_path("zd_laplacian.json"), "--levels", "8"])
    assert code == 3
    assert "InsufficientLevels" in capsys.readouterr().err


def test_approx_folner_fixture(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "approx",
            fixture_path("zd_folner.json"),
            "--boxes",
            "4,8,16,32,64",
            "--output",
            str(out),
        ]
    )
    assert code == 1  # trace gap has not reached 1e-2 by m=64; honest failure
    report = json.loads(out.read_text())
    rows = report["verdicts"]["traces"]["rows"]
    gaps = [row["trace_gaps"]["3"] for row in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_approx_whitehead_fixture(tmp_path):
    out = tmp_path / "report.json"
    code = main(["approx", fixture_path("whitehead_elementary.json"), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["whitehead"]["ok"]
    assert report["verdicts"]["whitehead"]["integral"]


def test_approx_subgroup_fixture(tmp_path):
    out = tmp_path / "report.json"
    code = main(["approx", fixture_path("subgroup_z2_z4.json"), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["subgroup"]["ok"]
    assert report["verdicts"]["subgroup"]["max_deviation"] <= 1e-9


def test_approx_complex_fixture(tmp_path):
    out = tmp_path / "report.json"
    code = main(["approx", fixture_path("complex_shift.json"), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["complex"]["ok"]
    assert all(level["f0"] == 0.0 for level in report["levels"])


# the fine oracle grid of each fixture's operator, then the coarse one
ORACLE_GRIDS = {
    "complex_shift": [2048, 1024],
    "whitehead_elementary": [2048, 1024],
    "zd_laplacian": [4096, 2048],
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_approx_complex_solves_oracle_grid_once(name, monkeypatch, capsys):
    # every verdict and the oracle logdet share one fine-grid solve;
    # the coarse grid is the logdet's error estimate.  Each grid is one
    # pass over its rows, in slabs (the fine grid is one slab)
    slabs = record_torus_slabs(monkeypatch)
    assert main(["approx", fixture_path(f"{name}.json")]) == 0
    rows = [(m, row) for m, lo, hi in slabs for row in range(lo, hi)]
    assert rows == [(m, row) for m in ORACLE_GRIDS[name] for row in range(m)]
    assert capsys.readouterr().out.encode() == (SEED_REPORTS / f"{name}.out").read_bytes()


def test_approx_whitehead_honours_eps_ker(capsys):
    # the levels of A*A are run with the requested kernel threshold; the
    # eigenvalues it moves into the kernel leave the level logdets, which
    # then no longer vanish
    codes, f0 = [], []
    for flags in ([], ["--eps-ker", "0.5"]):
        codes.append(main(["approx", fixture_path("whitehead_elementary.json"), *flags]))
        f0.append([level["f0"] for level in json.loads(capsys.readouterr().out)["levels"]])
    assert codes == [0, 1]
    assert all(v == 0.0 for v in f0[0])
    assert all(v > 0.0 for v in f0[1])


def test_approx_whitehead_verdicts_read_one_operator(tmp_path, capsys):
    # A = 2, B = 1/2: every verdict refers to A*A = 4, whose logdet ln 4
    # fails whitehead while squeeze and sintapr hold
    problem = {
        "group": {"type": "free_abelian", "rank": 1},
        "matrix": {"entries": [[[{"word": [0], "re": 2}]]]},
        "inverse": {"entries": [[[{"word": [0], "re": "1/2"}]]]},
        "scheme": {"type": "tower", "levels": [4, 8, 16]},
        "checks": ["whitehead", "squeeze", "sintapr"],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["approx", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {k: v["ok"] for k, v in report["verdicts"].items()} == {
        "whitehead": False,
        "squeeze": True,
        "sintapr": True,
    }
    assert "oracle" not in report
    assert math.isclose(report["verdicts"]["sintapr"]["oracle_logdet"], math.log(4))
    assert math.isclose(report["verdicts"]["whitehead"]["oracle"]["value"], math.log(4))


def test_approx_deterministic_output(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["approx", fixture_path("zd_laplacian.json"), "--levels", "8,16,32"]
    assert main(args + ["--output", str(out1)]) in (0, 1)
    assert main(args + ["--output", str(out2)]) in (0, 1)
    assert out1.read_bytes() == out2.read_bytes()


def test_cw_circle(tmp_path):
    out = tmp_path / "circle.json"
    assert main(["cw", fixture_path("circle.json"), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["torsion"]) <= 0.02
    assert report["acyclic"] is True
    assert report["betti"] == [0, 0]


def test_cw_torus(tmp_path):
    out = tmp_path / "torus.json"
    assert main(
        ["cw", fixture_path("torus.json"), "--grid", "128", "--output", str(out)]
    ) == 0
    report = json.loads(out.read_text())
    assert all(b <= 0.02 for b in report["betti"])
    assert abs(report["torsion"]) <= 0.02
    # the tower route: determinant class in every degree
    assert main(["cw", fixture_path("torus.json"), "--levels", "4,8,16", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["det_class"] == [True, True, True]


def test_cw_point(tmp_path):
    out = tmp_path / "point.json"
    assert main(["cw", fixture_path("point.json"), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["betti"] == [1]
    assert report["torsion"] is None


# Z complexes with a degree of no cells: the boundary is 1 x 0 or 0 x 1
EMPTY_DEGREE_COMPLEXES = {
    "cells-1-0": ([1, 0], {"rows": 1, "cols": 0, "entries": [[]]}, [1, 0]),
    "cells-0-1": ([0, 1], {"rows": 0, "cols": 1, "entries": []}, [0, 1]),
}


@pytest.mark.parametrize("route", [[], ["--levels", "4,8"]], ids=["oracle", "tower"])
@pytest.mark.parametrize("case", sorted(EMPTY_DEGREE_COMPLEXES))
def test_cw_complex_with_an_empty_degree(case, route, tmp_path, capsys):
    cells, boundary, betti = EMPTY_DEGREE_COMPLEXES[case]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "group": {"type": "free_abelian", "rank": 1},
        "cells": cells,
        "boundaries": [boundary],
    }))
    assert main(["cw", str(path)] + route) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["betti"] == betti and report["dims"] == cells
    assert report["euler_l2"] == report["euler_cells"]


def test_cw_tol_is_the_tower_routes(tmp_path, capsys, monkeypatch):
    """--tol is the tolerance of the tower route's determinant verdict.
    Without --levels no route reads it: exit 2, one input error line and
    no report.  With --levels it reaches the verdict, 0.02 by default."""
    out = tmp_path / "report.out"
    for flags in (["--tol", "0.5"], ["--tol", "0", "--grid", "8"]):
        assert main(["cw", fixture_path("circle.json"), *flags, "--output", str(out)]) == 2
        assert not out.exists()
        message = "--tol needs --levels: only the tower route reads it"
        assert capsys.readouterr() == ("", f"l2approx: input error: {message}\n")
    seen = []
    tower_degree = cw._tower_degree

    def recorded(delta, tower, tol):
        seen.append(tol)
        return tower_degree(delta, tower, tol)

    monkeypatch.setattr(cw, "_tower_degree", recorded)
    for flags, tol in (([], 0.02), (["--tol", "0.5"], 0.5)):
        seen.clear()
        assert main(["cw", fixture_path("circle.json"), "--levels", "8,16", *flags]) == 0
        assert seen == [tol]
        assert json.loads(capsys.readouterr().out)["det_class"] == [True, True]


def test_cw_rejects_noncomplex(tmp_path, capsys):
    bad = {
        "group": {"type": "free_abelian", "rank": 1},
        "cells": [1, 1, 1],
        "boundaries": [
            {"entries": [[[{"word": [0], "re": 1}, {"word": [1], "re": -1}]]]},
            {"entries": [[[{"word": [0], "re": 1}, {"word": [1], "re": 1}]]]},
        ],
    }
    path = tmp_path / "bad_complex.json"
    path.write_text(json.dumps(bad))
    assert main(["cw", str(path)]) == 3
    assert "NotAComplex" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::l2approx.errors.InjectivityUncertified")
def test_verify_determinant_suite(capsys):
    # low tower levels legitimately fail to certify injectivity for high
    # powers; the suite downgrades that to a warning by design
    assert main(["verify", "determinant", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "trivial-group-integrality" in out
    assert "PASS suite=determinant" in out


@pytest.mark.filterwarnings("ignore::l2approx.errors.InjectivityUncertified")
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suite_passes_at_default_seed(suite, capsys):
    assert main(["verify", suite]) == 0
    assert f"PASS suite={suite}" in capsys.readouterr().out


def test_approx_prints_each_warning_on_one_stderr_line(tmp_path, capsys, z_laplacian):
    """Level Z/2 of 2 - t - 1/t cannot certify injectivity for its trace
    powers: approx prints each InjectivityUncertified as one line of the
    CLI's own form, with no source line, while the library still warns
    with the category."""
    laplacian = [{"word": [0], "re": 2}, {"word": [1], "re": -1}, {"word": [-1], "re": -1}]
    path = tmp_path / "low_level.json"
    path.write_text(json.dumps(_z_problem(
        matrix={"entries": [[laplacian]]}, scheme={"type": "tower", "levels": [2, 64]},
    )))
    assert main(["approx", str(path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err and all(
        line.startswith("l2approx: warning: level 2 does not certify injectivity for power ")
        for line in err
    ), err
    with pytest.warns(InjectivityUncertified, match="level 2 does not certify"):
        run_tower(z_laplacian, QuotientTower.zn(1, [2]))


def test_verify_all_runs_each_suite_at_the_seed(monkeypatch, capsys):
    """verify all runs every suite in table order at one seed and passes only
    if every line does; --seed alone picks the seed, DEFAULT_SEED without
    it, whatever the environment holds, and a malformed --seed exits 2."""
    for name in SUITES:
        monkeypatch.setitem(
            SUITES, name, lambda seed, name=name: [CheckLine(f"{name}[{seed}]", True)]
        )
    monkeypatch.setenv("L2APPROX_SEED", "7")
    assert main(["verify", "all"]) == 0
    expected = [f"PASS {name}[{DEFAULT_SEED}]" for name in SUITES]
    assert capsys.readouterr().out.splitlines() == expected + [f"PASS suite=all seed={DEFAULT_SEED}"]
    monkeypatch.setitem(SUITES, "squeeze", lambda seed: [CheckLine("squeeze", False)])
    assert main(["verify", "all", "--seed", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL suite=all seed=3"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "traces", "--seed", "abc"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "unknown-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", True])
def test_table_entry_not_an_integer_exits_2(entry, tmp_path, capsys):
    problem = {
        "group": {"type": "finite_table", "table": [[0, entry], [1, 0]]},
        "matrix": {"entries": [[[{"word": 0, "re": 1}]]]},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(problem))
    assert main(["density", str(path)]) == 2
    assert "table must be a list of integer rows" in capsys.readouterr().err


def test_bad_table_entry_names_its_place_not_the_table(tmp_path, capsys):
    """One non-integer entry of the S5 table is one short stderr line that
    names its row, column and value; the table itself (about 59 kB) is not
    echoed."""
    table = [list(row) for row in symmetric_group(5).table]
    table[7][3] = 3.5
    problem = {
        "group": {"type": "finite_table", "table": table},
        "matrix": {"entries": [[[{"word": 0, "re": 1}]]]},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(problem))
    assert main(["density", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert len(line) < 200
    assert "table must be a list of integer rows" in line
    assert "row 7, column 3 is 3.5" in line


S5_TABLE = [list(row) for row in symmetric_group(5).table]
ONE = {"entries": [[[{"word": [0], "re": 1}]]]}
Z_TOWER = {"type": "tower", "levels": [4, 8, 16]}
LONG_ECHOES = {
    "typeless_group": (
        {"group": {"table": S5_TABLE}, "matrix": ONE}, "group must be an object with a 'type'"
    ),
    "lambda_grid": (
        {"group": {"type": "free_abelian", "rank": 1}, "matrix": ONE, "scheme": Z_TOWER,
         "lambda_grid": [0] * 50000 + ["x"]},
        "lambda_grid must be a list of finite numbers",
    ),
    "long_coefficient": (
        {"group": {"type": "cyclic", "n": 2},
         "matrix": {"entries": [[[{"word": 0, "re": "1" * 100000 + "x"}]]]}},
        "is not a rational",
    ),
    "matrix_without_entries": (
        {"group": {"type": "cyclic", "n": 2}, "matrix": {"rows": S5_TABLE}},
        "matrix must be an object with 'entries'",
    ),
    "typeless_scheme": (
        {"group": {"type": "free_abelian", "rank": 1}, "matrix": ONE,
         "scheme": {"levels": list(range(1, 50001))}},
        "scheme must be an object with a 'type'",
    ),
    "long_word": (
        {"group": {"type": "free_abelian", "rank": 1},
         "matrix": {"entries": [[[{"word": [1] * 50000, "re": 1}]]]}},
        "is not an element of Z^1",
    ),
}


@pytest.mark.parametrize("problem, prefix", LONG_ECHOES.values(), ids=LONG_ECHOES)
def test_input_errors_never_echo_a_whole_input(problem, prefix, tmp_path, capsys):
    """An input error names the value it rejects in a bounded abbreviation:
    one short stderr line, however large the value."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["density", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert len(line) < 300
    assert prefix in line


@pytest.mark.parametrize(
    "text, message",
    [("[" * 100000 + "]" * 100000, "recursion"), ('{"n": ' + "1" * 5000 + "}", "4300 digits")],
    ids=["deep_nesting", "long_integer"],
)
def test_unreadable_json_is_an_input_error(text, message, tmp_path, capsys):
    """JSON that nests past the recursion limit, or holds an integer past
    Python's digit limit, is an input error like any other unreadable file."""
    path = tmp_path / "problem.json"
    path.write_text(text)
    assert main(["density", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert message in line and len(line) < 300


def _cyclic_problem(n=4, word=0, **matrix):
    return {
        "group": {"type": "cyclic", "n": n},
        "matrix": {"entries": [[[{"word": word, "re": 1}]]], **matrix},
    }


_Z_TO_Z4 = {"target": {"type": "cyclic", "n": 4}, "images": [1]}


def _z_problem(**fields):
    # the identity over Z on a three-level tower, checked for norms only
    return {
        "group": {"type": "free_abelian", "rank": 1},
        "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
        "scheme": {"type": "tower", "levels": [4, 8, 16]},
        "checks": ["norms"],
        **fields,
    }


HOSTILE_FILES = {
    "term-is-a-list": ("density", _cyclic_problem(entries=[[[[0, 1]]]])),
    "entries-not-a-list": ("density", _cyclic_problem(entries=7)),
    "names-not-a-list": (
        "density",
        {
            "group": {"type": "finite_table", "table": [[0, 1], [1, 0]], "names": 5},
            "matrix": {"entries": [[[{"word": 0, "re": 1}]]]},
        },
    ),
    "order-is-a-float": ("density", _cyclic_problem(n=4.7)),
    "order-is-a-string": ("density", _cyclic_problem(n="abc")),
    "word-is-a-float": ("density", _cyclic_problem(word=1.9)),
    "rows-is-a-string": ("density", _cyclic_problem(rows="x")),
    "rank-is-a-bool": (
        "density",
        {
            "group": {"type": "free_abelian", "rank": True},
            "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
            "scheme": {"type": "tower", "levels": [4]},
        },
    ),
    "tower-level-is-a-float": (
        "density",
        {
            "group": {"type": "free_abelian", "rank": 1},
            "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
            "scheme": {"type": "tower", "levels": [4.5, 8]},
        },
    ),
    "box-is-a-string": (
        "density",
        {
            "group": {"type": "free_abelian", "rank": 1},
            "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
            "scheme": {"type": "folner", "boxes": ["4"]},
        },
    ),
    "oracle-grid-is-a-float": (
        "density",
        {
            "group": {"type": "free_abelian", "rank": 1},
            "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
            "oracle": {"grid": 8.0},
        },
    ),
    "cells-is-a-float": (
        "cw",
        {"group": {"type": "free_abelian", "rank": 1}, "cells": [1, 1.5], "boundaries": []},
    ),
    "factors-not-a-list": (
        "density",
        {
            "group": {"type": "product", "factors": 5},
            "matrix": {"entries": [[[{"word": [], "re": 1}]]]},
        },
    ),
    "maps-not-a-list": (
        "approx",
        {
            "group": {"type": "free", "rank": 2},
            "matrix": {"entries": [[[{"word": [], "re": 1}]]]},
            "scheme": {"type": "tower", "maps": 5},
        },
    ),
    "embedding-not-an-object": ("density", {**_cyclic_problem(), "embedding": 5}),
    "lambda-grid-not-a-list": ("density", {**_cyclic_problem(), "lambda_grid": 5}),
    "lambda-grid-bool-and-string": ("density", {**_cyclic_problem(), "lambda_grid": [True, "2"]}),
    "lambda-grid-non-numeric-string": ("density", {**_cyclic_problem(), "lambda_grid": ["abc"]}),
    "lambda-grid-bool": ("density", {**_cyclic_problem(), "lambda_grid": [0.5, True]}),
    "lambda-grid-nan": ("density", {**_cyclic_problem(), "lambda_grid": [0.5, float("nan")]}),
    "lambda-grid-infinity": ("density", {**_cyclic_problem(), "lambda_grid": [float("inf")]}),
    "lambda-grid-int-beyond-float": ("density", {**_cyclic_problem(), "lambda_grid": [10**400]}),
    "lambda-grid-empty": ("approx", _z_problem(lambda_grid=[])),
    "element-map-entry-not-a-pair": (
        "density",
        {
            **_cyclic_problem(),
            "embedding": {"target": {"type": "cyclic", "n": 8}, "element_map": [5, 6]},
        },
    ),
    "element-map-entry-of-length-3": (
        "density",
        {
            **_cyclic_problem(),
            "embedding": {
                "target": {"type": "cyclic", "n": 8},
                "element_map": [[0, 0, 1], [1, 2, 3]],
            },
        },
    ),
    "oracle-grid-zero": ("approx", _z_problem(oracle={"grid": 0})),
    "oracle-grid-negative": ("approx", _z_problem(oracle={"grid": -4})),
    "oracle-not-an-object": ("approx", _z_problem(oracle=5)),
    "tower-levels-below-1": ("density", _z_problem(scheme={"type": "tower", "levels": [0, 4]})),
    "boxes-not-increasing": ("density", _z_problem(scheme={"type": "folner", "boxes": [4, 2]})),
    "tower-levels-empty": ("density", _z_problem(scheme={"type": "tower", "levels": []})),
    "boxes-empty": ("density", _z_problem(scheme={"type": "folner", "boxes": []})),
    "box-negative": ("density", _z_problem(scheme={"type": "folner", "boxes": [-1, 2]})),
    "tower-labels-a-string": (
        "density",
        _z_problem(scheme={"type": "tower", "maps": [_Z_TO_Z4] * 2, "labels": "ab"}),
    ),
    "tower-label-an-object": (
        "density",
        _z_problem(scheme={"type": "tower", "maps": [_Z_TO_Z4], "labels": [{"a": 1}]}),
    ),
    "folner-with-squeeze": (
        "approx",
        _z_problem(scheme={"type": "folner", "boxes": [2, 4, 8]}, checks=["squeeze"]),
    ),
    "tower-with-traces": ("approx", _z_problem(checks=["traces"])),
    "folner-with-whitehead": (
        "approx",
        _z_problem(
            matrix={"entries": [[[{"word": [1], "re": 1}]]]},
            inverse={"entries": [[[{"word": [-1], "re": 1}]]]},
            scheme={"type": "folner", "boxes": [2, 4]},
            checks=["whitehead"],
        ),
    ),
    "folner-with-complex": (
        "approx",
        _z_problem(scheme={"type": "folner", "boxes": [2, 4]}, checks=["complex"]),
    ),
    "box-over-row-cap": ("density", _z_problem(scheme={"type": "folner", "boxes": [4, 8192]})),
    "box-over-band-cap": (
        "approx",
        _z_problem(
            matrix={"entries": [[[{"word": [0], "re": 3}, {"word": [1100], "re": 1}, {"word": [-1100], "re": 1}]]]},
            scheme={"type": "folner", "boxes": [8000]},
        ),
    ),
    "cells-negative": ("cw", {"group": {"type": "free_abelian", "rank": 1}, "cells": [-1]}),
    "declared-cols-negative": (
        "cw",
        {
            "group": {"type": "free_abelian", "rank": 1},
            "cells": [0, 1],
            "boundaries": [{"rows": 0, "cols": -1, "entries": []}],
        },
    ),
    "coefficient-not-a-number": ("density", _cyclic_problem(entries=[[[{"word": 0, "re": "abc"}]]])),
    "coefficient-empty": ("density", _cyclic_problem(entries=[[[{"word": 0, "im": ""}]]])),
    "coefficient-nan": ("density", _cyclic_problem(entries=[[[{"word": 0, "re": "nan"}]]])),
    "coefficient-zero-denominator": ("density", _cyclic_problem(entries=[[[{"word": 0, "re": "1/0"}]]])),
    "ragged-rows": (
        "density",
        _cyclic_problem(entries=[[[{"word": 0, "re": 1}], []], [[{"word": 0, "re": 1}]]]),
    ),
    "product-element-as-nested-pair": (
        "density",
        {
            "group": {
                "type": "product",
                "factors": [{"type": "cyclic", "n": 2}] * 3,
            },
            "matrix": {"entries": [[[{"word": [[0, 0], 0], "re": 1}]]]},
        },
    ),
}


# group content that the group and homomorphism constructors reject
MALFORMED_GROUP_CONTENT = {
    "cyclic-order-0": _cyclic_problem(n=0),
    "free-abelian-rank-negative": {
        "group": {"type": "free_abelian", "rank": -1},
        "matrix": {"entries": [[[{"word": [], "re": 1}]]]},
    },
    "free-rank-0": {
        "group": {"type": "free", "rank": 0},
        "matrix": {"entries": [[[{"word": [], "re": 1}]]]},
    },
    "table-not-latin": {
        "group": {"type": "finite_table", "table": [[0, 1], [0, 1]]},
        "matrix": {"entries": [[[{"word": 0, "re": 1}]]]},
    },
    "word-outside-z2": _cyclic_problem(n=2, word=5),
    "embedding-two-images-for-z": _z_problem(
        embedding={"target": {"type": "cyclic", "n": 4}, "images": [1, 2]}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GROUP_CONTENT))
def test_malformed_group_content_exits_2(case, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(MALFORMED_GROUP_CONTENT[case]))
    assert main(["density", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "input error" in err


@pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
def test_hostile_problem_file_exits_2(case, tmp_path, capsys):
    command, problem = HOSTILE_FILES[case]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main([command, str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("kind, field", [("tower", "levels"), ("folner", "boxes")])
def test_missing_scheme_field_is_named(kind, field, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_z_problem(scheme={"type": kind})))
    assert main(["approx", str(path)]) == 2
    message = f"{kind} scheme is missing field '{field}'"
    assert capsys.readouterr() == ("", f"l2approx: input error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "zd_laplacian.json", "--grid", "0"],
        ["density", "zd_laplacian.json", "--grid", "0"],
        ["cw", "circle.json", "--grid", "0"],
        ["approx", "zd_laplacian.json", "--grid", "-4"],
        ["approx", "zd_laplacian.json", "--levels", "a"],
        ["approx", "zd_laplacian.json", "--levels", "0,4"],
        ["cw", "circle.json", "--levels", "0,4"],
        ["approx", "zd_folner.json", "--boxes", "x"],
        ["approx", "zd_folner.json", "--boxes", "4,2"],
        ["approx", "zd_laplacian.json", "--lambda-grid", "foo"],
        ["approx", "zd_laplacian.json", "--lambda-grid", "0,nan"],
        ["approx", "zd_laplacian.json", "--tol", "nan"],
        ["cw", "circle.json", "--tol", "inf"],
        ["approx", "zd_laplacian.json", "--tol", "-1"],
        ["cw", "circle.json", "--tol", "-5", "--levels", "8,16"],
        ["approx", "zd_laplacian.json", "--eps-ker", "nan"],
        ["approx", "zd_laplacian.json", "--eps-ker", "-0.5"],
        ["approx", "zd_laplacian.json", "--eps-ker", "-1"],
        ["density", "zd_laplacian.json", "--grid", "8", "--level", "64"],
        ["cw", "circle.json", "--grid", "8", "--levels", "8,16"],
        ["approx", "zd_laplacian.json", "--levels", "8,16,32", "--boxes", "2,4"],
        # an empty list is rejected, never read as "no override"
        ["approx", "zd_laplacian.json", "--levels", ","],
        ["approx", "zd_folner.json", "--boxes", ","],
        ["approx", "zd_laplacian.json", "--lambda-grid", ","],
        ["cw", "circle.json", "--levels", ","],
    ],
    ids=" ".join,
)
def test_malformed_flag_exits_2(argv, tmp_path, capsys):
    command, name, *flags = argv
    out = tmp_path / "report.out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, fixture_path(name), *flags, "--output", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"argument {flags[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, problem",
    [
        (["--grid", "8"], _cyclic_problem()),
        ([], {**_cyclic_problem(), "oracle": {"grid": 8}}),
        (
            [],
            {
                "group": {"type": "free", "rank": 1},
                "matrix": {"entries": [[[{"word": [], "re": 1}]]]},
                "oracle": {"grid": 8},
            },
        ),
    ],
    ids=["flag", "problem", "free-group"],
)
def test_density_torus_grid_needs_a_free_abelian_group(flags, problem, tmp_path, capsys):
    """A torus grid, from --grid or the problem's oracle, over a group that
    is not free abelian is an input error, worded like --levels'."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["density", str(path), *flags]) == 2
    what = "--grid" if flags else "oracle grid"
    assert capsys.readouterr() == ("", f"l2approx: input error: {what} needs a free abelian group\n")


def test_cw_oracle_route_over_a_free_group_exits_2(tmp_path, capsys, monkeypatch):
    """No oracle serves a group that is neither free abelian nor finite:
    without --levels cw says so as an input error before it builds any
    Laplacian, as density --grid does."""

    def no_laplacians(spec):
        raise AssertionError("a Laplacian was built before the route was checked")

    monkeypatch.setattr(cw, "laplacians", no_laplacians)
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"group": {"type": "free", "rank": 1}, "cells": [1], "boundaries": []}))
    out = tmp_path / "report.out"
    for flags in ([], ["--grid", "8"]):
        assert main(["cw", str(path), *flags, "--output", str(out)]) == 2
        assert not out.exists()
        message = "the oracle route needs a free abelian or finite group, got F_1"
        assert capsys.readouterr() == ("", f"l2approx: input error: {message}\n")


def test_exponent_coefficient_exits_2_at_once(tmp_path, capsys):
    """A coefficient "1e100000000" would make Fraction build 10^(10^8):
    it is an input error, found before any arithmetic on it."""
    path = tmp_path / "problem.json"
    problem = _z_problem()
    problem["matrix"]["entries"][0][0][0]["re"] = "1e100000000"
    path.write_text(json.dumps(problem))
    start = time.perf_counter()
    code = main(["approx", str(path)])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "",
        "l2approx: input error: coefficient '1e100000000' has an exponent; write it as 'p/q'\n",
    )


def test_approx_boxes_beyond_caps_exit_2_before_any_level(tmp_path, capsys):
    out = tmp_path / "report.out"
    start = time.perf_counter()
    code = main(["approx", fixture_path("zd_folner.json"), "--boxes", "4,32768", "--output", str(out)])
    assert code == 2 and time.perf_counter() - start < 0.5
    assert not out.exists()
    err = capsys.readouterr().err
    assert "65537 rows" in err and "Traceback" not in err


# Delta = 2 - t^3 - t^-3 over Z on the tower Z -> Z/N, with the torus oracle
TOWER_LADDER = {
    "group": {"type": "free_abelian", "rank": 1},
    "matrix": {"entries": [[[
        {"word": [0], "re": 2}, {"word": [3], "re": -1}, {"word": [-3], "re": -1}
    ]]]},
    "scheme": {"type": "tower", "levels": [8, 16, 32]},
    "oracle": {"grid": 4096},
    "lambda_grid": [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4],
    "checks": ["squeeze", "sintapr", "norms"],
}


# S5 x S5 has |G| = 14400 points, below the point cap, but H = S5 x S5 is
# not cyclic: one dense 14400 x 14400 block, far beyond the block cap
S5 = {"type": "finite_table", "table": S5_TABLE}
S5_X_S5 = {"type": "product", "factors": [S5, S5]}
S5_X_S5_INPUTS = {
    "S5XS5_DENSITY": {"group": S5_X_S5, "matrix": {"entries": [[[{"word": [0, 0], "re": 1}]]]}},
    "S5XS5_TOWER": {
        "group": {"type": "free", "rank": 2},
        "matrix": {"entries": [[[{"word": [], "re": 2}, {"word": [1], "re": -1}, {"word": [-1], "re": -1}]]]},
        "scheme": {"type": "tower", "maps": [
            {"target": {"type": "cyclic", "n": 4}, "images": [1, 0]},
            {"target": S5_X_S5, "images": [[1, 2], [3, 4]]},
        ], "labels": [4, 14400]},
    },
    "S5XS5_CW": {"group": S5_X_S5, "cells": [1], "boundaries": []},
    # over S5, degree 0 (one 120 x 120 block) is below the caps and degree 1
    # (one block of 35 * 120 = 4200 rows) beyond the block cap
    "S5_WIDE_CW": {
        "group": S5,
        "cells": [1, 35],
        "boundaries": [{"rows": 1, "cols": 35, "entries": [[[] for _ in range(35)]]}],
    },
}
BLOCK_CAP_MESSAGE = "has 1 character blocks of 14400 x 14400 = 207360000 entries"
# over Z^2 at grid 256, a 64 x 64 matrix has 2^22 eigenvalues (at the point
# cap); unless it is diagonal, its stack of 64 x 64 symbols has 2^28 entries
# (the complex's Laplacian is 8 x 8 at grid 724, quicker to assemble exactly)
ONE = [{"word": [0, 0], "re": 1}]
Z2 = {"type": "free_abelian", "rank": 2}
WIDE_TORUS_INPUTS = {
    "WIDE_TORUS": {
        "group": Z2,
        "matrix": {"entries": [[ONE if k == l or k + l == 1 else [] for l in range(64)] for k in range(64)]},
    },
    # degree 0 is the 8 x 8 rank-one Laplacian of a boundary 8 x 1
    "WIDE_TORUS_CW": {
        "group": Z2,
        "cells": [8, 1],
        "boundaries": [{"rows": 8, "cols": 1, "entries": [
            [[{"word": [0, 0], "re": 1}, {"word": [1, 0], "re": -1}]] for _ in range(8)
        ]}],
    },
}
TORUS_CAP_MESSAGE = "oracle grid 256 has 65536 symbols of 64 x 64 = 268435456 entries"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cw", fixture_path("torus.json"), "--grid", "100000"],
         "oracle grid 100000 has 10000000000 points x 2 rows"),
        # degree 0 alone (one row) is below the cap; degree 1 is checked first
        (["cw", fixture_path("torus.json"), "--grid", "1449"],
         "oracle grid 1449 has 2099601 points x 2 rows"),
        (["cw", fixture_path("torus.json"), "--levels", "8,1449"],
         "tower level 1449 has 2099601 points x 2 rows"),
        (["approx", "LADDER", "--levels", "8,1000000000"],
         "tower level 1000000000 has 1000000000 points x 1 rows"),
        (["approx", "LADDER", "--grid", "5000000"],
         "oracle grid 5000000 has 5000000 points"),
        (["density", "LADDER", "--grid", "5000000"], "oracle grid 5000000"),
        (["density", "S5XS5_DENSITY"], f"group (table group of order 120 x table group of order 120) {BLOCK_CAP_MESSAGE}"),
        # the Z/4 level is below both caps; level 14400 is checked first
        (["approx", "S5XS5_TOWER"], f"tower level 14400 {BLOCK_CAP_MESSAGE}"),
        (["cw", "S5XS5_CW"], BLOCK_CAP_MESSAGE),
        (["cw", "S5_WIDE_CW"], "has 1 character blocks of 4200 x 4200 = 17640000 entries"),
        (["density", "WIDE_TORUS", "--grid", "256"], TORUS_CAP_MESSAGE),
        (["approx", "WIDE_TORUS", "--levels", "2,4,8", "--grid", "256"], TORUS_CAP_MESSAGE),
        (["cw", "WIDE_TORUS_CW", "--grid", "724"],
         "oracle grid 724 has 524176 symbols of 8 x 8 = 33547264 entries"),
    ],
)
def test_solves_beyond_the_point_cap_exit_2_before_any_solve(
    argv, message, tmp_path, capsys, monkeypatch
):
    """Each of these would allocate gigabytes, or solve a smaller degree or
    level first: a cap on eigenvalues per solve, and on the entries of the
    character blocks of a finite group, stops them with an input error
    before the first solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the cap was checked")

    for module in (oracles, spectral):
        monkeypatch.setattr(module, "_operator_eigenvalues", no_solve)
    inputs = {"LADDER": TOWER_LADDER, **S5_X_S5_INPUTS, **WIDE_TORUS_INPUTS}
    for name, problem in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(problem))
    argv = [str(tmp_path / f"{a}.json") if a in inputs else a for a in argv]
    out = tmp_path / "report.out"
    start = time.perf_counter()
    code = main([*argv, "--output", str(out)])
    assert code == 2 and time.perf_counter() - start < 0.5
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# over Z^2, a 64 x 1 boundary of 1 - a: at grid 512 (or a level (Z/512)^2)
# the widest Laplacian has 512^2 x 64 = 2^24 eigenvalues, beyond the cap,
# and its exact assembly alone takes over a second
NARROW_BOUNDARY_CW = {
    "group": Z2,
    "cells": [64, 1],
    "boundaries": [{"rows": 64, "cols": 1, "entries": [
        [[{"word": [0, 0], "re": 1}, {"word": [1, 0], "re": -1}]] for _ in range(64)
    ]}],
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--grid", "512"], "oracle grid 512 has 262144 points x 64 rows"),
        (["--levels", "8,512"], "tower level 512 has 262144 points x 64 rows"),
    ],
)
def test_cw_checks_the_eigenvalue_cap_before_any_laplacian(argv, message, tmp_path, capsys, monkeypatch):
    """The eigenvalue cap needs only the cell counts: cw exits 2 with no
    report before it builds any exact Laplacian."""

    def no_laplacians(spec):
        raise AssertionError("a Laplacian was built before the cap was checked")

    monkeypatch.setattr(cw, "laplacians", no_laplacians)
    problem = tmp_path / "narrow.json"
    problem.write_text(json.dumps(NARROW_BOUNDARY_CW))
    out = tmp_path / "report.out"
    assert main(["cw", str(problem), *argv, "--output", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


SCIPY_PROBE = """
import contextlib, io, sys
from l2approx.cli import main
fixtures = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["approx", fixtures + "/zd_laplacian.json"]) == 0
    assert main(["cw", fixtures + "/torus.json"]) == 0
    assert main(["density", fixtures + "/zd_folner.json", "--level", "4"]) == 0
print("scipy.linalg" in sys.modules, file=sys.stderr)
"""


def test_scipy_linalg_is_never_imported():
    """Importing scipy.linalg costs about a quarter second; the Folner solve
    calls LAPACK without it, so no run pays for it."""
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(FIXTURES)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.split() == ["False"]


POLYNOMIAL_PROBE = """
import contextlib, io, sys
from l2approx.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["approx", sys.argv[1] + "/zd_laplacian.json"]) == 0
print("numpy.polynomial" in sys.modules, file=sys.stderr)
"""


def test_numpy_polynomial_is_not_imported_by_a_tower_run():
    """No library module imports numpy.polynomial, so importing l2approx
    and running a tower does not load it."""
    result = subprocess.run(
        [sys.executable, "-c", POLYNOMIAL_PROBE, str(FIXTURES)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.split() == ["False"]


LAZY_NUMPY_PROBE = """
import contextlib, io, sys
from pathlib import Path
import l2approx
from l2approx.cli import main
from l2approx.jsonio import load_json, parse_complex, parse_problem
fixtures, out, bad = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
for path in sorted(fixtures.glob("*.json")):
    obj = load_json(str(path))
    (parse_complex if "cells" in obj else parse_problem)(obj)
assert len(list(fixtures.glob("*.json"))) == 8
print("parse", "numpy.linalg" in sys.modules)
# F2 -> S5 x Z/k, k = 1, 2, 4, 8, 12, the shape of dense-finite: one S5
# table repeated in all 5 maps, validated once
import itertools
from l2approx.groups import _validate_table
s5 = sorted(itertools.permutations(range(5)))
rank = {p: i for i, p in enumerate(s5)}
table = [[rank[tuple(p[k] for k in q)] for q in s5] for p in s5]
maps = [
    {"target": {"type": "product", "factors": [{"type": "finite_table", "table": table},
                                               {"type": "cyclic", "n": k}]},
     "images": [[1, 0], [rank[(1, 2, 3, 4, 0)], k - 1]]}
    for k in (1, 2, 4, 8, 12)
]
_validate_table.cache_clear()
parse_problem({"group": {"type": "free", "rank": 2},
               "matrix": {"entries": [[[{"word": [], "re": 4}, {"word": [1], "re": -1}]]]},
               "scheme": {"type": "tower", "maps": maps}})
info = _validate_table.cache_info()
print("table", info.misses, info.hits, "numpy.linalg" in sys.modules)
with contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["approx", path]) for path in bad]
print("errors", *codes, "numpy.linalg" in sys.modules)
print("report", main(["approx", str(fixtures / "zd_laplacian.json"), "--output", out]),
      "numpy.linalg" in sys.modules)
"""


def test_numpy_is_loaded_on_first_numeric_use(tmp_path):
    """Importing l2approx, parsing every fixture, a tower onto S5 x Z/k
    that repeats one finite table, and every input error (a missing file, a
    group with no type, a bad coefficient) leave numpy unloaded: numpy's
    __init__ imports numpy.linalg, so its absence shows that __init__ never
    ran.  The repeated table is validated once.  A report then loads numpy
    and prints the seed report."""
    typeless = tmp_path / "typeless.json"
    typeless.write_text(json.dumps({"group": {"n": 2}, "matrix": {"entries": []}}))
    coefficient = tmp_path / "coefficient.json"
    coefficient.write_text(json.dumps(
        {"group": {"type": "cyclic", "n": 2}, "matrix": {"entries": [[[{"word": 0, "re": "1/x"}]]]}}
    ))
    out = tmp_path / "zd_laplacian.out"
    bad = [str(tmp_path / "missing.json"), str(typeless), str(coefficient)]
    result = subprocess.run(
        [sys.executable, "-c", LAZY_NUMPY_PROBE, str(FIXTURES), str(out), *bad],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "parse False",
        "table 1 4 False",
        "errors 2 2 2 False",
        "report 0 True",
    ]
    assert out.read_bytes() == (SEED_REPORTS / "zd_laplacian.out").read_bytes()


def test_a_blocked_numpy_fails_the_import():
    """With numpy blocked in sys.modules, importing l2approx raises
    ImportError at once, as an eager ``import numpy`` would; the lazy
    loader never hands back None."""
    probe = 'import sys; sys.modules["numpy"] = None\ntry:\n    import l2approx\nexcept ImportError:\n    print("ImportError")'
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ImportError"]


@pytest.mark.parametrize("checks", [["bogus"], "norms", ["norms", 3], [["norms"]]])
def test_unknown_checks_exit_2(checks, tmp_path, capsys):
    problem = {
        "group": {"type": "free_abelian", "rank": 1},
        "matrix": {"entries": [[[{"word": [0], "re": 1}]]]},
        "scheme": {"type": "tower", "levels": [4]},
        "checks": checks,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["approx", str(path)]) == 2
    assert "checks must be a list" in capsys.readouterr().err


def test_empty_checks_run_no_verdict(tmp_path, capsys):
    """"checks": [] runs no verdict; with the key absent a self-adjoint tower
    over Z runs its defaults, and squeeze needs three levels."""
    laplacian = [{"word": [0], "re": 2}, {"word": [1], "re": -1}, {"word": [-1], "re": -1}]
    problem = _z_problem(
        matrix={"entries": [[laplacian]]}, scheme={"type": "tower", "levels": [64]}, checks=[]
    )
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["approx", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {} and [level["level"] for level in report["levels"]] == [64]
    del problem["checks"]
    path.write_text(json.dumps(problem))
    assert main(["approx", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "l2approx: InsufficientLevels: squeeze needs >= 3 levels, got 1\n"


NO_SCHEME = "no scheme given (problem 'scheme' or --levels/--boxes)"
CHECK_SCHEMES = {
    "none": None,
    "tower": {"type": "tower", "levels": [8, 16, 32]},
    "folner": {"type": "folner", "boxes": [2, 4, 8]},
}
# the input error of each check on zd_laplacian (no inverse, no embedding)
# under each scheme, or None where the check runs
CHECK_ERRORS = {
    "subgroup": dict.fromkeys(CHECK_SCHEMES, "subgroup check needs an 'embedding'"),
    "whitehead": {
        "none": NO_SCHEME,
        "tower": "whitehead check needs an 'inverse' matrix",
        "folner": "whitehead check needs a tower scheme",
    },
    **{
        name: {"none": NO_SCHEME, "tower": None, "folner": f"{name} check needs a tower scheme"}
        for name in ("complex", "squeeze", "sintapr")
    },
    "traces": {"none": NO_SCHEME, "tower": "traces check needs a folner scheme", "folner": None},
    "norms": {"none": NO_SCHEME, "tower": None, "folner": None},
}


def _approx_with_checks(tmp_path, checks, scheme, matrix=None):
    problem = json.loads((FIXTURES / "zd_laplacian.json").read_text())
    del problem["scheme"]
    if scheme is not None:
        problem["scheme"] = scheme
    if matrix is not None:
        problem["matrix"] = matrix
    problem["checks"] = checks
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return main(["approx", str(path)])


@pytest.mark.parametrize("scheme", list(CHECK_SCHEMES))
@pytest.mark.parametrize("check", list(CHECK_ERRORS))
def test_check_requirements_exit_2_with_their_message(check, scheme, tmp_path, capsys):
    """A check its scheme does not serve, or whose inverse or embedding is
    missing, exits 2 with one message and no report; any other check runs."""
    code = _approx_with_checks(tmp_path, [check], CHECK_SCHEMES[scheme])
    out, err = capsys.readouterr()
    message = CHECK_ERRORS[check][scheme]
    if message is None:
        assert code in (0, 1) and err == ""
        assert list(json.loads(out)["verdicts"]) == [check]
    else:
        assert (code, out, err) == (2, "", f"l2approx: input error: {message}\n")


@pytest.mark.parametrize("check", ["complex", "squeeze"])
def test_oracle_checks_need_a_self_adjoint_matrix(check, tmp_path, capsys):
    # 1 - t over Z is not self-adjoint, so no torus oracle serves it
    matrix = {"entries": [[[{"word": [0], "re": 1}, {"word": [1], "re": -1}]]]}
    code = _approx_with_checks(tmp_path, [check], CHECK_SCHEMES["tower"], matrix)
    message = f"{check} needs a self-adjoint matrix over a free abelian group"
    assert (code, *capsys.readouterr()) == (2, "", f"l2approx: input error: {message}\n")


def test_density_json_mode(capsys):
    assert main(["density", fixture_path("zd_laplacian.json"), "--grid", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_mass"] == 1
    assert math.isclose(sum(j["mass"] for j in payload["jumps"]), 1.0)
    # the oracle's midpoint grid never hits the symbol's kernel: F(0) = 0
    assert sum(j["mass"] for j in payload["jumps"] if j["lambda"] <= 0) == 0


@pytest.mark.parametrize(
    "command, name",
    [("cw", name) for name in ("circle", "torus", "point")]
    + [
        ("approx", name)
        for name in (
            "complex_shift",
            "subgroup_z2_z4",
            "whitehead_elementary",
            "zd_folner",
            "zd_laplacian",
        )
    ],
)
def test_fixture_report_matches_seed(command, name, capsys):
    # default reports of the bundled fixtures are fixed byte for byte
    assert main([command, fixture_path(f"{name}.json")]) == 0
    assert capsys.readouterr().out.encode() == (SEED_REPORTS / f"{name}.out").read_bytes()


DENSITY_SEED = Path(__file__).resolve().parent / "data" / "density_seed"


@pytest.mark.parametrize("mode", ["csv", "json"])
@pytest.mark.parametrize("name", ["complex_shift", "subgroup_z2_z4", "zd_folner", "zd_laplacian"])
def test_fixture_density_matches_seed(name, mode, capsys):
    # the density command prints jump positions, so its output is fixed byte for byte
    argv = ["density", fixture_path(f"{name}.json")] + (["--json"] if mode == "json" else [])
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (DENSITY_SEED / f"{name}.{mode}").read_bytes()


@pytest.mark.parametrize(
    "name", ["subgroup_z2_z4", "whitehead_elementary", "zd_folner", "zd_laplacian"]
)
def test_fixture_checks_are_the_defaults(name, tmp_path, capsys):
    """Without its checks each fixture runs the defaults of its problem (an
    embedding, an inverse, a Folner scheme, a self-adjoint matrix over Z^n),
    which are its checks: the report is the seed report, byte for byte."""
    problem = json.loads((FIXTURES / f"{name}.json").read_text())
    del problem["checks"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(problem))
    assert main(["approx", str(path)]) == 0
    assert capsys.readouterr().out.encode() == (SEED_REPORTS / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["zd_folner", "zd_laplacian"])
def test_timings_and_densities_add_only_their_level_field(name, capsys):
    """--timings adds only wall_time to each level and --densities only its
    density, the one `density --json --level L` prints for that level."""
    path = fixture_path(f"{name}.json")
    reports = {}
    for flag in ("", "--timings", "--densities"):
        assert main(["approx", path, *filter(None, [flag])]) == 0
        reports[flag] = json.loads(capsys.readouterr().out)
    for flag, field in (("--timings", "wall_time"), ("--densities", "density")):
        levels = reports[flag]["levels"]
        stripped = [{k: v for k, v in level.items() if k != field} for level in levels]
        assert {**reports[flag], "levels": stripped} == reports[""]
        assert all(field in level for level in levels)
    for level in reports["--densities"]["levels"]:
        assert main(["density", path, "--json", "--level", str(level["level"])]) == 0
        assert json.loads(capsys.readouterr().out) == level["density"]

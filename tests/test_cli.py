import json
import math
from importlib import resources
from pathlib import Path

import pytest

from l2approx import oracles
from l2approx.cli import main
from l2approx.verify import SUITES

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


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["approx", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["approx", "/nonexistent/problem.json"]) == 2


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


def test_approx_complex_solves_oracle_grid_once(monkeypatch, capsys):
    # the complex verdict and the oracle logdet share one fine-grid solve;
    # the coarse grid is the logdet's error estimate
    grids = []
    solve = oracles.torus_symbol_eigenvalues

    def counted(delta, grid_per_dim):
        grids.append(grid_per_dim)
        return solve(delta, grid_per_dim)

    monkeypatch.setattr(oracles, "torus_symbol_eigenvalues", counted)
    assert main(["approx", fixture_path("complex_shift.json")]) == 0
    assert grids == [2048, 1024]
    assert capsys.readouterr().out.encode() == (SEED_REPORTS / "complex_shift.out").read_bytes()


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


def test_cw_point(tmp_path):
    out = tmp_path / "point.json"
    assert main(["cw", fixture_path("point.json"), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["betti"] == [1]
    assert report["torsion"] is None


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


def test_density_json_mode(capsys):
    assert main(["density", fixture_path("zd_laplacian.json"), "--grid", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_mass"] == 1
    assert math.isclose(sum(j["mass"] for j in payload["jumps"]), 1.0)


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

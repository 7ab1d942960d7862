"""The package surface: its two layers, its lazy exports and ``python -m``."""

import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import l2approx

FIXTURES = resources.files("l2approx") / "fixtures"
SEED_REPORTS = Path(__file__).resolve().parent.parent / "benchmarks" / "seed_reports"

DESCRIPTION_LAYER = {
    "l2approx",
    "l2approx._lazy",
    "l2approx.errors",
    "l2approx.groupring",
    "l2approx.groups",
    "l2approx.jsonio",
    "l2approx.matrices",
}

# ``from l2approx import *`` before the numerics layer was loaded lazily
STAR_NAMES = {
    "ChainComplexSpec", "Context", "CyclicGroup", "DirectProductGroup", "EigenResult",
    "FiniteTableGroup", "FolnerExhaustion", "FreeAbelianGroup", "FreeGroup",
    "GaussianRational", "Group", "Homomorphism", "L2ApproxError", "L2Report", "LevelReport",
    "QuotientTower", "RingElement", "RingMatrix", "SpectralDensity", "TrivialGroup",
    "VERDICTS", "betti", "build_boxes_folner", "cw", "density_from_eigs", "errors",
    "finite_spectrum", "free_abelian_quotient", "groupring", "groups", "k_bound",
    "l2_invariants", "laplacian", "log_det", "matrices", "nonzero_eigenvalue_product_exact",
    "oracles", "positive_square", "product_group", "run_folner", "run_tower", "schemes",
    "spectral", "symmetric_group", "torus_logdet", "trace", "validate", "verdicts",
}

PARSE_PROBE = """
import sys
import l2approx
from l2approx.jsonio import load_json, parse_complex, parse_problem
for path in sys.argv[1:]:
    obj = load_json(path)
    (parse_complex if "cells" in obj else parse_problem)(obj)
print(*sorted(name for name in sys.modules if name.split(".")[0] == "l2approx"))
"""


def _python(*args, **kwargs):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
        **kwargs,
    )


def _s5_tower_problem() -> dict:
    """F2 -> S5 x Z/k, k = 1, 2, 4, 8, 12: the tower of the lazy-numpy
    probe and the shape of the dense-finite workload."""
    s5 = sorted(itertools.permutations(range(5)))
    rank = {p: i for i, p in enumerate(s5)}
    table = [[rank[tuple(p[k] for k in q)] for q in s5] for p in s5]
    maps = [
        {"target": {"type": "product", "factors": [{"type": "finite_table", "table": table},
                                                   {"type": "cyclic", "n": k}]},
         "images": [[1, 0], [rank[(1, 2, 3, 4, 0)], k - 1]]}
        for k in (1, 2, 4, 8, 12)
    ]
    return {"group": {"type": "free", "rank": 2},
            "matrix": {"entries": [[[{"word": [], "re": 4}, {"word": [1], "re": -1}]]]},
            "scheme": {"type": "tower", "maps": maps}}


def test_parsing_loads_only_the_description_layer(tmp_path):
    """Importing l2approx and parsing every bundled fixture and the S5 x Z/k
    tower imports no module of the numerics layer."""
    tower = tmp_path / "s5_tower.json"
    tower.write_text(json.dumps(_s5_tower_problem()))
    paths = sorted(str(p) for p in FIXTURES.iterdir() if p.name.endswith(".json"))
    assert len(paths) == 8
    result = _python("-c", PARSE_PROBE, *paths, str(tower), text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "l2approx.jsonio" in loaded
    assert loaded <= DESCRIPTION_LAYER, sorted(loaded - DESCRIPTION_LAYER)


def test_every_export_resolves():
    for name in l2approx.__all__:
        assert getattr(l2approx, name) is not None, name
    assert set(l2approx.__all__) <= set(dir(l2approx))


def test_star_import_keeps_its_names():
    namespace = {}
    exec("from l2approx import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES


def test_numerics_names_import_their_modules():
    """In a fresh interpreter, importing numerics names from the package
    imports their modules: submodules come back as modules, functions and
    classes from their home module."""
    code = (
        "import sys\n"
        "from l2approx import Context, cw, oracles, run_tower\n"
        "print(cw.__name__, oracles.__name__, run_tower.__module__, Context.__module__)\n"
        "print('l2approx.spectral' in sys.modules)"
    )
    result = _python("-c", code, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "l2approx.cw l2approx.oracles l2approx.schemes l2approx.verdicts",
        "True",
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        l2approx.no_such_name
    with pytest.raises(ImportError):
        from l2approx import no_such_name  # noqa: F401


def test_python_dash_m_runs_the_cli():
    result = _python("-m", "l2approx", "approx", str(FIXTURES / "zd_laplacian.json"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == (SEED_REPORTS / "zd_laplacian.out").read_bytes()
    result = _python("-m", "l2approx", "--help", text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: l2approx ")


# A child's peak RSS counts its parent's resident pages at the fork, so each
# command runs from this small interpreter, never from the test process.
PEAK_PROBE = """
import json, os, subprocess, sys
for args in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, (args, status)
    print(usage.ru_maxrss * 1024)  # kilobytes on Linux
"""


def test_cli_peak_memory_stays_near_the_numpy_import(tmp_path):
    """Peak RSS of CLI runs above a bare ``import l2approx.cli,
    numpy.linalg`` (numpy loads on first numeric use, so the CLI import
    alone does not load it).

    cw solves each distinct direct summand once, a slab of 2^16 eigenvalues
    at a time, so its memory does not grow with the grid: cw on the torus at
    grid 1024 and at grid 1448 peaks at most 8 MB above the import (1.2-1.7
    MB at both grids; one whole-grid spectrum took 8.8 and 17.0 MB), and
    grid 1448 peaks less than 1 MB above grid 1024.

    A tower level adds its symbol into its spectrum a chunk at a time and
    builds its density after its logdet and moments: approx on one Z/2^20
    level of 2 - t - 1/t, norms only, peaks at most 2.75 times its
    eigenvalue bytes above the import (2.26-2.29 times, plus a margin of
    0.5; whole-array symbol updates with the density built first took 3.25,
    a density built by concatenation 4.7).

    A report keeps its density, not its spectrum, and the largest level is
    solved first, so a ladder peaks at its top level: approx on Z/2^10 ...
    Z/2^18, norms only, peaks less than 1 MB above the single level Z/2^18
    (0.5-0.7 MB; 3.7-4.1 MB with every spectrum kept and the levels
    solved in scheme order)."""
    laplacian = [{"word": [0], "re": 2}, {"word": [1], "re": -1}, {"word": [-1], "re": -1}]
    problems = {"level": [2 ** 20], "ladder": [2 ** k for k in range(10, 19)], "top": [2 ** 18]}
    for name, levels in problems.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "group": {"type": "free_abelian", "rank": 1},
            "matrix": {"entries": [[laplacian]]},
            "scheme": {"type": "tower", "levels": levels},
            "checks": ["norms"],
        }))
    torus = str(FIXTURES / "torus.json")
    commands = [
        ["-c", "import l2approx.cli, numpy.linalg"],
        ["-m", "l2approx", "cw", torus, "--grid", "1024"],
        ["-m", "l2approx", "cw", torus, "--grid", "1448"],
        *(["-m", "l2approx", "approx", str(tmp_path / f"{name}.json")] for name in problems),
    ]
    result = _python("-c", PEAK_PROBE, json.dumps(commands), text=True)
    assert result.returncode == 0, result.stderr
    base, small, large, level, ladder, top = map(int, result.stdout.split())
    limit = 8 * 2 ** 20
    assert max(small, large) - base <= limit, (small, large, base, limit)
    assert large - small < 2 ** 20, (large, small)
    limit = 2.75 * 8 * 2 ** 20
    assert level - base <= limit, (level, base, limit)
    assert ladder - top < 2 ** 20, (ladder, top)

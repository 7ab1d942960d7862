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

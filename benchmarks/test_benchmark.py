"""Tests of the benchmark itself: tracer accounting, traced runs, references.

    PYTHONPATH=src python3 -m pytest benchmarks/test_benchmark.py

The traced-run tests run every workload once traced and once untraced
(about a minute); they are not part of the package's test suite.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Largest self time per workload on the seed commit.
DOMINANT = {
    "folner-box": "schemes.compressed_trace_powers",
    "torus-oracle": "spectral.density_from_eigs",
    "tower-ladder": "spectral.density_from_eigs",
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtract_children_and_fold_recursion():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def recursive(depth):
        clock.now += 1.0
        if depth:
            recursive_traced(depth - 1)

    leaf_traced = tracer.wrap("m.leaf", leaf)
    recursive_traced = tracer.wrap("m.recursive", recursive)

    def outer():
        clock.now += 1.0
        leaf_traced()
        recursive_traced(2)
        clock.now += 0.5

    tracer.wrap("m.outer", outer)()
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["m.outer"] == {"self_s": 1.5, "calls": 1}
    assert spans["m.leaf"] == {"self_s": 2.0, "calls": 1}
    assert spans["m.recursive"] == {"self_s": 3.0, "calls": 1}
    assert summary["roots_s"] == 6.5
    assert sum(v["self_s"] for v in spans.values()) == summary["roots_s"]


def test_counters_run_after_the_call():
    tracer = Tracer(FakeClock())

    def count(tr, args, result):
        tr.counts["m.f.items"] += result

    traced = tracer.wrap("m.f", lambda n: n, count)
    traced(3)
    traced(4)
    assert tracer.counts["m.f.items"] == 7
    assert tracer.calls["m.f"] == 2


def test_subgroup_closure():
    transposition = ((1, 0, 2, 3, 4), 0)
    five_cycle = ((1, 2, 3, 4, 0), 0)
    assert workloads.subgroup_order([transposition, five_cycle], 1) == 120
    assert workloads.subgroup_order([transposition, ((0, 1, 2, 3, 4), 1)], 4) == 8
    assert workloads.subgroup_order([((0, 1, 2, 3, 4), 0)] * 2, 12) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    a = workloads.make_case(workload, 5).problem
    b = workloads.make_case(workload, 5).problem
    assert json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_failed_invocation_fails_every_operation(workload):
    case = workloads.make_case(workload, 1)
    for stdout, code in [(b"", 3), (b"not json", 0), (b"{}", None)]:
        results = workloads.check_report(case, stdout, code)
        assert len(results) == case.operations
        assert not any(ok for _, ok, _ in results)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return run.Runner(tmp_path_factory.mktemp("work"), run.bench_env())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload, runner, tmp_path):
    case = workloads.make_case(workload, 1)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(case.problem))
    args = case.cli_args(str(path))
    plain = runner.cli(args)
    traced = runner.traced_cli(args)

    assert traced["stdout"] == plain["stdout"]
    assert traced["code"] == plain["code"] == 0
    checks = workloads.check_report(case, plain["stdout"], plain["code"])
    assert [name for name, ok, _ in checks if not ok] == sorted(
        workloads.KNOWN_DEFECTS if workload == "tower-ladder" else []
    )

    trace = traced["trace"]
    spans = trace["spans"]
    total = sum(v["self_s"] for v in spans.values())
    assert total == pytest.approx(trace["roots_s"], rel=1e-9)
    assert spans["process"]["calls"] == 1
    # everything outside the traced layers: tracer installation and glue
    assert spans["process"]["self_s"] < 0.05 * trace["roots_s"]
    assert trace["roots_s"] < traced["wall"]

    layers = {k: v["self_s"] for k, v in spans.items() if k not in ("process", "import")}
    if workload in DOMINANT:
        assert max(layers, key=layers.get) == DOMINANT[workload]
    else:
        # table validation dominates set-up: more than the rest of parsing
        metrics = run.layer_metrics(trace)
        setup = metrics["jsonio.parse.self_s"] + metrics["groups.self_s"]
        assert metrics["groups.FiniteTableGroup.self_s"] > 0.5 * setup


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "folner-box",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    per_layer = set(run.layer_metrics({"spans": {}, "counts": {}})) | {"trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]


def test_every_binding_site_is_wrapped():
    """Names bound by ``from .spectral import density_from_eigs`` and the
    like are replaced too, in every module of the package."""
    code = """
import inspect, sys
import l2approx.cli
from tracer import LAYERS, Tracer, install
install(Tracer())
missed = [
    f"{name}.{attr}"
    for name, module in sorted(sys.modules.items()) if name.startswith("l2approx")
    for attr, value in vars(module).items()
    if inspect.isfunction(value) and not value.__name__.startswith("_")
    and value.__module__.split(".")[-1] in LAYERS and not hasattr(value, "__wrapped__")
]
print(missed)
"""
    env = dict(run.bench_env(), PYTHONPATH=os.pathsep.join([str(run.SRC), str(BENCH_DIR)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

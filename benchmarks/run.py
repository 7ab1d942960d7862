"""l2approx benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each measured invocation is the ``l2approx`` CLI in a fresh
interpreter on the seeded input (see ``workloads.py``).  A run first checks
the bundled fixtures' reports against the seed commit's, then repeats
invocations, alternating with fresh-interpreter set-up measurements, for
about ``--seconds`` seconds and at least MIN_INVOCATIONS times.

``--trace 0`` reports the end-to-end metrics (times are trimmed means over
the run, see ``steady_mean``).  ``--trace 1`` alternates traced and
untraced invocations and reports the per-layer metrics (medians of the
traced ones) plus the tracing overhead.

The last line of standard output is the result object; the lines before it
record the environment, the host probe and the samples.  Failed checks are
listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYERS  # noqa: E402
from workloads import FIXTURES, KNOWN_DEFECTS, WORKLOADS, check_report, make_case  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SEED_REPORTS = BENCH_DIR / "seed_reports"
WORK_ROOT = ROOT / ".bench_work"

# One BLAS/OpenMP thread: the CLI's hot paths are pure Python, and a fixed
# count keeps LAPACK timings independent of how busy the other cores are.
BLAS_THREADS = 1
MIN_INVOCATIONS = 2
MIN_TRACED = 2
# Set-up is cheap next to a report; more samples steady its mean.
MIN_SETUPS = 7
MAX_INVOCATIONS = 40
INVOCATION_TIMEOUT_S = 60.0
# Stop starting invocations after this long, whatever MIN_INVOCATIONS says.
RUN_BUDGET_S = 120.0

CLI_CODE = "import sys; from l2approx.cli import main; sys.exit(main())"
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import l2approx
from l2approx.jsonio import load_json, parse_complex, parse_problem
parse = parse_complex if sys.argv[1] == "cw" else parse_problem
parse(load_json(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""
ENV_CODE = """\
import json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""

END_TO_END = {
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}

TIMED_SPANS = [
    "jsonio.parse",
    "jsonio.canonical_dumps",
    "groups.FiniteTableGroup",
    "groups.Homomorphism",
    "matrices.push_forward",
    "matrices.matrix_power",
    "matrices.laplacian",
    "cw.validate",
    "spectral.density_from_eigs",
    "spectral.character_spectrum",
    "spectral.regular_representation",
    "spectral.hermitian_eigenvalues",
    "spectral.log_det",
    "spectral.SpectralDensity.evaluate",
    "oracles.torus_symbol_eigenvalues",
    "oracles.torus_density",
    "oracles.torus_logdet",
    "schemes.compressed_trace_powers",
    "schemes.compress",
    "schemes.run_folner",
    "schemes.run_tower",
    "schemes.squeeze_check",
    "schemes.sintapr_check",
    "cw.l2_invariants",
    "cli.main",
]
CALL_COUNTS = [
    "matrices.matrix_power",
    "matrices.trace_poly",
    "spectral.SpectralDensity.evaluate",
    "oracles.torus_symbol_eigenvalues",
]
COUNTERS = [
    "groups.FiniteTableGroup.elements",
    "spectral.density_from_eigs.eigenvalues",
    "spectral.density_from_eigs.jumps",
    "spectral.hermitian_eigenvalues.dim_sum",
    "oracles.torus_symbol_eigenvalues.points",
    "schemes.levels",
]


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts child processes in the work directory and measures them."""

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env
        self.counter = 0

    def run(self, argv: list, timeout: float = INVOCATION_TIMEOUT_S) -> dict:
        """Wall time from start to exit, peak RSS, exit code (None on
        timeout) and standard output of one child process."""
        self.counter += 1
        out_path = self.work / f"out{self.counter}"
        with open(out_path, "wb") as out, open(self.work / "stderr", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        out_path.unlink()
        code = None if proc.returncode < 0 else proc.returncode
        return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": code, "stdout": stdout}

    def cli(self, args: list) -> dict:
        return self.run([sys.executable, "-c", CLI_CODE] + args)

    def traced_cli(self, args: list) -> dict:
        summary_path = self.work / "trace.json"
        result = self.run([sys.executable, str(BENCH_DIR / "traced_cli.py"), str(summary_path)] + args)
        result["trace"] = json.loads(summary_path.read_text()) if summary_path.exists() else None
        if summary_path.exists():
            summary_path.unlink()
        return result

    def setup(self, command: str, path: str):
        result = self.run([sys.executable, "-c", SETUP_CODE, command, path])
        try:
            return float(result["stdout"]) if result["code"] == 0 else None
        except ValueError:
            return None


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, to show a slow or noisy host."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


class Checks:
    """Tally of operations: reference, set-up, fixture and trace checks.

    A failed check counts as failed unless it is one of the KNOWN_DEFECTS.
    ``pass_share`` is taken over the reference checks of the CLI reports
    alone, known defects included, so it does not move with the number of
    invocations a run makes.
    """

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.reference_attempted = 0
        self.reference_passed = 0
        self.unexpected = []
        self.known = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if ok:
            self.passed += 1
        elif name in KNOWN_DEFECTS:
            self.known.append(f"{name}: {detail}")
        else:
            self.unexpected.append(f"{name}: {detail}")

    def add_report(self, case, result: dict) -> None:
        for name, ok, detail in check_report(case, result["stdout"], result["code"]):
            self.reference_attempted += 1
            self.reference_passed += ok
            self.add(name, ok, detail)

    @property
    def pass_share(self) -> float:
        return self.reference_passed / self.reference_attempted


def check_fixtures(workload: str, runner: Runner, checks: Checks) -> int:
    """Byte comparison of the default report of each assigned fixture with
    the seed commit's; returns the number of matches."""
    matches = 0
    for command, name in FIXTURES[workload]:
        path = SRC / "l2approx" / "fixtures" / f"{name}.json"
        result = runner.cli([command, str(path)])
        ok = result["code"] == 0 and result["stdout"] == (SEED_REPORTS / f"{name}.out").read_bytes()
        checks.add(f"fixture {name}", ok, f"exit {result['code']}")
        matches += ok
    return matches


def keep_going(start: float, count: int, seconds: float, minimum: int) -> bool:
    """Start another round if there are fewer than ``minimum``, or if it is
    expected to end no later than half a round after ``seconds``, so a run
    measures about ``seconds`` whatever one round costs."""
    elapsed = time.perf_counter() - start
    if count >= MAX_INVOCATIONS or elapsed >= RUN_BUDGET_S:
        return False
    if count < minimum:
        return True
    return elapsed + 0.5 * elapsed / count <= seconds


def steady_mean(values: list) -> float:
    """Mean without the single fastest and slowest sample (when there are
    five or more).

    A shared virtual machine can switch between speeds about 1.5x apart for
    seconds at a time, so a run's samples are two-humped; their median jumps
    between the humps while their mean follows the share of time spent at
    each speed.  The
    trim drops one-off stalls."""
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return statistics.fmean(values)


def measure(case, input_path: str, runner: Runner, checks: Checks, seconds: float):
    args = case.cli_args(input_path)
    reports, setups = [], []
    start = time.perf_counter()
    while keep_going(start, len(reports), seconds, MIN_INVOCATIONS):
        setup = runner.setup(case.command, input_path)
        checks.add("setup", setup is not None)
        if setup is not None:
            setups.append(setup)
        result = runner.cli(args)
        checks.add_report(case, result)
        reports.append(result)
    while len(setups) < MIN_SETUPS and time.perf_counter() - start < RUN_BUDGET_S:
        setup = runner.setup(case.command, input_path)
        checks.add("setup", setup is not None)
        if setup is None:
            break
        setups.append(setup)
    metrics = {
        "report_s": steady_mean([r["wall"] for r in reports]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
        "pass_share": checks.pass_share,
    }
    if setups:
        metrics["setup_s"] = steady_mean(setups)
    samples = {
        "report_s": [r["wall"] for r in reports],
        "setup_s": setups,
        "peak_rss_mb": [r["rss_mb"] for r in reports],
    }
    return metrics, samples


def layer_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    counts = trace["counts"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    out = {"import.self_s": self_s("import")}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in spans.items() if k.startswith(layer + ".")
        )
    for name in TIMED_SPANS:
        out[f"{name}.self_s"] = self_s(name)
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = spans.get(name, {}).get("calls", 0)
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    attempted = counts.get("schemes.trace_powers_attempted", 0)
    certified = counts.get("schemes.trace_powers_certified", 0)
    out["schemes.trace_certified_share"] = certified / attempted if attempted else 0.0
    return out


def measure_traced(case, input_path: str, runner: Runner, checks: Checks, seconds: float):
    args = case.cli_args(input_path)
    traced, plain = [], []
    start = time.perf_counter()
    while keep_going(start, len(traced), seconds, MIN_TRACED):
        t = runner.traced_cli(args)
        p = runner.cli(args)
        checks.add_report(case, t)
        checks.add_report(case, p)
        checks.add("traced report identical", t["stdout"] == p["stdout"] and t["code"] == p["code"])
        checks.add("trace summary written", t["trace"] is not None)
        if t["trace"] is not None:
            t["layers"] = layer_metrics(t["trace"])
            traced.append(t)
        plain.append(p)
    if not traced:
        return {}, {}
    per_run = [t["layers"] for t in traced]
    metrics = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(values)
        else:
            checks.add(f"count {name} repeats", len(set(values)) == 1, f"{values}")
            metrics[name] = values[0]
    traced_s = steady_mean([t["wall"] for t in traced])
    plain_s = steady_mean([p["wall"] for p in plain])
    metrics["trace.overhead_s"] = traced_s - plain_s
    samples = {"traced_s": [t["wall"] for t in traced], "untraced_s": [p["wall"] for p in plain]}
    return metrics, samples


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "l2approx" / "cli.py").is_file():
        print(f"run.py: no l2approx sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, bench_env())
        env_record = json.loads(runner.run([sys.executable, "-c", ENV_CODE])["stdout"])
        env_record.update(
            nproc=len(os.sched_getaffinity(0)),
            blas_threads=BLAS_THREADS,
            seed=args.seed,
            workload=args.workload,
            trace=args.trace,
        )
        probe_before = host_probe_ms()

        case = make_case(args.workload, args.seed)
        input_path = str(work / "input.json")
        with open(input_path, "w", encoding="utf-8") as fh:
            json.dump(case.problem, fh)

        checks = Checks()
        # The fixtures run the workload's code path, so they also warm up:
        # without a warm-up the first samples of a run read about 10% slow
        # (median over 40 runs on a 2-vCPU Xeon VM).
        matches = check_fixtures(args.workload, runner, checks)
        if args.trace:
            metrics, samples = measure_traced(case, input_path, runner, checks, args.seconds)
        else:
            metrics, samples = measure(case, input_path, runner, checks, args.seconds)
        probe_after = host_probe_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print("env " + json.dumps(env_record, sort_keys=True))
    print("probe " + json.dumps({"host_probe_ms": [probe_before, probe_after]}))
    print("samples " + json.dumps(samples))
    print("fixtures " + json.dumps({"matched": matches, "checked": len(FIXTURES[args.workload])}))
    print("checks " + json.dumps({
        "attempted": checks.attempted,
        "passed": checks.passed,
        "known_defects": len(checks.known),
        "fail_share": 1.0 - checks.passed / checks.attempted,
    }))
    for line, times in Counter(checks.known).items():
        print(f"known defect ({times}x): {line}", file=sys.stderr)
    for line, times in Counter(checks.unexpected).items():
        print(f"FAILED ({times}x): {line}", file=sys.stderr)
    result = {
        "correct": not checks.unexpected,
        "attempted": checks.attempted,
        "failed": len(checks.unexpected),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report the spread of each metric.

    python3 benchmarks/prove.py --seeds 10 [--first-seed 1] [--workloads a,b]
                                [--trace 0|1] [--out FILE]

Runs ``run.py`` once per (seed, workload), interleaving the workloads and
rotating which one goes first, with the command and run length from
BENCHMARK.json.  For every end-to-end metric it prints the median and the
quartile spread (q3 - q1) / median next to the metric's bound, and the same
spread for the host probe, so a noisy host shows next to the numbers.
``--out`` writes the raw values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) with Python's default quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def parse_run(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if rest.startswith("{"):
            info[key] = json.loads(rest)
    return {"result": json.loads(lines[-1]), "info": info}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = {w: [] for w in names}
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = names[i % len(names):] + names[: i % len(names)]
        for workload in order:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            record = parse_run(proc.stdout)
            record.update(seed=seed, run_s=took)
            runs[workload].append(record)
            res = record["result"]
            print(f"{workload:13s} seed {seed:3d} run {took:6.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                             if not args.trace),
                  flush=True)

    summary = {}
    print()
    for workload in names:
        rows = {}
        probes = [p for r in runs[workload] for p in r["info"]["probe"]["host_probe_ms"]]
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs[workload]]
            med, q1, q3, rel = spread(values)
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                    "bound": metric.get("bound"), "values": values}
            if "bound" in metric:
                flag = "ok" if rel <= metric["bound"] / 3 else "WIDE"
                print(f"{workload:13s} {metric['name']:12s} median {med:10.5g} "
                      f"spread {rel:7.4f} bound {metric['bound']:.3f} {flag}")
        med, _, _, rel = spread(probes)
        rows["host_probe_ms"] = {"median": med, "spread": rel, "values": probes}
        runs_s = [r["run_s"] for r in runs[workload]]
        print(f"{workload:13s} host probe median {med:.2f} ms spread {rel:.4f}; "
              f"run length median {statistics.median(runs_s):.1f} s, max {max(runs_s):.1f} s")
        summary[workload] = rows
    if args.out:
        env = {k: v for k, v in runs[names[0]][0]["info"]["env"].items()
               if k not in ("seed", "workload", "trace")}
        Path(args.out).write_text(json.dumps(
            {"env": env, "run_seconds": spec["run_seconds"], "trace": args.trace,
             "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
             "summary": summary, "runs": runs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

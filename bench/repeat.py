"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/repeat.py --runs 10 [--workload NAME ...] [--trace 0] [--out FILE]

Runs the BENCHMARK.json command once per seed (1..runs) and workload, one run
at a time, and prints per metric the median, the quartiles and the spread:
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to a third of the metric's bound.
``--out`` also writes the runs, the summary and the environment (Python,
CPU count and model, git commit) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict[str, object]:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines() if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git.stdout.strip() or "unknown",
    }


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"environment": environment(), "run_seconds": spec["run_seconds"], "trace": args.trace}
    report["workloads"] = {}
    for workload in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            result = run_once(spec, workload, seed, args.trace)
            runs.append({"seed": seed, **result})
            outcome = f"correct={result['correct']} failed={result['failed']}/{result['attempted']}"
            print(f"{workload} seed {seed}: {outcome}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for n in names:
            s, bound = summary[n], bounds.get(n)
            limit = f"  bound/3 {bound / 3:.3f}" if bound else ""
            quartiles = f"median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
            print(f"  {n:38s} {quartiles}  spread {s['spread']:.4f}{limit}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

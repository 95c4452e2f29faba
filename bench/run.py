"""Benchmark of the pluckerpush command line, end to end and layer by layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload formal_pushforward --seed 1 --seconds 35 --trace 0

The seed makes a case list (see workloads.py).  One round runs every case of
the list as a ``python -m pluckerpush`` process started by launcher.py, one at
a time (a closed loop with a single client), and then the same argv list in
process through ``pluckerpush.cli.main`` with stdout captured.  Rounds repeat
until the next one would end after ``--seconds``; there are at least two.
Every answer is checked afterwards, outside the timed region, against oracles
the harness computes itself (answers.py).

``--trace 0`` also times a few no-work invocations per round for ``setup_s``
and reports the end-to-end metrics.  ``--trace 1`` adds a traced in-process
pass to each round (tracing.py) and reports the per-layer metrics; its
counters must repeat exactly from round to round.  The metric names and
units come from BENCHMARK.json at the root; bench/README.md defines them.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from answers import EXIT, judge
from tracing import Tracer
from workloads import DIGIT_LIMIT, WORKLOADS, make_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

CASE_TIMEOUT_S = 60
SETUP_RUNS_PER_ROUND = 5
MIN_ROUNDS = 2
NO_WORK_ARGV = ("--help",)

#: Nominal time of ``reference_loop``: about its time on the machine the
#: benchmark was written on (a 2-core Intel Xeon VM, Python 3.11).
REFERENCE_S = 0.004


def reference_loop() -> Fraction:
    """Fixed pure-Python work, the yardstick of the machine's current speed.

    Other tenants of a shared machine change its speed by tens of percent
    over seconds to minutes.  Each timed operation runs between two timings of
    this loop, and its time is scaled by REFERENCE_S over their mean: times
    are reported in seconds at the reference speed, which cancels that drift
    while a change to the program moves them in full.  The loop uses what the
    program uses: dicts, tuples, big integers and Fractions.
    """
    table: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(1, 1200):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i**3
        total += Fraction(i % 5, i % 9 + 1)
    return total


def reference_seconds(repeat: int = 3) -> float:
    """Mean time of a few back-to-back runs of the reference loop."""
    start = time.perf_counter()
    for _ in range(repeat):
        reference_loop()
    return (time.perf_counter() - start) / repeat


def calibrated(run_one, items) -> list[tuple]:
    """``run_one(item)`` for each item, with the speed factor of the machine appended.

    The factor is REFERENCE_S over the mean of the reference timings just
    before and just after the item; measured seconds times the factor are
    seconds at the reference speed.
    """
    refs = [reference_seconds()]
    results = []
    for item in items:
        result = run_one(item)
        refs.append(reference_seconds())
        results.append((*result, 2 * REFERENCE_S / (refs[-2] + refs[-1])))
    return results


def scaled(results, field: int) -> list[float]:
    """One time field of calibrated results, at the reference speed."""
    return [result[field] * result[-1] for result in results]


def load_cli():
    """Import the package from this checkout's source tree, not from anywhere else."""
    if not (SRC / "pluckerpush" / "cli.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'pluckerpush'}")
    sys.path.insert(0, str(SRC))
    import pluckerpush.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pluckerpush":
        raise SystemExit(f"error: imported {cli.__file__}, not the source under {SRC}")
    return cli


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The helper process of launcher.py, which starts every case process.

    ``run`` returns (exit code or None on timeout, stdout, wall seconds,
    user+sys CPU seconds, max RSS in KiB) of ``python -m pluckerpush`` with
    the argv.  After a timeout the helper and its child are killed, and the
    remaining calls return at once as timeouts.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT, start_new_session=True,
        )

    def run(self, argv) -> tuple[int | None, str, float, float, int]:
        if self.proc.poll() is None:
            self.proc.stdin.write(json.dumps(list(argv)) + "\n")
            self.proc.stdin.flush()
            if select.select([self.proc.stdout], [], [], CASE_TIMEOUT_S)[0]:
                return tuple(json.loads(self.proc.stdout.readline()))
            os.killpg(self.proc.pid, 9)
            self.proc.wait()
        return None, "", 0.0, 0.0, 0

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the helper exits at the end of its input
        self.proc.wait()
        self.proc.stdout.close()


def run_in_process(cli, argv) -> tuple[int | None, str, float]:
    """(exit code, stdout, wall seconds) of ``cli.main`` on the argv.

    The harness's own objects are moved out of the collector's reach first,
    so that a collection during the call costs what the program's objects
    cost, not what the harness has kept so far.
    """
    gc.collect()
    gc.freeze()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def traced_pass(cli, cases) -> tuple[Tracer, list[tuple]]:
    tracer = Tracer()

    def traced(item):
        index, case = item
        tracer.case = index
        return run_in_process(cli, case.argv)

    tracer.install()
    try:
        results = calibrated(traced, enumerate(cases))
    finally:
        tracer.uninstall()
    return tracer, results


def measure(cli, cases, seconds: float, trace: bool) -> list[dict]:
    """Rounds of process, in-process and (with trace) traced passes over the cases.

    Without trace each round also starts a few no-work processes, so that
    set-up is sampled across the whole run.
    """
    setups = [] if trace else [NO_WORK_ARGV] * SETUP_RUNS_PER_ROUND
    rounds: list[dict] = []
    with Launcher() as launcher:
        launcher.run(NO_WORK_ARGV)  # the first start compiles bytecode
        start = time.perf_counter()
        while True:
            rnd = {
                "setup": calibrated(launcher.run, setups),
                "proc": calibrated(lambda case: launcher.run(case.argv), cases),
                "lib": calibrated(lambda case: run_in_process(cli, case.argv), cases),
            }
            if trace:
                rnd["tracer"], rnd["traced"] = traced_pass(cli, cases)
            rounds.append(rnd)
            elapsed = time.perf_counter() - start
            timed_out = any(code is None for code, *_ in rnd["proc"])
            if timed_out or (len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                return rounds


def check(cases, rounds: list[dict]) -> tuple[bool, list[list[str | None]], list[str]]:
    """(no wrong answers, verdict per round and case, problems) of the process runs.

    A case fails on a nonzero exit, unparsable output or a wrong answer; only
    the last two make the run incorrect.  The in-process and traced passes
    must print exactly what the process printed.
    """
    memo: dict[tuple, str | None] = {}
    verdicts = []
    correct = True
    problems = []
    for number, rnd in enumerate(rounds):
        row = []
        for index, case in enumerate(cases):
            code, out = rnd["proc"][index][:2]
            key = (index, code, out)
            if key not in memo:
                memo[key] = judge(case.kind, case.params, code, out)
                if memo[key] is not None:
                    problems.append(f"{memo[key]}: exit {code}: pluckerpush {' '.join(case.argv)}")
            row.append(memo[key])
            correct = correct and memo[key] in (None, EXIT)
            for label in ("lib", "traced"):
                if label in rnd and rnd[label][index][:2] != (code, out):
                    correct = False
                    problems.append(f"{label} output differs in round {number}: {' '.join(case.argv)}")
        verdicts.append(row)
    return correct, verdicts, problems


def end_to_end(rounds, verdicts) -> dict[str, float]:
    walls = [wall for rnd in rounds for wall in scaled(rnd["proc"], 2)]
    rates = [row.count(None) / sum(scaled(rnd["proc"], 2)) for rnd, row in zip(rounds, verdicts)]
    return {
        "cases_per_s": statistics.median(rates),
        "case_s.p50": statistics.median(walls),
        "case_s.p90": statistics.quantiles(walls, n=10, method="inclusive")[8],
        "cpu_s": statistics.median(sum(scaled(rnd["proc"], 3)) for rnd in rounds),
        "lib_s": statistics.median(sum(scaled(rnd["lib"], 2)) for rnd in rounds),
        "setup_s": statistics.median(wall for rnd in rounds for wall in scaled(rnd["setup"], 2)),
        "peak_rss_mb": max(result[4] for rnd in rounds for result in rnd["proc"]) / 1024,
    }


def per_layer(rounds, names) -> dict[str, float]:
    """Per-layer metrics of the traced passes; counters must repeat exactly."""
    passes = []
    for rnd in rounds:
        factor = statistics.median(result[-1] for result in rnd["traced"])
        values = rnd["tracer"].metrics()
        passes.append({n: values.get(n, 0) * (factor if n.endswith("_s") else 1) for n in names})
    first = passes[0]
    for other in passes[1:]:
        moved = [n for n in names if not n.endswith("_s") and other[n] != first[n]]
        if moved:
            raise RuntimeError(f"traced counters differ between passes: {moved}")
    out = {n: (statistics.median(p[n] for p in passes) if n.endswith("_s") else first[n]) for n in names}
    out["cli.process_overhead_s"] = statistics.median(
        p - q for rnd in rounds for p, q in zip(scaled(rnd["proc"], 2), scaled(rnd["lib"], 2))
    )
    out["trace.overhead_s"] = statistics.median(
        sum(scaled(rnd["traced"], 2)) - sum(scaled(rnd["lib"], 2)) for rnd in rounds
    )
    return out


def write_spans(workload: str, seed: int, tracer: Tracer) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans_{workload}_{seed}.json"
    fields = ("name", "start", "end", "parent", "case")
    with path.open("w") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": fields, "spans": tracer.spans}, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_cli()
    if hasattr(os, "sched_setaffinity"):
        # One core for the harness and, by inheritance, every child process,
        # so that the reference loop times the core the measured work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cases = make_cases(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases per round")
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    rounds = measure(cli, cases, args.seconds, bool(args.trace))
    correct, verdicts, problems = check(cases, rounds)
    for problem in problems:
        print(problem, file=sys.stderr)
    attempted = sum(len(row) for row in verdicts)
    failed = attempted - sum(row.count(None) for row in verdicts)
    over_limit = sum(1 for case in cases if case.params.get("over_limit"))
    print(f"rounds {len(rounds)}, process samples {attempted}, failed {failed}, fail_ratio {failed / attempted}")
    factor = statistics.median(result[-1] for rnd in rounds for result in rnd["proc"])
    print(f"machine speed: median factor {factor} (times are scaled by it to the reference speed)")
    print(f"cases whose answer exceeds the {DIGIT_LIMIT}-digit print limit: {over_limit} of {len(cases)}")

    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(rounds, [m["name"] for m in declared])
        print(f"spans written to {write_spans(args.workload, args.seed, rounds[-1]['tracer'])}")
    else:
        declared = spec["end_to_end"]
        values = end_to_end(rounds, verdicts)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

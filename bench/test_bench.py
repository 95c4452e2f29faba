"""Self-tests of the benchmark: seeded case lists, the answer checks, the tracer.

Run with ``python -m pytest bench/test_bench.py`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from answers import EXIT, WRONG, classical_digits, judge, localization  # noqa: E402
from workloads import DIGIT_LIMIT, WORKLOADS, Case, make_cases  # noqa: E402

cli = run.load_cli()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def answer(case: Case) -> tuple[int, str]:
    code, out, _ = run.run_in_process(cli, case.argv)
    return code, out


SMALL_VERIFY = Case(
    "verify",
    ("verify", "--suite", "theorem", "--seed", "5", "--max-d", "2", "--max-r", "4", "--trials", "2", "--json"),
    {"suite": "theorem", "max_d": 2, "max_r": 4, "trials": 2},
)


def cheapest(workload: str, kind: str) -> Case:
    cases = [c for c in make_cases(workload, 1) if c.kind == kind]
    return min(cases, key=lambda c: len(" ".join(c.argv)))


def test_same_seed_gives_the_same_case_list():
    for workload in WORKLOADS:
        assert make_cases(workload, 7) == make_cases(workload, 7)
        assert make_cases(workload, 7) != make_cases(workload, 8)


def test_split_degree_keeps_answers_over_the_digit_limit():
    for seed in (1, 2, 3):
        classical = [c for c in make_cases("split_degree", seed) if c.kind == "classical"]
        over = [c for c in classical if classical_digits(c.params["d"], c.params["r"]) > DIGIT_LIMIT]
        assert over and all(c.params["over_limit"] for c in over)
        assert not any(c.params["over_limit"] for c in classical if c not in over)


def test_oracle_agrees_with_the_package_localization():
    from pluckerpush import localization_pushforward

    for N, d, roots in ((4, 2, [0, 1, 2, 3]), (9, 3, [-2, 5, 1, 7, -4]), (7, 1, [3, -1])):
        assert localization(N, d, roots) == localization_pushforward(N, d, roots)


def test_checker_rejects_a_planted_wrong_coefficient():
    for workload, kind, field in (
        ("formal_pushforward", "formal", "class_terms"),
        ("split_degree", "split", "class_terms"),
        ("split_degree", "degree", "table"),
    ):
        case = cheapest(workload, kind)
        code, out = answer(case)
        assert code == 0 and judge(case.kind, case.params, code, out) is None
        data = json.loads(out)
        entry = data[field][0]
        key = "coefficient" if "coefficient" in entry else "syt_count"
        entry[key] = str(int(entry[key]) + 1)
        assert judge(case.kind, case.params, 0, json.dumps(data)) == WRONG


def test_checker_rejects_planted_verify_and_classical_faults():
    case = SMALL_VERIFY
    code, out = answer(case)
    assert judge(case.kind, case.params, code, out) is None
    data = json.loads(out)
    data["reports"][0]["comparisons"] += 1
    assert judge(case.kind, case.params, 0, json.dumps(data)) == WRONG
    small = Case("classical", ("degree-classical", "--d", "3", "--r", "6"), {"d": 3, "r": 6})
    assert judge("classical", small.params, *answer(small)) is None
    assert judge("classical", small.params, 0, "43\n") == WRONG


def test_checker_rejects_a_planted_nonzero_exit():
    case = cheapest("formal_pushforward", "formal")
    _, out = answer(case)
    assert judge(case.kind, case.params, 2, out) == EXIT
    assert judge(case.kind, case.params, None, "") == EXIT


def test_traced_counters_repeat_and_wrappers_are_restored():
    original = cli.main
    cases = [cheapest("split_degree", "degree"), SMALL_VERIFY]
    rounds = run.measure(cli, cases, 0, trace=True)
    assert len(rounds) == run.MIN_ROUNDS
    assert tracing.wrappers_left() == [] and cli.main is original
    correct, verdicts, problems = run.check(cases, rounds)
    assert correct and problems == [] and verdicts == [[None, None]] * len(rounds)
    names = [m["name"] for m in SPEC["per_layer"]]
    values = run.per_layer(rounds, names)
    assert set(values) == set(names)
    assert values["oracles.localization.calls"] > 0 and values["pushforward.degree_terms.calls"] == 1


def test_end_to_end_reports_every_declared_metric():
    cases = [cheapest("split_degree", "classical"), cheapest("split_degree", "split")]
    rounds = run.measure(cli, cases, 0, trace=False)
    _, verdicts, _ = run.check(cases, rounds)
    values = run.end_to_end(rounds, verdicts)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values.values())

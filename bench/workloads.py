"""Seeded case lists for the three benchmark workloads.

A case list is one pass of the measured loop.  Each workload is a fixed list
of strata; the seed draws the free parameters inside each stratum and the
order of the list.  The parameters that set the cost of a case (d and w for
the formal model, the grid bounds of a suite) are fixed per stratum, so runs
with different seeds do comparable work and their figures can be compared.
The program sees only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from answers import classical_digits

WORKLOADS = ("formal_pushforward", "split_degree", "verify_suites")

#: The CLI cannot print an integer with more digits than this (Python's
#: default int/str conversion limit); such degree-classical cases are kept.
DIGIT_LIMIT = 4300


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what its answer must satisfy."""

    kind: str
    argv: tuple[str, ...]
    params: dict


def _distinct(rng: random.Random, count: int, lo: int, hi: int, negative: bool = False) -> list[int]:
    while True:
        values = rng.sample(range(lo, hi + 1), count)
        if not negative or min(values) < 0:
            return values


# Strata are listed from cheap to dear.  With ten of them, and the fifth and
# sixth alike as well as the ninth and tenth, the median and the 90th
# percentile of a run's process times fall in the middle of one cost level
# each, not on a step between two levels, where they would jump with noise.

# (d, w); w None means the seed picks it in 6..14.  Weighted toward the large
# end, where compute outweighs the interpreter start of each process.
FORMAL_STRATA = ((2, None), (3, None), (4, 12), (4, 14), (5, 12), (5, 12), (5, 14), (6, 10), (6, 12), (6, 12))


def formal_cases(rng: random.Random) -> list[Case]:
    cases = []
    for d, w in FORMAL_STRATA:
        w = rng.randint(6, 14) if w is None else w
        r = rng.randint(d + 1, 2 * d + 1)
        N = d * (r - d) + w
        argv = ("pushforward", "--N", str(N), "--d", str(d), "--r", str(r), "--base-dim", str(w), "--json")
        roots = _distinct(rng, r, -2 * r, 2 * r)
        cases.append(Case("formal", argv, {"N": N, "d": d, "r": r, "w": w, "roots": roots}))
    return cases


# degree: (d, r, m); pushforward over P^m: (d, r, m), with w = N - d(r-d) <= m.
DEGREE_STRATA = ((1, 3, 4), (2, 4, 6), (2, 5, 8), (3, 6, 6), (3, 7, 8), (4, 8, 8))
SPLIT_PUSH_STRATA = ((1, 3, 3), (2, 5, 6), (3, 6, 8), (4, 8, 8))
# degree-classical: (count, smallest d, largest d, over the digit limit).  The
# two cases over the limit have about 5,500 and 15,000 digits; their bands are
# narrow because their cost grows fast with d.
CLASSICAL_STRATA = ((3, 2, 12, False), (2, 20, 40, False), (1, 62, 64, True), (1, 96, 98, True))


def _twists(rng: random.Random, r: int) -> list[int]:
    return _distinct(rng, r, -r - 2, r + 2, negative=True)


def _classical(rng: random.Random, lo: int, hi: int, over: bool) -> tuple[int, int]:
    while True:
        d = rng.randint(lo, hi)
        r = rng.randint(2 * d, 2 * d + 2) if over else rng.randint(d + 1, 2 * d)
        if (classical_digits(d, r) > DIGIT_LIMIT) == over:
            return d, r


def split_cases(rng: random.Random) -> list[Case]:
    cases = []
    for d, r, m in DEGREE_STRATA:
        twists = _twists(rng, r)
        argv = ("degree", "--d", str(d), "--pm", str(m), "--twists=" + ",".join(map(str, twists)), "--json")
        cases.append(Case("degree", argv, {"d": d, "r": r, "m": m, "twists": twists}))
    for d, r, m in SPLIT_PUSH_STRATA:
        twists = _twists(rng, r)
        w = rng.randint(m - 2, m)
        N = d * (r - d) + w
        argv = (
            "pushforward", "--N", str(N), "--d", str(d), "--r", str(r),
            "--pm", str(m), "--twists=" + ",".join(map(str, twists)), "--json",
        )
        cases.append(Case("split", argv, {"N": N, "d": d, "r": r, "w": w, "twists": twists}))
    for count, lo, hi, over in CLASSICAL_STRATA:
        for _ in range(count):
            d, r = _classical(rng, lo, hi, over)
            argv = ("degree-classical", "--d", str(d), "--r", str(r))
            cases.append(Case("classical", argv, {"d": d, "r": r, "over_limit": over}))
    return cases


# (suite, grid bounds); the seed draws each suite's --seed.
VERIFY_STRATA = (
    ("remark", {"max_d": 2, "max_r": 6, "extra_N": 4}),
    ("remark", {"max_r": 7}),
    ("remark", {"max_d": 4, "max_r": 8}),
    ("theorem", {"max_d": 2, "max_r": 5, "trials": 10}),
    ("all", {"max_d": 2, "max_r": 5, "trials": 10}),
    ("all", {"max_d": 2, "max_r": 5, "trials": 10}),
    ("theorem", {"max_r": 5, "trials": 10}),
    ("all", {"trials": 5}),
    ("all", {"trials": 5}),
    ("all", {"trials": 5}),
)


def verify_cases(rng: random.Random) -> list[Case]:
    cases = []
    for suite, bounds in VERIFY_STRATA:
        argv = ["verify", "--suite", suite, "--seed", str(rng.randrange(2**32)), "--json"]
        for key, value in bounds.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        cases.append(Case("verify", tuple(argv), {"suite": suite, **bounds}))
    return cases


GENERATORS = {
    "formal_pushforward": formal_cases,
    "split_degree": split_cases,
    "verify_suites": verify_cases,
}


def make_cases(workload: str, seed: int) -> list[Case]:
    """The case list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    cases = GENERATORS[workload](rng)
    rng.shuffle(cases)
    return cases

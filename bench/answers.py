"""Answer checks, computed by the harness itself.

Nothing here imports the package under test: the oracles are written from
the definitions, so a fault in the program cannot also fault its check.

  * formal push-forward: substituting s_k -> h_k(y) at distinct integer roots
    into the printed class must give the localization sum at y.  The base
    dimension equals the output degree, so nothing is truncated.
  * split model (degree, pushforward over P^m): the degree and the
    coefficient of h^w must equal the localization sum at the twists.
  * degree-classical: the standard-tableau count of the d x (r-d) rectangle.
  * verify: passed, no failures, and the expected number of comparisons.
"""

from __future__ import annotations

import contextlib
import json
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

# A case fails on one of these; only "exit" leaves the answer unjudged.
EXIT, PARSE, WRONG = "exit", "parse", "wrong"


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int/str digit limit, which the big classical answers exceed."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def localization(N: int, d: int, roots: list[int]) -> Fraction:
    """sum over d-subsets I of (sum_I y)^N / prod_{i in I, j not in I} (y_i - y_j)."""
    total = Fraction(0)
    everything = range(len(roots))
    for subset in combinations(everything, d):
        outside = [j for j in everything if j not in subset]
        numerator = sum(roots[i] for i in subset) ** N
        denominator = prod(roots[i] - roots[j] for i in subset for j in outside)
        total += Fraction(numerator, denominator)
    return total


def complete_h(roots: list[int], top: int) -> list[int]:
    """h_0..h_top of the roots, as coefficients of prod 1/(1 - y t)."""
    h = [1] + [0] * top
    for y in roots:
        for k in range(1, top + 1):
            h[k] += y * h[k - 1]
    return h


def hook_count(shape: list[int]) -> int:
    """Standard Young tableaux of a shape, by the hook-length formula."""
    cols = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    hooks = prod(shape[i] - j + cols[j] - i - 1 for i in range(len(shape)) for j in range(shape[i]))
    return factorial(sum(shape)) // hooks


def classical_degree(d: int, r: int) -> int:
    return hook_count([r - d] * d) if r > d else 1


def classical_digits(d: int, r: int) -> int:
    with unlimited_digits():
        return len(str(classical_degree(d, r)))


def partitions(weight: int, parts: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of weight with at most ``parts`` parts, none above ``largest``."""
    largest = weight if largest is None else largest
    if weight == 0:
        return [()]
    if parts == 0:
        return []
    return [
        (first,) + rest
        for first in range(min(weight, largest), 0, -1)
        for rest in partitions(weight - first, parts - 1, first)
    ]


def _monomial(text: str) -> dict[str, int]:
    exps: dict[str, int] = {}
    for piece in text.split():
        name, _, power = piece.partition("^")
        exps[name] = exps.get(name, 0) + (int(power) if power else 1)
    return exps


def _expected_schur_terms(N: int, d: int, r: int) -> list[dict]:
    fiber = d * (r - d)
    return [
        {
            "shape": "(" + ",".join(map(str, lam)) + ")",
            "coefficient": str(hook_count([(lam[i] if i < len(lam) else 0) + r - d for i in range(d)])),
        }
        for lam in partitions(N - fiber, d)
    ]


def check_formal(data: dict, p: dict) -> bool:
    N, d, r, w, y = p["N"], p["d"], p["r"], p["w"], p["roots"]
    if (data["N"], data["d"], data["r"]) != (N, d, r):
        return False
    if data["model"] != {"type": "formal", "base_dim": w, "rank": r}:
        return False
    if data["schur_terms"] != _expected_schur_terms(N, d, r):
        return False
    h = complete_h(y, w)
    value = Fraction(0)
    for term in data["class_terms"]:
        exps = _monomial(term["monomial"])
        if sum(int(name[1:]) * e for name, e in exps.items()) != w:
            return False
        value += Fraction(term["coefficient"]) * prod(h[int(name[1:])] ** e for name, e in exps.items())
    return value == localization(N, d, y)


def check_split(data: dict, p: dict) -> bool:
    N, d, w, twists = p["N"], p["d"], p["w"], p["twists"]
    if (data["N"], data["d"], data["model"]["twists"]) != (N, d, twists):
        return False
    got = {_monomial(t["monomial"]).get("h", 0): Fraction(t["coefficient"]) for t in data["class_terms"]}
    expected = localization(N, d, twists)
    return got == ({w: expected} if expected else {})


def check_degree(data: dict, p: dict) -> bool:
    d, r, m, twists = p["d"], p["r"], p["m"], p["twists"]
    if data["model"] != {"type": "split", "base_dim": m, "twists": twists}:
        return False
    expected = localization(d * (r - d) + m, d, twists)
    table = data["table"]
    rows = [(row["shape"], row["syt_count"]) for row in table]
    if rows != [(t["shape"], t["coefficient"]) for t in _expected_schur_terms(d * (r - d) + m, d, r)]:
        return False
    total = sum(int(row["syt_count"]) * Fraction(row["integral"]) for row in table)
    return expected.denominator == 1 and data["degree"] == str(expected.numerator) == str(total)


def expected_comparisons(
    suite: str, max_d: int = 3, max_r: int | None = None, extra_N: int | None = None, trials: int = 20
) -> dict[str, int]:
    """Comparisons each suite report must list, from the CLI's grid defaults."""
    out = {}
    if suite in ("theorem", "all"):
        extra, top = (4 if extra_N is None else extra_N), (6 if max_r is None else max_r)
        cells = sum(d * (r - d) + extra + 1 for d in range(1, max_d + 1) for r in range(d, top + 1))
        out["theorem"] = trials * cells
    if suite in ("remark", "all"):
        extra, top = (3 if extra_N is None else extra_N), (6 if max_r is None else max_r)
        out["remark"] = 2 * sum(extra + 1 for d in range(1, max_d + 1) for r in range(d, top + 1))
    if suite in ("degrees", "all"):
        top = 8 if max_r is None else max_r
        out["degrees"] = top * (top + 1) // 2
    return out


def check_verify(data: dict, p: dict) -> bool:
    bounds = {k: v for k, v in p.items() if k != "suite"}
    expected = expected_comparisons(p["suite"], **bounds)
    got = {rep["suite"]: rep["comparisons"] for rep in data["reports"]}
    return (
        data["passed"] is True
        and data["failures"] == 0
        and all(rep["failures"] == 0 and rep["passed"] is True for rep in data["reports"])
        and got == expected
    )


def check_classical(stdout: str, p: dict) -> bool:
    with unlimited_digits():
        return stdout == f"{classical_degree(p['d'], p['r'])}\n"


JSON_CHECKS = {"formal": check_formal, "split": check_split, "degree": check_degree, "verify": check_verify}


def judge(kind: str, params: dict, returncode: int, stdout: str) -> str | None:
    """None if the case answered correctly, else why it failed: exit, parse or wrong."""
    if returncode != 0:
        return EXIT
    if kind == "classical":
        return None if check_classical(stdout, params) else WRONG
    try:
        data = json.loads(stdout)
        ok = JSON_CHECKS[kind](data, params)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        return PARSE
    return None if ok else WRONG

"""Independent verification machinery.

Four oracles, none of which shares code with the production formula it checks:

  * ``localization_pushforward``: the Gysin image of a power of the Pluecker
    class over a point with split Chern roots y_1..y_r, as the symmetrized sum

        sum over d-subsets I of  (sum_{i in I} y_i)^N / prod_{i in I, j not in I} (y_i - y_j)

    The roots must be pairwise distinct.  The terms are summed in integers
    over one common denominator, the Vandermonde product of the roots scaled
    to integers, and the total is reduced to a Fraction once.  Which
    differences each subset multiplies depends on (r, d) alone: a subset
    plan of flat indices into the call's r^2 differences, kept for the last
    (r, d) only, so the calls of one theorem-suite cell build it once.  It
    checks ``schur_form_at_roots``, the exact sums of the production rows
    ``pushforward.schur_form_terms`` that the ``degree`` command also reads,
    evaluated for all the root sets of a theorem-suite cell at once.
  * ``schur_form_pushforward``: the Schur-form sum in a model's graded ring,
    one Jacobi-Trudi determinant of Segre classes per shape; the oracle of the
    class ``pushforward_plucker_power`` builds from the walk's keys, and of
    the rational form, which enumerates its vectors apart from that walk.
    Over formal bundles a determinant depends on (d, shape) and not on the
    rank, so the remark suite computes each one once for all the ranks of
    its grid.
  * ``pieri_walk``: theta^N as a sum of Schur classes by repeated Pieri
    steps, whose counts are the hook-length tableau counts the production
    formulas read; ``box_pieri_degree`` truncates it to the d x (r-d) box and
    computes Grassmannian degrees without factorials or determinants.
  * ``degree_grassmannian_factorial``: the classical degree as one exact
    quotient of factorial products, checking the prime-exponent product of
    ``degree_grassmannian_classical`` beside the box Pieri walk and the hook
    count of the rectangle.

The suite drivers compare these against the production code over seeded random
grids and return reports that are byte-reproducible from the seed.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .partitions import Partition, rectangle
from .pushforward import (
    _class_of_table,
    degree_grassmannian_classical,
    pushforward_plucker_power,
    rational_form_coefficients,
    schur_coefficients,
    schur_form_terms,
)
from .chowring import BundleModel, FormalBundle, GradedPoly, SplitBundle, ring_of, segre_classes
from .records import Record, require_exact, require_sizes
from .rng import SplitMix64
from .schur import jacobi_trudi_det
from .tableaux import syt_count_hook


@lru_cache(maxsize=1)
def _subset_plan(
    r: int, d: int
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """The index plan of localization for r roots and d-subsets.

    The differences z_i - z_j of a call are laid out flat at i*r + j.  The
    plan holds the flat indices of the Vandermonde pairs i < j and, for each
    d-subset I in ``itertools.combinations`` order, the pair (I, the flat
    indices of its cross pairs i in I, j not in I).  One entry is kept, the
    plan of the last (r, d): the theorem suite varies the power innermost, so
    consecutive calls share it, and no earlier plan stays in memory.
    """
    pairs = tuple(i * r + j for i, j in itertools.combinations(range(r), 2))
    subsets = []
    for subset in itertools.combinations(range(r), d):
        outside = [j for j in range(r) if j not in subset]
        subsets.append((subset, tuple(i * r + j for i in subset for j in outside)))
    return pairs, tuple(subsets)


def localization_pushforward(N: int, d: int, roots: Sequence[Fraction | int]) -> Fraction:
    """Symmetrized fixed-point sum over all d-subsets of the roots.

    The roots must be ints or Fractions, and N, d and their number r pass
    the size rule ``require_sizes``; so no float or bool d reaches the
    memoized plan under the key of an equal int.  The roots are scaled to
    integers z = q*y, q the lcm of their denominators.  Every subset term
    then shares the Vandermonde denominator
    V = prod_{i<j} (z_i - z_j): the subset's own denominator D_I is, up to
    sign, the part of V that pairs I with its complement, so V / D_I is an
    exact integer.  The integer sum of e_I^N * V / D_I, with e_I the sum of
    the z_i in I, is reduced once, the scaling undone:
    q^{d(r-d)} * sum / (q^N * V).

    The call computes the r^2 differences z_i - z_j once; V and every D_I
    are products of the differences that the subset plan of (r, d) names
    (``_subset_plan``, which keeps the plan of the last (r, d) only).
    """
    values = list(roots)
    require_exact(values, "roots")
    r = len(values)
    require_sizes(d, r, N)
    if len(set(values)) != len(values):
        raise ValueError("roots must be pairwise distinct")
    q = lcm(*(y.denominator for y in values))
    z = [y.numerator * (q // y.denominator) for y in values]
    pairs, subsets = _subset_plan(r, d)
    difference = [a - b for a in z for b in z].__getitem__
    root = z.__getitem__
    vandermonde = prod(map(difference, pairs))
    total = 0
    for subset, cross in subsets:
        quotient, rem = divmod(vandermonde, prod(map(difference, cross)))
        assert rem == 0, f"subset denominator does not divide the Vandermonde product at {subset}"
        total += sum(map(root, subset)) ** N * quotient
    return Fraction(total * q ** (d * (r - d)), vandermonde * q**N)


def schur_form_at_roots(
    N: int, d: int, root_sets: Sequence[Sequence[Fraction | int]]
) -> list[int | Fraction]:
    """The tableau-weighted Schur sum specialized at each set of Chern roots.

    One value per root set: the exact sum of its production rows from one
    ``schur_form_terms`` call, the code the ``degree`` command runs, which
    computes the tableau counts once for all the sets.  Nothing is
    truncated, so this is the production side of the scalar identity check
    against localization.  Integer roots give an int.
    """
    return [
        sum(count * value for _, count, value in rows)
        for rows in schur_form_terms(N, d, root_sets)
    ]


def schur_form_pushforward(N: int, d: int, model: BundleModel) -> GradedPoly:
    """The tableau-weighted Schur sum in the model's graded ring, at its rank.

    Each Delta_lam is a Jacobi-Trudi determinant of the model's Segre classes,
    expanded with ring multiplications; the monomial table of the production
    path is checked against this sum.
    """
    require_exact((model,), "model", (FormalBundle, SplitBundle))
    return _schur_sum(schur_coefficients(N, d, model.rank), d, model, {})


def _schur_sum(
    terms: list[tuple[Partition, int]],
    d: int,
    model: BundleModel,
    deltas: dict[Partition, GradedPoly],
) -> GradedPoly:
    """Sum of count * Delta_lam over the (lam, count) terms, in the model's ring.

    Delta_lam, the d-row Jacobi-Trudi determinant of the model's Segre
    classes, is read from ``deltas`` and computed into it when missing.  A
    dict may serve several calls only while d and the Segre classes of the
    shapes stay the same.
    """
    total = ring_of(model).zero()
    segre = None
    for lam, count in terms:
        if lam not in deltas:
            if segre is None:
                segre = segre_classes(model, lam.weight + d)
            deltas[lam] = jacobi_trudi_det(lam.padded(d), segre)
        total = total + count * deltas[lam]
    return total


def pieri_walk(steps: int, rows: int, width: int) -> dict[tuple[int, ...], int]:
    """Multiply by the sum of ``rows`` variables ``steps`` times, by Pieri steps.

    Each step adds one box to every shape in every way that keeps it a
    partition with at most ``rows`` rows and at most ``width`` columns.  The
    count of a shape (a tuple of positive parts) is the number of ways to
    reach it, its standard-tableau count when ``width`` does not truncate
    the walk.  Self-contained on purpose: shares no code with the tableau
    counts and the Schur algebra it cross-checks.
    """
    state: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(steps):
        grown: dict[tuple[int, ...], int] = {}
        for shape, count in state.items():
            for i in range(min(len(shape) + 1, rows)):
                current = shape[i] if i < len(shape) else 0
                if current + 1 > width:
                    continue
                if i > 0 and current + 1 > shape[i - 1]:
                    continue
                key = shape[:i] + (current + 1,) + shape[i + 1 :]
                grown[key] = grown.get(key, 0) + count
        state = grown
    return state


def box_pieri_degree(d: int, r: int) -> int:
    """Grassmannian degree as the count of the full d x (r-d) box in the Pieri
    walk truncated to that box."""
    require_sizes(d, r)
    width = r - d
    return pieri_walk(d * width, d, width).get(tuple([width] * d) if width else (), 0)


def degree_grassmannian_factorial(d: int, r: int) -> int:
    """Grassmannian degree by the factorial closed form
    (d(r-d))! * prod_{l<d} l! / prod_{l<=d} (r-l)!, with the division
    asserted exact."""
    require_sizes(d, r)
    numerator = factorial(d * (r - d)) * prod(factorial(l) for l in range(1, d))
    denominator = prod(factorial(r - l) for l in range(1, d + 1))
    degree, rem = divmod(numerator, denominator)
    assert rem == 0, f"degree formula division not exact for d={d}, r={r}"
    return degree


# ---------------------------------------------------------------------------
# Randomized and grid-based suite drivers
# ---------------------------------------------------------------------------


class TrialRecord(Record):
    __slots__ = ("roots", "localization", "schur_form")

    def __init__(self, roots: list[int], localization: Fraction, schur_form: int | Fraction) -> None:
        self.roots = roots
        self.localization = localization
        self.schur_form = schur_form

    @property
    def equal(self) -> bool:
        return self.localization == self.schur_form


class CellReport(Record):
    """Randomized comparison of the two scalar oracles for one (d, r, N)."""

    __slots__ = ("d", "r", "N", "seed", "trials")

    def __init__(self, d: int, r: int, N: int, seed: int, trials: list[TrialRecord]) -> None:
        self.d = d
        self.r = r
        self.N = N
        self.seed = seed
        self.trials = trials

    @property
    def failures(self) -> int:
        below = self.N < self.d * (self.r - self.d)
        bad = 0
        for t in self.trials:
            if not t.equal:
                bad += 1
            elif below and t.localization != 0:
                bad += 1  # below the fiber dimension both sides must vanish
        return bad


def verify_pushforward(d: int, r: int, N: int, trials: int, seed: int) -> CellReport:
    """Compare localization against the Schur form on seeded random roots.

    Each trial draws r pairwise distinct integers in [-10r, 10r] from a
    splitmix64 stream seeded as given; equality is exact rational equality.
    All the cell's root sets are drawn first and the Schur side evaluates
    them in one call, so its tableau counts are computed once per cell;
    localization draws nothing, so the stream and the trial order are those
    of drawing and checking one trial at a time.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    gen = SplitMix64(seed)
    root_sets = [gen.distinct_integers(r, -10 * r, 10 * r) for _ in range(trials)]
    schur_values = schur_form_at_roots(N, d, root_sets)
    records = [
        TrialRecord(
            roots=roots,
            localization=localization_pushforward(N, d, roots),
            schur_form=value,
        )
        for roots, value in zip(root_sets, schur_values)
    ]
    return CellReport(d=d, r=r, N=N, seed=seed, trials=records)


class SuiteReport(Record):
    """Deterministic outcome of one verification suite.

    Both renderings are byte-identical for identical invocations.  The line
    lists and the payload left out start empty, fresh for each report.
    """

    __slots__ = (
        "suite",
        "parameters",
        "comparisons",
        "failures",
        "detail_lines",
        "verbose_lines",
        "payload",
    )

    def __init__(
        self,
        suite: str,
        parameters: dict[str, object],
        comparisons: int,
        failures: int,
        detail_lines: list[str] | None = None,
        verbose_lines: list[str] | None = None,
        payload: dict[str, object] | None = None,
    ) -> None:
        self.suite = suite
        self.parameters = parameters
        self.comparisons = comparisons
        self.failures = failures
        self.detail_lines = [] if detail_lines is None else detail_lines
        self.verbose_lines = [] if verbose_lines is None else verbose_lines
        self.payload = {} if payload is None else payload

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_text(self, verbose: bool = False) -> str:
        lines = [f"suite: {self.suite}"]
        for key, value in self.parameters.items():
            lines.append(f"{key}: {value}")
        lines.extend(self.detail_lines)
        if verbose:
            lines.extend(self.verbose_lines)
        lines.append(f"comparisons: {self.comparisons}")
        lines.append(f"failures: {self.failures}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json_dict(self, verbose: bool = False) -> dict[str, object]:
        data: dict[str, object] = {
            "suite": self.suite,
            "parameters": self.parameters,
            "comparisons": self.comparisons,
            "failures": self.failures,
            "passed": self.passed,
        }
        data.update(self.payload)
        if verbose:
            data["trials"] = self.verbose_lines
        return data


def suite_theorem(
    max_d: int = 3,
    max_r: int = 6,
    extra_powers: int = 4,
    trials: int = 20,
    seed: int = 42,
    verbose: bool = True,
) -> SuiteReport:
    """Localization versus Schur form over the full random grid.

    Covers every d <= max_d, d <= r <= max_r, and all powers from 0 through
    d(r-d) + extra_powers; powers below the fiber dimension double as the
    vanishing check.  Cell seeds are drawn from one splitmix64 stream seeded
    as given, in grid order, so the whole run replays from the seed.  The
    per-trial lines are formatted only when ``verbose`` asks for them; else
    the report's verbose lines stay empty.
    """
    master = SplitMix64(seed)
    comparisons = 0
    failures = 0
    verbose_lines = []
    cells = 0
    for d in range(1, max_d + 1):
        for r in range(d, max_r + 1):
            fiber_dim = d * (r - d)
            for N in range(0, fiber_dim + extra_powers + 1):
                cell_seed = master.next_u64()
                report = verify_pushforward(d, r, N, trials, cell_seed)
                cells += 1
                comparisons += len(report.trials)
                failures += report.failures
                if verbose:
                    verbose_lines.extend(
                        f"d={d} r={r} N={N} roots={t.roots} localization={t.localization} "
                        f"schur={t.schur_form} {'ok' if t.equal else 'MISMATCH'}"
                        for t in report.trials
                    )
    return SuiteReport(
        suite="theorem",
        parameters={
            "seed": seed,
            "max_d": max_d,
            "max_r": max_r,
            "extra_powers": extra_powers,
            "trials_per_cell": trials,
        },
        comparisons=comparisons,
        failures=failures,
        detail_lines=[f"cells: {cells}"],
        verbose_lines=verbose_lines,
        payload={"cells": cells},
    )


def suite_remark(max_d: int = 3, max_r: int = 6, extra_powers: int = 3) -> SuiteReport:
    """Decide which denominator variant of the rational form is correct.

    Compares both variants against the Jacobi-Trudi Schur form
    (the sum ``schur_form_pushforward`` computes) symbolically, over formal
    bundles with base dimension equal to the output degree; each
    determinant Delta_lam is computed once per (d, lam) and shared by every
    rank r of the grid.  Passes only if exactly one variant matches on every
    instance; also records whether the matching variant's coefficients were
    integers throughout.  ``comparisons`` counts these variant checks, two
    per instance.  The production class, ``pushforward_plucker_power`` from
    the monomial table, is checked against the same sum too; each mismatch
    adds only a failure and a verbose line.
    """
    variants = ("linear", "factorial")
    matches = {v: 0 for v in variants}
    integral = {v: True for v in variants}
    instances = 0
    table_mismatches = 0
    verbose_lines = []
    for d in range(1, max_d + 1):
        # Delta_lam by shape, for this d: the formal model's ring and Segre
        # classes depend only on its base dimension |lam|, not on the rank
        deltas: dict[Partition, GradedPoly] = {}
        for r in range(d, max_r + 1):
            fiber_dim = d * (r - d)
            for N in range(fiber_dim, fiber_dim + extra_powers + 1):
                instances += 1
                model = FormalBundle(base_dim=N - fiber_dim, rank=r)
                expected = _schur_sum(schur_coefficients(N, d, r), d, model, deltas)
                if pushforward_plucker_power(N, d, model) != expected:
                    table_mismatches += 1
                    verbose_lines.append(f"d={d} r={r} N={N} table: mismatch")
                for variant in variants:
                    try:
                        coeffs = rational_form_coefficients(N, d, r, variant)
                    except ZeroDivisionError:
                        verbose_lines.append(f"d={d} r={r} N={N} {variant}: divides by zero")
                        continue
                    if any(c.denominator != 1 for _, c in coeffs):
                        integral[variant] = False
                    # the class pushforward_rational_form builds, from the same read
                    candidate = _class_of_table(coeffs, N - fiber_dim, model)
                    if candidate == expected:
                        matches[variant] += 1
                        verbose_lines.append(f"d={d} r={r} N={N} {variant}: match")
                    else:
                        verbose_lines.append(f"d={d} r={r} N={N} {variant}: mismatch")
    total_matchers = [v for v in variants if matches[v] == instances]
    failures = (0 if len(total_matchers) == 1 else 1) + table_mismatches
    winner = total_matchers[0] if len(total_matchers) == 1 else None
    detail = [
        f"instances: {instances}",
        f"linear matches: {matches['linear']}/{instances}",
        f"factorial matches: {matches['factorial']}/{instances}",
        f"matching variant: {winner if winner else 'NONE'}",
    ]
    if winner:
        detail.append(
            "matching variant coefficients all integral: "
            + ("yes" if integral[winner] else "no")
        )
    return SuiteReport(
        suite="remark",
        parameters={"max_d": max_d, "max_r": max_r, "extra_powers": extra_powers},
        comparisons=2 * instances,
        failures=failures,
        detail_lines=detail,
        verbose_lines=verbose_lines,
        payload={
            "instances": instances,
            "matches": matches,
            "matching_variant": winner,
            "matching_variant_integral": integral[winner] if winner else None,
        },
    )


def suite_degrees(max_r: int = 8) -> SuiteReport:
    """Independent computations of every Grassmannian degree up to max_r.

    The production prime-exponent product, the factorial closed form, the box
    Pieri walk and the hook-length count of the rectangle must agree exactly;
    the verbose line shows the production value as ``closed``.
    """
    comparisons = 0
    failures = 0
    verbose_lines = []
    for r in range(1, max_r + 1):
        for d in range(1, r + 1):
            closed = degree_grassmannian_classical(d, r)
            walked = box_pieri_degree(d, r)
            hooked = syt_count_hook(rectangle(d, r - d))
            comparisons += 1
            agree = closed == degree_grassmannian_factorial(d, r) == walked == hooked
            if not agree:
                failures += 1
            verbose_lines.append(
                f"d={d} r={r} closed={closed} box_pieri={walked} hook={hooked} "
                + ("ok" if agree else "MISMATCH")
            )
    return SuiteReport(
        suite="degrees",
        parameters={"max_r": max_r},
        comparisons=comparisons,
        failures=failures,
        verbose_lines=verbose_lines,
        payload={},
    )


def run_suites(suite: str, verbose: bool = True, **options: int) -> list[SuiteReport]:
    """Run one named suite, or all three.

    ``options`` holds the options the caller gave: the grid bounds (max_d,
    max_r, extra_powers) and the theorem suite's trials and seed.  Each
    suite keeps its own defaults for the rest; the remark suite takes the
    bounds, and the degrees suite only max_r.  ``verbose`` False lets the
    theorem suite skip formatting its per-trial lines, which a report
    rendered without them never reads.
    """
    bounds = {name: value for name, value in options.items() if name not in ("trials", "seed")}
    reports = []
    if suite in ("theorem", "all"):
        reports.append(suite_theorem(verbose=verbose, **options))
    if suite in ("remark", "all"):
        reports.append(suite_remark(**bounds))
    if suite in ("degrees", "all"):
        reports.append(suite_degrees(max_r=bounds["max_r"]) if "max_r" in bounds else suite_degrees())
    if not reports:
        raise ValueError(f"unknown suite {suite!r}")
    return reports

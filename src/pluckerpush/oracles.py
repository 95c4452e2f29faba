"""Independent verification machinery.

Three oracles, none of which shares code with the production formula it checks:

  * ``localization_pushforward``: the Gysin image of a power of the Pluecker
    class over a point with split Chern roots y_1..y_r, as the symmetrized sum

        sum over d-subsets I of  (sum_{i in I} y_i)^N / prod_{i in I, j not in I} (y_i - y_j)

    The roots must be pairwise distinct.  The terms are summed in integers
    over one common denominator, the Vandermonde product of the roots scaled
    to integers, and the total is reduced to a Fraction once.  It checks
    ``schur_form_at_roots``, the exact sum of the production rows
    ``pushforward.schur_form_terms`` that the ``degree`` command also reads.
  * ``schur_form_pushforward``: the Schur-form sum in a model's graded ring,
    one Jacobi-Trudi determinant of Segre classes per shape; the oracle of the
    monomial table behind ``pushforward_plucker_power`` and of the rational
    form, which share one walk over the exponent vectors.
  * ``pieri_walk``: theta^N as a sum of Schur classes by repeated Pieri
    steps, whose counts are the hook-length tableau counts the production
    formulas read; ``box_pieri_degree`` truncates it to the d x (r-d) box and
    computes Grassmannian degrees without factorials or determinants.

The suite drivers compare these against the production code over seeded random
grids and return reports that are byte-reproducible from the seed.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Sequence
from fractions import Fraction
from math import lcm, prod

from .partitions import rectangle
from .pushforward import (
    _rational_form_class,
    degree_grassmannian_classical,
    rational_form_coefficients,
    schur_coefficients,
    schur_form_terms,
)
from .chowring import BundleModel, FormalBundle, GradedPoly, ring_of, segre_classes
from .records import Record
from .rng import SplitMix64
from .schur import schur_via_jacobi_trudi
from .tableaux import syt_count_hook


def localization_pushforward(N: int, d: int, roots: Sequence[Fraction | int]) -> Fraction:
    """Symmetrized fixed-point sum over all d-subsets of the roots.

    Integer roots are used as given, others are read as Fractions.  The roots
    are scaled to integers z = q*y, q the lcm of their denominators.
    Every subset term then shares the Vandermonde denominator
    V = prod_{i<j} (z_i - z_j): the subset's own denominator D_I is, up to
    sign, the part of V that pairs I with its complement, so V / D_I is an
    exact integer.  The integer sum of e_I^N * V / D_I, with e_I the sum of
    the z_i in I, is reduced once, the scaling undone:
    q^{d(r-d)} * sum / (q^N * V).
    """
    values = [y if isinstance(y, int) else Fraction(y) for y in roots]
    if len(set(values)) != len(values):
        raise ValueError("roots must be pairwise distinct")
    r = len(values)
    if not 1 <= d <= r:
        raise ValueError(f"need 1 <= d <= r, got d={d}, r={r}")
    if N < 0:
        raise ValueError(f"power must be nonnegative, got {N}")
    q = lcm(*(y.denominator for y in values))
    z = [y.numerator * (q // y.denominator) for y in values]
    vandermonde = prod(z[i] - z[j] for i, j in itertools.combinations(range(r), 2))
    total = 0
    for subset in itertools.combinations(range(r), d):
        outside = [z[j] for j in range(r) if j not in subset]
        denominator = prod(z[i] - y for i in subset for y in outside)
        quotient, rem = divmod(vandermonde, denominator)
        assert rem == 0, f"subset denominator does not divide the Vandermonde product at {subset}"
        total += sum(z[i] for i in subset) ** N * quotient
    return Fraction(total * q ** (d * (r - d)), vandermonde * q**N)


def schur_form_at_roots(N: int, d: int, roots: Sequence[Fraction | int]) -> Fraction:
    """The tableau-weighted Schur sum specialized at explicit Chern roots.

    The exact sum of the production rows ``schur_form_terms``, the code the
    ``degree`` command runs; nothing is truncated, so this is the production
    side of the scalar identity check against localization.
    """
    return sum((count * value for _, count, value in schur_form_terms(N, d, roots)), Fraction(0))


def schur_form_pushforward(N: int, d: int, r: int, model: BundleModel) -> GradedPoly:
    """The tableau-weighted Schur sum in the model's graded ring.

    Each Delta_lam is a Jacobi-Trudi determinant of the model's Segre classes,
    expanded with ring multiplications; the monomial table of the production
    path is checked against this sum.
    """
    if model.rank != r:
        raise ValueError(f"model has rank {model.rank}, expected {r}")
    if N < 0:
        raise ValueError(f"power must be nonnegative, got {N}")
    terms = schur_coefficients(N, d, r)
    total = ring_of(model).zero()
    if not terms:
        return total
    segre = segre_classes(model, N - d * (r - d) + d)
    for lam, count in terms:
        total = total + count * schur_via_jacobi_trudi(lam, segre, size=d)
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
                new_shape = list(shape) + [0] * (i + 1 - len(shape))
                new_shape[i] += 1
                key = tuple(p for p in new_shape if p)
                grown[key] = grown.get(key, 0) + count
        state = grown
    return state


def box_pieri_degree(d: int, r: int) -> int:
    """Grassmannian degree as the count of the full d x (r-d) box in the Pieri
    walk truncated to that box."""
    if not 1 <= d <= r:
        raise ValueError(f"need 1 <= d <= r, got d={d}, r={r}")
    width = r - d
    return pieri_walk(d * width, d, width).get(tuple([width] * d) if width else (), 0)


# ---------------------------------------------------------------------------
# Randomized and grid-based suite drivers
# ---------------------------------------------------------------------------


class TrialRecord(Record):
    __slots__ = ("roots", "localization", "schur_form")

    def __init__(self, roots: list[int], localization: Fraction, schur_form: Fraction) -> None:
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
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    gen = SplitMix64(seed)
    records = []
    for _ in range(trials):
        roots = gen.distinct_integers(r, -10 * r, 10 * r)
        records.append(
            TrialRecord(
                roots=roots,
                localization=localization_pushforward(N, d, roots),
                schur_form=schur_form_at_roots(N, d, roots),
            )
        )
    return CellReport(d=d, r=r, N=N, seed=seed, trials=records)


class SuiteReport(Record):
    """Deterministic outcome of one verification suite.

    ``elapsed_seconds`` is deliberately excluded from both renderings so that
    identical invocations remain byte-identical; callers wanting timing read
    the attribute (the CLI reports it on stderr).  The line lists and the
    payload left out start empty, fresh for each report.
    """

    __slots__ = (
        "suite",
        "parameters",
        "comparisons",
        "failures",
        "detail_lines",
        "verbose_lines",
        "payload",
        "elapsed_seconds",
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
        elapsed_seconds: float = 0.0,
    ) -> None:
        self.suite = suite
        self.parameters = parameters
        self.comparisons = comparisons
        self.failures = failures
        self.detail_lines = [] if detail_lines is None else detail_lines
        self.verbose_lines = [] if verbose_lines is None else verbose_lines
        self.payload = {} if payload is None else payload
        self.elapsed_seconds = elapsed_seconds

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
    max_d: int = 3, max_r: int = 6, extra_powers: int = 4, trials: int = 20, seed: int = 42
) -> SuiteReport:
    """Localization versus Schur form over the full random grid.

    Covers every d <= max_d, d <= r <= max_r, and all powers from 0 through
    d(r-d) + extra_powers; powers below the fiber dimension double as the
    vanishing check.  Cell seeds are drawn from one splitmix64 stream seeded
    as given, in grid order, so the whole run replays from the seed.
    """
    started = time.monotonic()
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
                for t in report.trials:
                    status = "ok" if t.equal else "MISMATCH"
                    verbose_lines.append(
                        f"d={d} r={r} N={N} roots={t.roots} "
                        f"localization={t.localization} schur={t.schur_form} {status}"
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
        elapsed_seconds=time.monotonic() - started,
    )


def suite_remark(max_d: int = 3, max_r: int = 6, extra_powers: int = 3) -> SuiteReport:
    """Decide which denominator variant of the rational form is correct.

    Compares both variants against the Jacobi-Trudi Schur form
    (``schur_form_pushforward``) symbolically, over formal
    bundles with base dimension equal to the output degree.  Both variants
    walk the exponent vectors the production monomial table walks, so the
    suite checks that walk against the ring oracle too.  Passes only if
    exactly one variant matches on every instance; also records whether the
    matching variant's coefficients were integers throughout.
    """
    started = time.monotonic()
    variants = ("linear", "factorial")
    matches = {v: 0 for v in variants}
    integral = {v: True for v in variants}
    instances = 0
    verbose_lines = []
    for d in range(1, max_d + 1):
        for r in range(d, max_r + 1):
            fiber_dim = d * (r - d)
            for N in range(fiber_dim, fiber_dim + extra_powers + 1):
                instances += 1
                model = FormalBundle(base_dim=N - fiber_dim, rank=r)
                expected = schur_form_pushforward(N, d, r, model)
                for variant in variants:
                    try:
                        coeffs = rational_form_coefficients(N, d, r, variant)
                    except ZeroDivisionError:
                        verbose_lines.append(f"d={d} r={r} N={N} {variant}: divides by zero")
                        continue
                    if any(c.denominator != 1 for _, c in coeffs):
                        integral[variant] = False
                    # the class pushforward_rational_form builds, from the same read
                    candidate = _rational_form_class(coeffs, N - fiber_dim, model)
                    if candidate == expected:
                        matches[variant] += 1
                        verbose_lines.append(f"d={d} r={r} N={N} {variant}: match")
                    else:
                        verbose_lines.append(f"d={d} r={r} N={N} {variant}: mismatch")
    total_matchers = [v for v in variants if matches[v] == instances]
    failures = 0 if len(total_matchers) == 1 else 1
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
        elapsed_seconds=time.monotonic() - started,
    )


def suite_degrees(max_r: int = 8) -> SuiteReport:
    """Three independent computations of every Grassmannian degree up to max_r.

    The closed formula, the box Pieri walk, and the hook-length count of the
    rectangle must agree exactly.
    """
    started = time.monotonic()
    comparisons = 0
    failures = 0
    verbose_lines = []
    for r in range(1, max_r + 1):
        for d in range(1, r + 1):
            closed = degree_grassmannian_classical(d, r)
            walked = box_pieri_degree(d, r)
            hooked = syt_count_hook(rectangle(d, r - d))
            comparisons += 1
            agree = closed == walked == hooked
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
        elapsed_seconds=time.monotonic() - started,
    )


def run_suites(suite: str, seed: int = 42, trials: int = 20, **bounds: int) -> list[SuiteReport]:
    """Run one named suite, or all three.

    ``bounds`` holds the grid bounds the caller gave (max_d, max_r,
    extra_powers); each suite keeps its own defaults for the rest, and the
    degrees suite takes only max_r.
    """
    reports = []
    if suite in ("theorem", "all"):
        reports.append(suite_theorem(trials=trials, seed=seed, **bounds))
    if suite in ("remark", "all"):
        reports.append(suite_remark(**bounds))
    if suite in ("degrees", "all"):
        reports.append(suite_degrees(max_r=bounds["max_r"]) if "max_r" in bounds else suite_degrees())
    if not reports:
        raise ValueError(f"unknown suite {suite!r}")
    return reports

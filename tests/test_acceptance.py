"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them) and holding
its stated runtime budget.  All comparisons are exact; no tolerances anywhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from pluckerpush import (
    ENUMERATION_CAP,
    FormalBundle,
    Partition,
    SplitBundle,
    SplitMix64,
    box_pieri_degree,
    degree_grassmann_bundle_terms,
    degree_grassmannian_classical,
    enumerate_partitions,
    integrate_over_pm,
    jacobi_trudi_det,
    localization_pushforward,
    pieri_walk,
    pushforward_plucker_power,
    pushforward_rational_form,
    rectangle,
    ring_of,
    segre_classes,
    suite_remark,
    syt_count_hook,
    syt_count_product,
    syt_enumerate,
    verify_pushforward,
)
from pluckerpush.cli import main


def pushforward_schur_class(mu, d, r, segre):
    """The push-forward of Delta_mu(s(Q)): the Jacobi-Trudi determinant on
    (mu_1 - (r-d), ..., mu_d - (r-d)), zero unless mu contains the rectangle."""
    return jacobi_trudi_det([k - (r - d) for k in mu.padded(d)], segre)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {label}")
        raise
    print(f"[criterion {number:02d}] PASS  {label}  ({time.monotonic() - start:.2f}s)")


def test_criterion_01_classical_degrees_three_ways():
    with criterion(1, "classical degrees agree three ways for d <= r <= 8", 5.0):
        for r in range(1, 9):
            for d in range(1, r + 1):
                closed = degree_grassmannian_classical(d, r)
                assert box_pieri_degree(d, r) == closed
                assert syt_count_hook(rectangle(d, r - d)) == closed
        assert degree_grassmannian_classical(2, 4) == 2
        assert degree_grassmannian_classical(2, 5) == 5
        assert degree_grassmannian_classical(3, 6) == 42


def test_criterion_02_localization_agreement():
    with criterion(2, "localization oracle matches the Schur form on the random grid", 60.0):
        master = SplitMix64(42)
        for d in range(1, 4):
            for r in range(d, 7):
                fiber = d * (r - d)
                for N in range(fiber, fiber + 5):
                    report = verify_pushforward(d, r, N, trials=20, seed=master.next_u64())
                    assert report.failures == 0, f"mismatch at d={d} r={r} N={N}"


def test_criterion_03_vanishing_below_fiber_dimension():
    with criterion(3, "localization vanishes below the fiber dimension", 10.0):
        master = SplitMix64(2026)
        for d in range(1, 4):
            for r in range(d, 7):
                for N in range(d * (r - d)):
                    for _ in range(20):
                        roots = master.distinct_integers(r, -10 * r, 10 * r)
                        assert localization_pushforward(N, d, roots) == 0


def test_criterion_04_pieri_coefficients_and_specialization():
    with criterion(4, "Pieri coefficients are tableau counts; specialization sums to d^N", 10.0):
        for d in range(1, 5):
            for N in range(11):
                # width N: the walk is not truncated
                expansion = pieri_walk(N, d, N)
                assert expansion == {
                    lam: syt_count_hook(lam) for lam in enumerate_partitions(N, d)
                }
                h = [Fraction(comb(k + d - 1, k)) for k in range(N + 1)]
                total = sum(
                    coeff * jacobi_trudi_det(shape, h)
                    for shape, coeff in expansion.items()
                )
                assert total == d**N


def test_criterion_05_tableau_counts_three_ways():
    with criterion(5, "hook formula = product formula = enumeration", 30.0):
        for d in range(1, 5):
            for r in range(d, 8):
                for weight in range(7):
                    for lam in enumerate_partitions(weight, d):
                        shifted = Partition(k + r - d for k in lam.padded(d))
                        by_hook = syt_count_hook(shifted)
                        assert syt_count_product(lam, d, r) == by_hook
                        if shifted.weight <= ENUMERATION_CAP:
                            assert syt_enumerate(shifted) == by_hook


def test_criterion_06_vanishing_term_identity():
    with criterion(6, "unrestricted shape sum equals the restricted sum symbolically", 30.0):
        for d in range(1, 4):
            for r in range(d, 7):
                fiber = d * (r - d)
                for N in range(fiber + 5):
                    model = FormalBundle(base_dim=max(N - fiber, 0), rank=r)
                    ring = ring_of(model)
                    segre = segre_classes(model, N + d)
                    unrestricted = ring.zero()
                    for mu in enumerate_partitions(N, d):
                        unrestricted = unrestricted + syt_count_hook(
                            mu
                        ) * pushforward_schur_class(mu, d, r, segre)
                    assert unrestricted == pushforward_plucker_power(N, d, model)


def test_criterion_07_rank_one_specialization():
    with criterion(7, "rank-one quotient reduces to a single Segre class", 5.0):
        for r in range(1, 7):
            for N in range(r + 5):
                weight = N - (r - 1)
                model = FormalBundle(base_dim=max(weight, 0), rank=r)
                image = pushforward_plucker_power(N, 1, model)
                if weight < 0:
                    assert image == 0
                else:
                    assert image == segre_classes(model, weight)[weight]


def test_criterion_08_split_model_degrees(capsys):
    with criterion(8, "split-model degrees: CLI examples and rational-form cross-check", 10.0):
        assert main(["degree", "--d", "1", "--pm", "1", "--twists", "1,2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "degree: 3"
        assert main(["degree", "--d", "2", "--pm", "1", "--twists", "1,1,1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "degree: 6"

        twist_sets = [(0, 0), (1, 2), (1, 1, 1), (2, 1, 3), (1, 0, 2, 1)]
        for twists in twist_sets:
            r = len(twists)
            for d in range(1, r + 1):
                for m in range(3):
                    model = SplitBundle(base_dim=m, twists=twists)
                    rows = degree_grassmann_bundle_terms(d, model)
                    by_schur_form = sum(count * integral for _, count, integral in rows)
                    top = d * (r - d) + m
                    by_rational_form = integrate_over_pm(
                        pushforward_rational_form(top, d, model, "factorial"), m
                    )
                    assert by_schur_form == by_rational_form
                    assert by_schur_form.denominator == 1


def test_criterion_09_denominator_variant_resolution():
    with criterion(9, "exactly one rational-form variant matches, named in the report", 60.0):
        report = suite_remark(max_d=3, max_r=6, extra_powers=3)
        assert report.passed, "expected exactly one totally matching variant"
        assert report.payload["matching_variant"] == "factorial"
        matches = report.payload["matches"]
        assert matches["factorial"] == report.payload["instances"]
        assert matches["linear"] < report.payload["instances"]
        assert "matching variant: factorial" in report.to_text()


def test_criterion_10_verify_all_is_byte_identical(capsys):
    with criterion(10, "verify --suite all --seed 42 is byte-identical across runs", 120.0):
        assert main(["verify", "--suite", "all", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "all", "--seed", "42"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "overall: PASS" in first

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluckerpush import (
    SplitMix64,
    box_pieri_degree,
    degree_grassmannian_classical,
    localization_pushforward,
    rectangle,
    run_suites,
    schur_form_at_roots,
    suite_degrees,
    suite_remark,
    suite_theorem,
    syt_count_hook,
    verify_pushforward,
)
from pluckerpush import oracles, pushforward
from pluckerpush.cli import main
from pluckerpush.oracles import CellReport, SuiteReport, TrialRecord

distinct_roots = st.lists(st.integers(-30, 30), min_size=2, max_size=5, unique=True)
non_integral = st.builds(Fraction, st.integers(-30, 30), st.integers(2, 7)).filter(
    lambda y: y.denominator != 1
)


@st.composite
def mixed_roots(draw):
    """Pairwise distinct roots with at least one int and one non-integral Fraction."""
    ints = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=3, unique=True))
    fractions = draw(st.lists(non_integral, min_size=1, max_size=3, unique=True))
    return draw(st.permutations(ints + fractions))


def reference_localization(N, d, roots):
    """The localization sum as the formula reads, one Fraction term per subset."""
    values = [Fraction(y) for y in roots]
    r = len(values)
    total = Fraction(0)
    for subset in itertools.combinations(range(r), d):
        numerator = sum(values[i] for i in subset) ** N
        denominator = prod(
            values[i] - values[j] for i in subset for j in range(r) if j not in subset
        )
        total += numerator / denominator
    return total


class TestLocalization:
    def test_two_roots_low_powers(self):
        roots = [Fraction(3), Fraction(-5)]
        assert localization_pushforward(0, 1, roots) == 0
        assert localization_pushforward(1, 1, roots) == 1
        assert localization_pushforward(2, 1, roots) == roots[0] + roots[1]

    def test_quadric_line_complex_value(self):
        assert localization_pushforward(4, 2, [0, 1, 2, 3]) == 2

    def test_rejects_repeated_roots(self):
        with pytest.raises(ValueError):
            localization_pushforward(2, 1, [1, 1])

    def test_rejects_roots_repeated_across_types(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            localization_pushforward(2, 1, [2, Fraction(4, 2)])
        with pytest.raises(ValueError, match="pairwise distinct"):
            localization_pushforward(2, 1, [Fraction(1, 2), 3, Fraction(2, 4)])

    @settings(max_examples=100)
    @given(st.one_of(distinct_roots, mixed_roots()), st.integers(1, 6), st.integers(0, 10))
    def test_matches_the_per_subset_fraction_sum(self, roots, d, N):
        d = min(d, len(roots))
        value = localization_pushforward(N, d, roots)
        assert type(value) is Fraction
        assert value == reference_localization(N, d, roots)

    @settings(max_examples=40)
    @given(
        st.one_of(distinct_roots, mixed_roots()),
        st.integers(1, 4),
        st.integers(0, 9),
        st.integers(-5, 5).filter(bool),
    )
    def test_homogeneous_of_degree_N_minus_fiber_dimension(self, roots, d, N, c):
        d = min(d, len(roots))
        r = len(roots)
        scaled = localization_pushforward(N, d, [c * y for y in roots])
        assert scaled == Fraction(c) ** (N - d * (r - d)) * localization_pushforward(N, d, roots)

    def test_result_is_a_fraction(self):
        assert type(localization_pushforward(0, 1, [5])) is Fraction
        assert type(localization_pushforward(4, 2, [0, 1, 2, 3])) is Fraction
        assert type(localization_pushforward(1, 2, [0, 1, 2, 3])) is Fraction
        # d = 1, r = 2: the value is h_2(y) = 1/4 + 1/6 + 1/9
        assert localization_pushforward(3, 1, [Fraction(1, 2), Fraction(1, 3)]) == Fraction(19, 36)

    @settings(max_examples=50)
    @given(distinct_roots, st.integers(1, 3), st.integers(0, 8), st.randoms())
    def test_permutation_invariance(self, roots, d, N, rng):
        if d > len(roots):
            d = len(roots)
        shuffled = roots[:]
        rng.shuffle(shuffled)
        assert localization_pushforward(N, d, roots) == localization_pushforward(
            N, d, shuffled
        )

    def test_vanishes_below_fiber_dimension(self):
        gen = SplitMix64(99)
        for d in range(1, 4):
            for r in range(d, 6):
                for N in range(d * (r - d)):
                    roots = gen.distinct_integers(r, -10 * r, 10 * r)
                    assert localization_pushforward(N, d, roots) == 0


class TestSchurFormAtRoots:
    def test_critical_power_is_classical_degree(self):
        gen = SplitMix64(5)
        for d in range(1, 4):
            for r in range(d, 6):
                roots = gen.distinct_integers(r, -20, 20)
                value = schur_form_at_roots(d * (r - d), d, roots)
                assert value == degree_grassmannian_classical(d, r)

    def test_rank_one_quotient_values(self):
        roots = [Fraction(2), Fraction(-1), Fraction(4)]
        assert schur_form_at_roots(2, 1, roots) == 1
        assert schur_form_at_roots(3, 1, roots) == sum(roots)

    def test_below_fiber_dimension_is_zero(self):
        assert schur_form_at_roots(3, 2, [0, 1, 2, 3]) == 0

    def test_rejects_too_few_roots(self):
        with pytest.raises(ValueError):
            schur_form_at_roots(2, 3, [1, 2])


class TestBoxPieri:
    def test_examples(self):
        for r in range(1, 9):
            assert box_pieri_degree(1, r) == 1
        assert box_pieri_degree(2, 4) == 2
        assert box_pieri_degree(2, 5) == 5

    def test_full_rank_box_is_trivial(self):
        assert box_pieri_degree(3, 3) == 1

    def test_three_way_degree_agreement(self):
        for r in range(1, 9):
            for d in range(1, r + 1):
                closed = degree_grassmannian_classical(d, r)
                assert box_pieri_degree(d, r) == closed
                assert syt_count_hook(rectangle(d, r - d)) == closed

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            box_pieri_degree(3, 2)


class TestSplitMix64:
    def test_frozen_stream(self):
        # transcription check of the splitmix64 constants for seed 42
        gen = SplitMix64(42)
        assert [gen.next_u64() for _ in range(4)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
            6349198060258255764,
        ]

    def test_bounded_draws_stay_in_range(self):
        gen = SplitMix64(1)
        values = [gen.integer_in(-7, 7) for _ in range(200)]
        assert all(-7 <= v <= 7 for v in values)

    def test_distinct_draws(self):
        gen = SplitMix64(7)
        values = gen.distinct_integers(30, -20, 20)
        assert len(set(values)) == 30

    def test_distinct_draws_reject_impossible_request(self):
        with pytest.raises(ValueError):
            SplitMix64(0).distinct_integers(5, 0, 3)

    def test_same_seed_same_stream(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


class TestVerifyDrivers:
    def test_cell_is_deterministic_and_clean(self):
        first = verify_pushforward(2, 4, 5, trials=8, seed=11)
        second = verify_pushforward(2, 4, 5, trials=8, seed=11)
        assert first.failures == 0
        assert [t.roots for t in first.trials] == [t.roots for t in second.trials]
        assert [t.localization for t in first.trials] == [
            t.localization for t in second.trials
        ]

    def test_constant_cell_value(self):
        report = verify_pushforward(2, 4, 4, trials=5, seed=3)
        assert report.failures == 0
        assert all(t.localization == 2 for t in report.trials)

    def test_below_critical_cell_vanishes(self):
        report = verify_pushforward(2, 4, 3, trials=5, seed=3)
        assert report.failures == 0
        assert all(t.localization == 0 for t in report.trials)

    def test_theorem_suite_small_grid(self):
        report = suite_theorem(max_d=2, max_r=4, extra_powers=2, trials=4, seed=9)
        assert report.passed
        assert report.comparisons > 0

    def test_theorem_suite_text_is_reproducible(self):
        a = suite_theorem(max_d=2, max_r=3, extra_powers=1, trials=3, seed=1)
        b = suite_theorem(max_d=2, max_r=3, extra_powers=1, trials=3, seed=1)
        assert a.to_text(verbose=True) == b.to_text(verbose=True)

    def test_remark_suite_names_factorial(self):
        report = suite_remark(max_d=2, max_r=4, extra_powers=2)
        assert report.passed
        assert report.payload["matching_variant"] == "factorial"
        assert report.payload["matching_variant_integral"] is True

    def test_remark_suite_rejects_linear_variant(self):
        report = suite_remark(max_d=2, max_r=4, extra_powers=2)
        assert report.payload["matches"]["linear"] < report.payload["instances"]
        assert any(line.endswith("linear: mismatch") for line in report.verbose_lines)

    def test_degrees_suite(self):
        report = suite_degrees(max_r=8)
        assert report.passed
        assert report.comparisons == 36

    def test_run_suites_dispatch(self):
        reports = run_suites("all", seed=4, max_d=2, max_r=3, extra_powers=1, trials=2)
        assert [rep.suite for rep in reports] == ["theorem", "remark", "degrees"]
        with pytest.raises(ValueError):
            run_suites("nonsense")


class TestReportRecords:
    def test_suite_report_defaults_are_fresh(self):
        a = SuiteReport(suite="x", parameters={}, comparisons=0, failures=0)
        b = SuiteReport("x", {}, 0, 0)
        a.detail_lines.append("cells: 1")
        a.verbose_lines.append("trial")
        a.payload["cells"] = 1
        assert (b.detail_lines, b.verbose_lines, b.payload) == ([], [], {})
        assert b.elapsed_seconds == 0.0 and b.passed

    def test_fields_equality_and_repr(self):
        trial = TrialRecord(roots=[1, 2], localization=Fraction(1), schur_form=Fraction(1))
        assert trial.equal
        assert repr(trial) == (
            "TrialRecord(roots=[1, 2], localization=Fraction(1, 1), schur_form=Fraction(1, 1))"
        )
        cell = CellReport(d=1, r=2, N=1, seed=5, trials=[trial])
        assert cell == CellReport(1, 2, 1, 5, [TrialRecord([1, 2], Fraction(1), Fraction(1))])
        assert cell != CellReport(1, 2, 1, 6, [trial])
        assert repr(SuiteReport("x", {}, 0, 0)) == (
            "SuiteReport(suite='x', parameters={}, comparisons=0, failures=0, detail_lines=[], "
            "verbose_lines=[], payload={}, elapsed_seconds=0.0)"
        )

    def test_reports_stay_mutable_and_unhashable(self):
        report = SuiteReport("x", {}, 0, 0)
        report.failures = 2
        assert not report.passed
        with pytest.raises(TypeError):
            hash(report)


# The unpatched functions, which the planted faults below wrap.  The Schur
# side of the theorem suite is the production evaluator, which looks its
# helpers up in ``pushforward``, so its faults are planted there; the
# localization fault is planted in ``oracles``.
_schur_coefficients = pushforward.schur_coefficients
_complete_homogeneous_values = pushforward.complete_homogeneous_values
_localization_pushforward = oracles.localization_pushforward


def _off_by_one_coefficient(N, d, r):
    terms = _schur_coefficients(N, d, r)
    if terms:
        lam, count = terms[0]
        terms[0] = (lam, count + 1)
    return terms


def _odd_h_flipped(roots, top):
    return [-v if k % 2 else v for k, v in enumerate(_complete_homogeneous_values(roots, top))]


def _roots_negated(N, d, roots):
    return _localization_pushforward(N, d, [-y for y in roots])


SCHUR_SIDE_FAULTS = [
    ("schur_coefficients", _off_by_one_coefficient),
    ("complete_homogeneous_values", _odd_h_flipped),
]


class TestTheoremSuiteCatchesPlantedFaults:
    """Each planted fault makes the theorem suite fail; the Schur-side ones
    also change what the ``degree`` command prints."""

    def test_unpatched_suite_passes(self):
        assert suite_theorem(max_d=2, max_r=4, trials=2).failures == 0

    @pytest.mark.parametrize(
        "name,fault", SCHUR_SIDE_FAULTS + [("localization_pushforward", _roots_negated)]
    )
    def test_fault_is_caught(self, monkeypatch, name, fault):
        monkeypatch.setattr(oracles if name == "localization_pushforward" else pushforward, name, fault)
        assert suite_theorem(max_d=2, max_r=4, trials=2).failures > 0

    @pytest.mark.parametrize("name,fault", SCHUR_SIDE_FAULTS)
    def test_schur_side_fault_changes_degree(self, monkeypatch, capsys, name, fault):
        argv = ["degree", "--d", "2", "--pm", "3", "--twists=-1,0,0,2"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        monkeypatch.setattr(pushforward, name, fault)
        assert main(argv) == 0
        assert capsys.readouterr().out != clean


# Faults in the walk over exponent vectors that the monomial table and the
# rational form share; both are looked up in ``pushforward``.
_multiset_permutations = pushforward.multiset_permutations
_denominator_table = pushforward._denominator_table


def _last_ordering_dropped(items):
    return list(_multiset_permutations(items))[:-1]


def _always_linear(denominator, top):
    return _denominator_table("linear", top)


ENUMERATOR_FAULTS = [
    ("multiset_permutations", _last_ordering_dropped),
    ("_denominator_table", _always_linear),
]


class TestRemarkSuiteCatchesPlantedFaults:
    """Each planted fault in the shared enumerator makes the remark suite fail
    and changes what a formal ``pushforward`` call prints or returns."""

    def test_unpatched_suite_passes(self):
        assert suite_remark(max_d=2, max_r=4, extra_powers=2).failures == 0

    @pytest.mark.parametrize("name,fault", ENUMERATOR_FAULTS)
    def test_fault_is_caught(self, monkeypatch, name, fault):
        monkeypatch.setattr(pushforward, name, fault)
        assert suite_remark(max_d=2, max_r=4, extra_powers=2).failures > 0

    @pytest.mark.parametrize("name,fault", ENUMERATOR_FAULTS)
    def test_fault_changes_formal_pushforward(self, monkeypatch, capsys, name, fault):
        argv = ["pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2"]
        clean = main(argv), capsys.readouterr().out
        assert clean[0] == 0
        monkeypatch.setattr(pushforward, name, fault)
        assert (main(argv), capsys.readouterr().out) != clean

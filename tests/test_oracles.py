import itertools
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluckerpush import (
    Partition,
    SplitMix64,
    box_pieri_degree,
    degree_grassmannian_classical,
    degree_grassmannian_factorial,
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

    def test_refuses_inexact_roots(self):
        for roots in ([0.5, 1, 2], [Fraction(1, 2), "3"], [1.0, 2.0]):
            with pytest.raises(TypeError, match="roots must be int or Fraction"):
                localization_pushforward(2, 1, roots)

    def test_refuses_a_power_or_size_that_is_not_an_int(self):
        localization_pushforward(2, 1, [1, 2])  # the plan of (2, 1) is now memoized
        for N, d in ((2, 1.0), (2, True), (2.0, 1), (True, 1), (2, Fraction(1))):
            with pytest.raises(TypeError, match="N, d and r must be int"):
                localization_pushforward(N, d, [1, 2])

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

    def test_subset_plan_memo_keeps_only_the_last_plan(self):
        plan = oracles._subset_plan
        plan.cache_clear()
        localization_pushforward(16, 4, list(range(8)))
        localization_pushforward(2, 1, [0, 1, 2])
        info = plan.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (1, 1, 2)
        # pairs i < j at i*r + j, then each subset with its cross pairs
        assert plan(3, 1) == ((1, 2, 5), (((0,), (1, 2)), ((1,), (3, 5)), ((2,), (6, 7))))
        assert plan.cache_info().hits == info.hits + 1
        plan(8, 4)
        assert plan.cache_info().misses == info.misses + 1
        assert plan.cache_info().currsize == 1

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
                root_sets = [gen.distinct_integers(r, -20, 20) for _ in range(3)]
                values = schur_form_at_roots(d * (r - d), d, root_sets)
                assert values == [degree_grassmannian_classical(d, r)] * 3

    def test_rank_one_quotient_values(self):
        roots = [Fraction(2), Fraction(-1), Fraction(4)]
        assert schur_form_at_roots(2, 1, [roots]) == [1]
        assert schur_form_at_roots(3, 1, [roots]) == [sum(roots)]

    def test_one_value_per_root_set_in_order(self):
        root_sets = [[0, 1, 2, 3], [5, -2, 7, 1], [Fraction(1, 2), 3, -4, 9]]
        values = schur_form_at_roots(6, 2, root_sets)
        assert values == [schur_form_at_roots(6, 2, [roots])[0] for roots in root_sets]
        assert values == [localization_pushforward(6, 2, roots) for roots in root_sets]

    def test_below_fiber_dimension_is_zero(self):
        assert schur_form_at_roots(3, 2, [[0, 1, 2, 3], [4, 5, 6, 7]]) == [0, 0]

    def test_no_root_sets_give_no_values(self):
        assert schur_form_at_roots(4, 2, []) == []

    def test_refuses_a_power_or_size_that_is_not_an_int_like_localization(self):
        # both sides of the theorem suite refuse the same inputs
        for N, d in ((True, True), (2, True), (True, 1), (2.0, 1)):
            with pytest.raises(TypeError, match="must be int"):
                schur_form_at_roots(N, d, [[1, 2]])
            with pytest.raises(TypeError, match="must be int"):
                localization_pushforward(N, d, [1, 2])

    def test_value_type_follows_the_roots(self):
        assert type(schur_form_at_roots(5, 2, [[0, 1, 2, 3]])[0]) is int
        assert type(schur_form_at_roots(3, 2, [[0, 1, 2, 3]])[0]) is int
        assert type(schur_form_at_roots(3, 1, [[Fraction(1, 2), 2]])[0]) is Fraction

    def test_rejects_too_few_roots(self):
        with pytest.raises(ValueError):
            schur_form_at_roots(2, 3, [[1, 2]])

    def test_rejects_root_sets_of_different_sizes(self):
        with pytest.raises(ValueError, match="one size"):
            schur_form_at_roots(4, 2, [[1, 2, 3], [1, 2, 3, 4]])


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
        values = gen.distinct_integers(15, -7, 7)
        assert sorted(values) == list(range(-7, 8))

    def test_distinct_draws(self):
        gen = SplitMix64(7)
        values = gen.distinct_integers(30, -20, 20)
        assert len(set(values)) == 30

    def test_distinct_draws_are_pinned(self):
        # the values and stream position that one next_u64 call per draw gives
        gen = SplitMix64(7)
        assert gen.distinct_integers(6, -60, 60) == [41, -27, 39, -49, 57, 35]
        assert gen.distinct_integers(5, -3, 3) == [2, -3, 3, -2, 0]
        assert gen.next_u64() == 15938128224054089190

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

    def test_cell_refuses_no_trials(self):
        with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
            verify_pushforward(2, 4, 5, trials=0, seed=11)

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
        assert b.passed

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
            "verbose_lines=[], payload={})"
        )

    def test_agreement_on_a_nonzero_value_below_the_fiber_dimension_fails(self):
        # both sides must vanish below d(r-d) = 4; a fault on one side alone
        # already breaks equality, so no planted suite fault reaches this check
        trial = TrialRecord([1, 2, 3, 4], Fraction(1), Fraction(1))
        assert CellReport(d=2, r=4, N=1, seed=0, trials=[trial]).failures == 1
        assert CellReport(d=2, r=4, N=4, seed=0, trials=[trial]).failures == 0

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
_syt_count_product = pushforward.syt_count_product
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


def _rectangle_one_column_wider(lam, d, r):
    return _syt_count_product(lam, d, r + 1)


_subset_plan = oracles._subset_plan


def _first_subset_missing_a_cross_pair(r, d):
    pairs, subsets = _subset_plan(r, d)
    (subset, cross), *rest = subsets
    return pairs, [(subset, cross[:-1]), *rest]


SCHUR_SIDE_FAULTS = [
    ("schur_coefficients", _off_by_one_coefficient),
    ("complete_homogeneous_values", _odd_h_flipped),
    ("syt_count_product", _rectangle_one_column_wider),
]


class TestTheoremSuiteCatchesPlantedFaults:
    """Each planted fault makes the theorem suite fail; the Schur-side ones
    also change what the ``degree`` command and the split ``pushforward`` print."""

    def test_unpatched_suite_passes(self):
        assert suite_theorem(max_d=2, max_r=4, trials=2).failures == 0

    def test_tableau_counts_are_computed_once_per_cell(self, monkeypatch):
        calls = []

        def counted(N, d, r):
            calls.append((N, d, r))
            return _schur_coefficients(N, d, r)

        monkeypatch.setattr(pushforward, "schur_coefficients", counted)
        report = suite_theorem(max_d=2, max_r=4, trials=3)
        assert report.failures == 0
        assert len(calls) == report.payload["cells"]

    @pytest.mark.parametrize(
        "name,fault",
        SCHUR_SIDE_FAULTS
        + [
            ("localization_pushforward", _roots_negated),
            ("_subset_plan", _first_subset_missing_a_cross_pair),
        ],
    )
    def test_fault_is_caught(self, monkeypatch, name, fault):
        in_oracles = name in ("localization_pushforward", "_subset_plan")
        monkeypatch.setattr(oracles if in_oracles else pushforward, name, fault)
        # a missing cross pair still divides the Vandermonde product, so the
        # suite's comparison, not the divisibility assert, catches it
        assert suite_theorem(max_d=2, max_r=4, trials=2).failures > 0

    @pytest.mark.parametrize("name,fault", SCHUR_SIDE_FAULTS)
    def test_schur_side_fault_changes_degree(self, monkeypatch, capsys, name, fault):
        # the split push-forward sums the same Schur rows, so its class line
        # moves too; w = 3 is odd, since _odd_h_flipped keeps even weights
        degree = ["degree", "--d", "2", "--pm", "3", "--twists=-1,0,0,2"]
        push = ["pushforward", "--N", "7", "--d", "2", "--r", "4", "--pm", "3", "--twists=-1,0,0,2"]

        def class_line(argv):
            assert main(argv) == 0
            return [line for line in capsys.readouterr().out.splitlines() if line.startswith("class:")]

        assert main(degree) == 0
        clean = capsys.readouterr().out
        clean_class = class_line(push)
        monkeypatch.setattr(pushforward, name, fault)
        assert main(degree) == 0
        assert capsys.readouterr().out != clean
        assert class_line(push) != clean_class


# Faults in the walk over exponent vectors that the monomial table reads,
# looked up in ``pushforward``.  A walk fault returns the (key, set mask,
# parity) triples of the real walk with one slip planted: in which vectors it
# reaches, or in the sign it gives them.  The rational form enumerates its own
# vectors, so the remark suite sees these faults through its table check.
_composition_terms = pushforward._composition_terms
_denominator_table = pushforward._denominator_table


def _walk_by_brute_force(weight, d, steps, live, inversions):
    # every composition of the weight into d parts, in lexicographic order,
    # kept when ``live`` accepts its shifted parts k_i - i; the sign's parity
    # is that of ``inversions`` of the shifted parts
    terms = []
    for k in itertools.product(range(weight + 1), repeat=d):
        shifted = [part - i for i, part in enumerate(k)]
        if sum(k) == weight and live(shifted):
            mask = 0
            for s in shifted:
                mask |= 1 << (s + d)
            terms.append((sum(steps[i][part] for i, part in enumerate(k)), mask, inversions(shifted) & 1))
    return terms


def _inversions(shifted, first=0):
    # the pairs i < j, i >= first, whose factor s_i - s_j is negative
    return sum(shifted[i] < b for i in range(first, len(shifted)) for b in shifted[i + 1 :])


def _last_vector_dropped(weight, d, steps):
    return _composition_terms(weight, d, steps)[:-1]


def _pruned_off_by_one(weight, d, steps):
    # the set test compares k_i - i with an earlier k_j - j - 1 instead of k_j - j
    def live(shifted):
        return all(shifted[i] != shifted[j] - 1 for i in range(d) for j in range(i))

    return _walk_by_brute_force(weight, d, steps, live, _inversions)


def _parity_skips_first_part(weight, d, steps):
    # the parity leaves out the factors against the part placed at depth 0
    def live(shifted):
        return len(set(shifted)) == d

    return _walk_by_brute_force(weight, d, steps, live, lambda shifted: _inversions(shifted, first=1))


WALK_FAULTS = [
    ("_composition_terms", _last_vector_dropped),
    ("_composition_terms", _parity_skips_first_part),
]
# a vector with a repeated shifted part reaches a set of no partition
PRUNING_FAULT = ("_composition_terms", _pruned_off_by_one)


# Faults in the rational form's own denominator table, looked up in
# ``pushforward``; the monomial table reads no denominator, so only the
# remark suite sees them.
def _denominator_one_late(denominator, top):
    # the term reads D(r + s) instead of D(r - 1 + s)
    return _denominator_table(denominator, top + 1)[1:]


def _always_linear(denominator, top):
    return _denominator_table("linear", top)


DENOMINATOR_FAULTS = [
    ("_denominator_table", _denominator_one_late),
    ("_denominator_table", _always_linear),
]


# Faults in the monomial table itself, each a copy of ``_monomial_table``
# with one slip, looked up in ``pushforward``, where the formal push-forward
# builds its class from the Schur-form pairs: both keep the monomials of the
# table and get their coefficients wrong.  The remark suite sees them through
# its table check, and a formal ``pushforward`` call prints them.
def _table_by_hand(N, d, r, pairs, width, slip=None):
    weight = N - d * (r - d)
    places = [(d + 1) ** v for v in range(weight + 1)]
    partition_key, counts = {}, {}
    for lam, count in pairs:
        mask = sum(1 << (part - i + d) for i, part in enumerate(lam.padded(d)))
        partition_key[mask] = sum(places[part] for part in lam.padded(d))
        counts[partition_key[mask] if slip == "memo" else mask] = count
    table = {}
    for key, mask, odd in _composition_terms(weight, d, [places] * d):
        count = counts[key if slip == "memo" else mask]
        exps = _exponents(partition_key[mask] if slip == "grouping" else key, d, width)
        table[exps] = table.get(exps, 0) + (-1) ** odd * count
    return table


def _exponents(key, d, width):
    # the production key: the sum of (d + 1)^{k_i}, digit v the exponent of
    # s_v; the digits above the weight are zero
    return tuple(key // (d + 1) ** v % (d + 1) for v in range(1, width + 1))


def _grouped_by_set(N, d, r, pairs, width):
    # each k adds its term to the partition of its set instead of to its
    # sorted k: the table holds the Schur-form counts, read as monomials
    return _table_by_hand(N, d, r, pairs, width, slip="grouping")


def _memo_keyed_by_multiset(N, d, r, pairs, width):
    # each k reads the count of the partition of its sorted parts instead of
    # that of its set
    return _table_by_hand(N, d, r, pairs, width, slip="memo")


GROUPING_FAULT = ("_monomial_table", _grouped_by_set)
MEMO_FAULT = ("_monomial_table", _memo_keyed_by_multiset)

# The ring oracle's Segre classes, looked up in ``oracles``: flipping the sign
# convention (the Segre classes of the dual bundle) negates the odd classes.
_segre_classes = oracles.segre_classes


def _odd_segre_negated(model, top):
    return [-s if k % 2 else s for k, s in enumerate(_segre_classes(model, top))]


# The rational form's table-to-class reader, as the remark suite looks it up
# in ``oracles``, with entries that name the same monomial overwriting each
# other instead of adding up.  Production builds no class through it, so the
# fault changes no ``pushforward`` output, and only the suite is asserted to
# catch it (factorial matches 18/21, no variant wins).
_class_of_table = oracles._class_of_table


def _class_of_table_overwriting(table, weight, model):
    last = {tuple(sorted((part for part in k if part), reverse=True)): (k, c) for k, c in table}
    return _class_of_table(list(last.values()), weight, model)


# The determinant the remark suite shares across ranks, looked up in
# ``oracles``: the Delta stored for the shape (1, 1) is that of (2).
_jacobi_trudi_det = oracles.jacobi_trudi_det


def _wrong_shape_for_one_lam(indices, values):
    if Partition(indices) == Partition((1, 1)):
        indices = Partition((2,)).padded(len(indices))
    return _jacobi_trudi_det(indices, values)


ORACLES_LOOKUP_FAULTS = [
    ("segre_classes", _odd_segre_negated),
    ("_class_of_table", _class_of_table_overwriting),
    ("jacobi_trudi_det", _wrong_shape_for_one_lam),
]


class TestRemarkSuiteCatchesPlantedFaults:
    """Each planted fault makes the remark suite fail; those in the walk and
    the monomial table also change what a formal ``pushforward`` call prints
    or returns."""

    def test_unpatched_suite_passes(self):
        assert suite_remark(max_d=2, max_r=4, extra_powers=2).failures == 0

    def test_determinants_are_computed_once_per_d_and_shape(self, monkeypatch):
        calls = []

        def counted(indices, values):
            calls.append((len(indices), Partition(indices)))
            return _jacobi_trudi_det(indices, values)

        monkeypatch.setattr(oracles, "jacobi_trudi_det", counted)
        report = suite_remark(max_d=3, max_r=6, extra_powers=3)
        assert report.failures == 0
        grid = [
            (d, lam)
            for d in range(1, 4)
            for r in range(d, 7)
            for N in range(d * (r - d), d * (r - d) + 4)
            for lam, _ in pushforward.schur_coefficients(N, d, r)
        ]
        assert sorted(calls) == sorted(set(grid))
        assert len(calls) < len(grid)

    def test_table_by_hand_without_a_slip_is_the_table(self):
        # the table faults differ from production by their one slip alone; a
        # base dimension above the weight pads the exponent vectors with zeros
        for d in range(1, 5):
            for r in range(d, d + 4):
                for w in range(7):
                    N = d * (r - d) + w
                    pairs = pushforward.schur_coefficients(N, d, r)
                    for width in (w, w + 1):
                        assert _table_by_hand(N, d, r, pairs, width) == pushforward._monomial_table(
                            N, d, r, pairs, width
                        )

    @pytest.mark.parametrize(
        "name,fault", WALK_FAULTS + DENOMINATOR_FAULTS + [GROUPING_FAULT, MEMO_FAULT] + ORACLES_LOOKUP_FAULTS
    )
    def test_fault_is_caught(self, monkeypatch, name, fault):
        in_oracles = (name, fault) in ORACLES_LOOKUP_FAULTS
        monkeypatch.setattr(oracles if in_oracles else pushforward, name, fault)
        assert suite_remark(max_d=2, max_r=4, extra_powers=2).failures > 0

    @pytest.mark.parametrize("name,fault", WALK_FAULTS + [GROUPING_FAULT, MEMO_FAULT])
    def test_table_fault_fails_the_table_check(self, monkeypatch, name, fault):
        # both variants still decide as before; only the table check fails
        monkeypatch.setattr(pushforward, name, fault)
        report = suite_remark(max_d=2, max_r=4, extra_powers=2)
        assert report.payload["matching_variant"] == "factorial"
        mismatches = [line for line in report.verbose_lines if line.endswith(" table: mismatch")]
        assert report.failures == len(mismatches) > 0

    def test_memo_fault_fails_two_instances(self, monkeypatch):
        # at d=2 the k=(0,2) of the set of (1,1) reads the count of (2), which
        # differs from its own once the rectangle eps is not empty, r > 2
        monkeypatch.setattr(pushforward, *MEMO_FAULT)
        report = suite_remark(max_d=2, max_r=4, extra_powers=2)
        assert report.failures == 2
        assert [line for line in report.verbose_lines if "table" in line] == [
            "d=2 r=3 N=4 table: mismatch",
            "d=2 r=4 N=6 table: mismatch",
        ]

    def test_pruning_fault_stops_the_table(self, monkeypatch):
        monkeypatch.setattr(pushforward, *PRUNING_FAULT)
        with pytest.raises(AssertionError, match=r"walk reached the set \[.*\], of no partition"):
            suite_remark(max_d=2, max_r=4, extra_powers=2)

    @pytest.mark.parametrize("name,fault", WALK_FAULTS + [PRUNING_FAULT, GROUPING_FAULT, MEMO_FAULT])
    def test_fault_changes_formal_pushforward(self, monkeypatch, capsys, name, fault):
        argv = ["pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2"]
        clean = main(argv), capsys.readouterr().out
        assert clean[0] == 0
        monkeypatch.setattr(pushforward, name, fault)
        assert (main(argv), capsys.readouterr().out) != clean

    @pytest.mark.parametrize("name,fault", DENOMINATOR_FAULTS)
    def test_denominator_fault_leaves_formal_pushforward(self, monkeypatch, capsys, name, fault):
        # the table reads counts, not denominators
        argv = ["pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2"]
        clean = main(argv), capsys.readouterr().out
        monkeypatch.setattr(pushforward, name, fault)
        assert (main(argv), capsys.readouterr().out) == clean


# The classical degree: production builds it from prime exponents, and the
# factorial quotient and the rectangle's hook count check it, on every
# d <= r <= 40 and on the large strata the benchmark draws.
CLASSICAL_GRID = [(d, r) for r in range(1, 41) for d in range(1, r + 1)] + [
    (d, r) for d in (62, 63, 64, 96, 97, 98) for r in range(2 * d, 2 * d + 3)
]


@pytest.fixture(scope="module")
def classical_oracle():
    """The factorial closed form on the grid, checked against the hook count."""
    values = {}
    for d, r in CLASSICAL_GRID:
        values[d, r] = degree_grassmannian_factorial(d, r)
        assert values[d, r] == syt_count_hook(rectangle(d, r - d)), (d, r)
    return values


def _classical_mismatches(expected):
    return [key for key, value in expected.items() if degree_grassmannian_classical(*key) != value]


_rectangle_hooks = pushforward._rectangle_hooks
_primes_upto = pushforward._primes_upto


def _largest_hook_dropped(d, r):
    hooks = _rectangle_hooks(d, r)
    hooks[r - 1] -= 1
    return hooks


def _largest_prime_dropped(n):
    return _primes_upto(n)[:-1]


def _hook_two_overcounted(d, r):
    # planted only in rectangles of at least two rows and two columns, so the
    # degrees suite first trips at d=2, r=4; for r < 3 there is no index 2
    hooks = _rectangle_hooks(d, r)
    if min(d, r - d) >= 2:
        hooks[2] += d * (r - d)
    return hooks


CLASSICAL_FAULTS = [
    ("_rectangle_hooks", _largest_hook_dropped),
    ("_primes_upto", _largest_prime_dropped),
]


class TestClassicalDegree:
    def test_production_equals_the_factorial_form_and_the_hook_count(self, classical_oracle):
        assert _classical_mismatches(classical_oracle) == []

    def test_edges(self):
        for r in range(1, 120):
            assert degree_grassmannian_classical(r, r) == 1
            assert degree_grassmannian_classical(1, r) == 1
            assert degree_grassmannian_classical(max(r - 1, 1), r) == 1
        # two rows or two columns: the Catalan numbers
        for w in range(2, 80):
            catalan = comb(2 * w, w) // (w + 1)
            assert degree_grassmannian_classical(2, w + 2) == catalan
            assert degree_grassmannian_classical(w, w + 2) == catalan

    def test_sieve(self):
        for n in range(60):
            expected = [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]
            assert _primes_upto(n) == expected

    def test_forms_no_factorial(self, monkeypatch):
        def refused(n):
            raise AssertionError(f"factorial({n}) formed")

        monkeypatch.setattr(pushforward, "factorial", refused)
        assert degree_grassmannian_classical(96, 194) == degree_grassmannian_factorial(96, 194)

    def test_unpatched_suite_passes(self):
        assert suite_degrees().failures == 0

    @pytest.mark.parametrize("name,fault", CLASSICAL_FAULTS)
    def test_fault_is_caught(self, monkeypatch, classical_oracle, name, fault):
        monkeypatch.setattr(pushforward, name, fault)
        assert suite_degrees().failures > 0
        assert _classical_mismatches(classical_oracle) != []

    def test_negative_exponent_trips_the_assert(self, monkeypatch, capsys, classical_oracle):
        monkeypatch.setattr(pushforward, "_rectangle_hooks", _hook_two_overcounted)
        message = "degree formula exponent of 2 negative for d=2, r=4"
        with pytest.raises(AssertionError, match=message):
            suite_degrees()
        with pytest.raises(AssertionError, match="exponent of 2 negative"):
            _classical_mismatches(classical_oracle)
        assert main(["degree-classical", "--d", "2", "--r", "4"]) == 3
        assert main(["verify", "--suite", "degrees"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal invariant violated: {message}\n" * 2

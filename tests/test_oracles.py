import itertools
from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import comb, factorial, perm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pluckerpush
from pluckerpush import (
    FormalBundle,
    GradedPoly,
    Partition,
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
    syt_count_product,
    verify_pushforward,
)
from pluckerpush import oracles, pushforward, schur, tableaux
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

    def test_theorem_suite_formats_trial_lines_only_when_verbose(self):
        # a report rendered without its trial lines is the same either way
        bounds = dict(max_d=2, max_r=3, extra_powers=1, trials=3, seed=1)
        full, quiet = suite_theorem(**bounds), suite_theorem(**bounds, verbose=False)
        assert len(full.verbose_lines) == full.comparisons > 0
        assert quiet.verbose_lines == []
        assert (quiet.to_text(), quiet.to_json_dict()) == (full.to_text(), full.to_json_dict())
        assert [rep.verbose_lines for rep in run_suites("theorem", verbose=False, **bounds)] == [[]]

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

    SMALL = dict(seed=4, max_d=1, max_r=2, extra_powers=0, trials=1)

    @pytest.mark.parametrize("suite", list(oracles.SUITE_OPTIONS))
    def test_each_listed_suite_runs_alone_under_its_name(self, suite):
        assert [rep.suite for rep in run_suites(suite, **self.SMALL)] == [suite]

    @pytest.mark.parametrize("suite", [*oracles.SUITE_OPTIONS, "all"])
    def test_a_keyword_no_suite_reads_is_refused_by_every_suite(self, suite):
        with pytest.raises(TypeError, match="^no suite reads trial$"):
            run_suites(suite, trial=1)

    def test_suites_are_looked_up_by_name_at_call_time(self, monkeypatch):
        # the benchmark's tracer wraps oracles.suite_<name> in place
        calls = []

        def stub(**options):
            calls.append(options)
            return SuiteReport("remark", {}, 0, 0)

        monkeypatch.setattr("pluckerpush.oracles.suite_remark", stub)
        assert [rep.suite for rep in run_suites("remark", max_r=2, trials=1)] == ["remark"]
        assert [rep.suite for rep in run_suites("all", **self.SMALL)] == list(oracles.SUITE_OPTIONS)
        assert calls == [{"max_r": 2}, {"max_d": 1, "max_r": 2, "extra_powers": 0}]


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


# Planted faults.  Each takes the function it replaces, as planted, and
# plants one slip in its result.  The Schur side of the theorem suite is the
# production evaluator, which looks its helpers up in ``pushforward``; the
# oracles look theirs up in ``oracles``, and the hook count in ``tableaux``.
def _off_by_one_coefficient(real, N, d, r):
    terms = real(N, d, r)
    if terms:
        lam, count = terms[0]
        terms[0] = (lam, count + 1)
    return terms


def _odd_h_flipped(real, roots, top):
    return [-v if k % 2 else v for k, v in enumerate(real(roots, top))]


def _rectangle_one_column_wider(real, lam, d, r, rectangle):
    return real(lam, d, r + 1, degree_grassmannian_classical(d, r + 1))


def _vandermonde_over_nonzero_rows(_, lam, d, r, rectangle):
    # the ratio over the rectangle's count with the Vandermonde row of each
    # nonzero row i taken over the nonzero rows j < len(lam) alone, so the
    # factors of the zero rows j >= len(lam) are left out; the quotient's
    # assert trips first at lam=(1), d=2, r=2, where 1 is divided by 2
    numerator = rectangle * perm(d * (r - d) + lam.weight, lam.weight)
    denominator = 1
    for i, part in enumerate(lam):
        for j in range(i + 1, len(lam)):
            numerator *= part - lam[j] + j - i
        denominator *= factorial(d - 1 - i) * perm(r - 1 - i + part, part)
    count, rem = divmod(numerator, denominator)
    assert rem == 0, f"rectangle ratio division not exact for {lam}, d={d}, r={r}"
    return count


def _rectangle_one_row_taller(real, lam, d, r):
    return real(lam, d + 1, r + 1)


def _last_partition_dropped(real, weight, max_parts):
    return real(weight, max_parts)[:-1]


def _negated_from_two_rows(real, indices, values):
    det = real(indices, values)
    return -det if len(indices) >= 2 else det


def _first_two_rows_minor_flipped(real, matrix):
    # the first two rows swapped flip the sign of each of their 2 x 2 minors,
    # which the expansion starts from; a 1 x 1 matrix has none
    return real([matrix[1], matrix[0], *matrix[2:]] if len(matrix) >= 2 else matrix)


def _roots_negated(real, N, d, roots):
    return real(N, d, [-y for y in roots])


def _first_subset_missing_a_cross_pair(real, r, d):
    # the missing pair still divides the Vandermonde product, so the suite's
    # comparison, not the divisibility assert, catches it
    pairs, subsets = real(r, d)
    (subset, cross), *rest = subsets
    return pairs, [(subset, cross[:-1]), *rest]


# Faults in the walk whose signed suffix table the monomial table reads.
# Each returns the table {key: coefficient} with one slip: in which vectors
# it reaches, in the sign it gives them, in the key or set it reports, or in
# the state it memoizes a suffix under.  A brute-force table with the slip
# stands in for the state walk.  The rational form enumerates its own
# vectors, so the remark suite sees these faults through its table check.
def _walk_by_brute_force(weight, d, places, live, inversions):
    # every composition of the weight into d parts, in lexicographic order,
    # kept when ``live`` accepts its shifted parts k_i - i, as (key, set
    # mask, parity); the parity is that of ``inversions`` of the shifted parts
    terms = []
    for k in itertools.product(range(weight + 1), repeat=d):
        shifted = [part - i for i, part in enumerate(k)]
        if sum(k) == weight and live(shifted):
            mask = 0
            for s in shifted:
                mask |= 1 << (s + d)
            terms.append((sum(places[part] for part in k), mask, inversions(shifted) & 1))
    return terms


def _summed(terms, signed):
    # the table of the terms: each adds its set's entry, with its parity
    table = {}
    for key, mask, odd in terms:
        table[key] = table.get(key, 0) + signed[mask][odd]
    return table


def _distinct(shifted):
    return len(set(shifted)) == len(shifted)


def _inversions(shifted, first=0):
    # the pairs i < j, i >= first, whose factor s_i - s_j is negative
    return sum(shifted[i] < b for i in range(first, len(shifted)) for b in shifted[i + 1 :])


def _last_vector_dropped(_, weight, d, places, signed):
    return _summed(_walk_by_brute_force(weight, d, places, _distinct, _inversions)[:-1], signed)


def _pruned_off_by_one(_, weight, d, places, signed):
    # the set test compares k_i - i with an earlier k_j - j - 1 instead of
    # k_j - j, so a vector with a repeated shifted part reaches a set of no
    # partition
    def live(shifted):
        return all(shifted[i] != shifted[j] - 1 for i in range(d) for j in range(i))

    return _summed(_walk_by_brute_force(weight, d, places, live, _inversions), signed)


def _parity_skips_first_part(_, weight, d, places, signed):
    # the parity leaves out the factors against the part placed at depth 0
    terms = _walk_by_brute_force(weight, d, places, _distinct, lambda shifted: _inversions(shifted, first=1))
    return _summed(terms, signed)


def _grouped_by_set(_, weight, d, places, signed):
    # each k adds its term to the monomial of the partition lam of its set,
    # lam_i = s_i + i over the shifted parts in decreasing order, instead of
    # to its own: the table holds the Schur-form counts, read as monomials
    terms = []
    for _, mask, odd in _walk_by_brute_force(weight, d, places, _distinct, _inversions):
        shifted = [b - d for b in range(mask.bit_length() - 1, -1, -1) if mask >> b & 1]
        terms.append((sum(places[s + i] for i, s in enumerate(shifted)), mask, odd))
    return _summed(terms, signed)


def _memo_keyed_by_multiset(_, weight, d, places, signed):
    # each k reads the count of the partition mu of its sorted parts, the
    # base-(d + 1) digits of its key, instead of that of its set
    terms = []
    for key, _, odd in _walk_by_brute_force(weight, d, places, _distinct, _inversions):
        mu = [v for v in range(weight, -1, -1) for _ in range(key // (d + 1) ** v % (d + 1))]
        terms.append((key, sum(1 << (part - i + d) for i, part in enumerate(mu)), odd))
    return _summed(terms, signed)


def _walk_by_states(weight, d, places, signed, state):
    # the suffix recursion over the shifted parts placed so far: a state
    # with two or more parts to place keeps its table under ``state(placed,
    # left)``, and the last part is what is left
    memo = {}

    def suffix(placed, left):
        i = len(placed)
        if i == d - 1:
            s = left - i
            if s in placed:
                return {}
            mask = sum(1 << (p + d) for p in (*placed, s))
            return {places[left]: signed[mask][sum(p < s for p in placed) & 1]}
        key = state(placed, left)
        if key not in memo:
            table = {}
            for v in range(left + 1):
                s = v - i
                if s not in placed:
                    sign = (-1) ** sum(p < s for p in placed)
                    for rest, count in suffix((*placed, s), left - v).items():
                        table[rest + places[v]] = table.get(rest + places[v], 0) + sign * count
            memo[key] = table
        return memo[key]

    return suffix((), weight)


def _memo_keyed_by_weight_left(_, weight, d, places, signed):
    # a state's table is kept under its depth and the weight left, not its
    # placed set: at d <= 3 the one memoized depth with more than one state
    # has its set fixed by the weight left, so the slip shows from d = 4
    return _walk_by_states(weight, d, places, signed, lambda placed, left: (len(placed), left))


# Faults in the rational form's own denominator table; the monomial table
# reads no denominator, so only the remark suite sees them.
def _denominator_one_late(real, denominator, top):
    # the term reads D(r + s) instead of D(r - 1 + s)
    return real(denominator, top + 1)[1:]


def _always_linear(real, denominator, top):
    return real("linear", top)


def _odd_segre_negated(real, model, top):
    # the Segre classes of the dual bundle: the other sign convention
    return [-s if k % 2 else s for k, s in enumerate(real(model, top))]


def _class_of_table_overwriting(real, table, weight, model, ring):
    # entries that name the same monomial overwrite each other instead of
    # adding up (factorial matches 18/21, no variant wins); production builds
    # no class through here
    last = {tuple(sorted((part for part in k if part), reverse=True)): (k, c) for k, c in table}
    return real(list(last.values()), weight, model, ring)


def _scalar_sign_flipped(real, element, scalar):
    # an exact scalar scales with its sign flipped.  The remark suite's
    # scalars are its tableau counts, all positive, so it could not see a
    # fault that dropped the sign by taking |scalar|
    if scalar.__class__ in (int, Fraction):
        scalar = -scalar
    return real(element, scalar)


def _wrong_shape_for_one_lam(real, indices, values):
    # the Delta the remark suite stores for the shape (1, 1) is that of (2)
    if Partition(indices) == Partition((1, 1)):
        indices = Partition((2,)).padded(len(indices))
    return real(indices, values)


def _largest_hook_dropped(real, d, r):
    hooks = real(d, r)
    hooks[r - 1] -= 1
    return hooks


def _largest_prime_dropped(real, n):
    return real(n)[:-1]


def _hook_two_overcounted(real, d, r):
    # planted only in rectangles of at least two rows and two columns, so the
    # degrees suite first trips at d=2, r=4; for r < 3 there is no index 2
    hooks = real(d, r)
    if min(d, r - d) >= 2:
        hooks[2] += d * (r - d)
    return hooks


def _last_factor_dropped(real, factors):
    return real(factors[:-1])


def _first_hook_doubled(real, lam):
    hooks = real(lam)
    return [2 * hooks[0], *hooks[1:]] if hooks else hooks


# A fault, where it is planted, and the suite whose ``verify`` run must exit
# with the code: 1 for a failed comparison, 3 for a tripped invariant.
Row = namedtuple("Row", "namespace name fault suite code")


def plant(monkeypatch, row):
    real = getattr(row.namespace, row.name)
    if isinstance(row.namespace, type):
        # a partial on a class binds no self; a plain function does
        def fault(self, *args):
            return row.fault(real, self, *args)
    else:
        fault = partial(row.fault, real)
    monkeypatch.setattr(row.namespace, row.name, fault)


FAULTS = [
    Row(pushforward, "schur_coefficients", _off_by_one_coefficient, "theorem", 1),
    Row(pushforward, "complete_homogeneous_values", _odd_h_flipped, "theorem", 1),
    Row(pushforward, "_count_over_rectangle", _rectangle_one_column_wider, "theorem", 1),
    Row(pushforward, "_count_over_rectangle", _vandermonde_over_nonzero_rows, "theorem", 3),
    Row(pushforward, "enumerate_partitions", _last_partition_dropped, "theorem", 1),
    Row(pushforward, "jacobi_trudi_det", _negated_from_two_rows, "theorem", 1),
    Row(schur, "det", _first_two_rows_minor_flipped, "theorem", 1),
    Row(oracles, "localization_pushforward", _roots_negated, "theorem", 1),
    Row(oracles, "_subset_plan", _first_subset_missing_a_cross_pair, "theorem", 1),
    Row(pushforward, "_suffix_table", _last_vector_dropped, "remark", 1),
    Row(pushforward, "_suffix_table", _parity_skips_first_part, "remark", 1),
    Row(pushforward, "_suffix_table", _pruned_off_by_one, "remark", 3),
    Row(pushforward, "_suffix_table", _grouped_by_set, "remark", 1),
    Row(pushforward, "_suffix_table", _memo_keyed_by_multiset, "remark", 1),
    Row(pushforward, "_suffix_table", _memo_keyed_by_weight_left, "remark-d4", 1),
    Row(pushforward, "_denominator_table", _denominator_one_late, "remark", 1),
    Row(pushforward, "_denominator_table", _always_linear, "remark", 1),
    Row(oracles, "segre_classes", _odd_segre_negated, "remark", 1),
    Row(oracles, "_class_of_table", _class_of_table_overwriting, "remark", 1),
    Row(oracles, "jacobi_trudi_det", _wrong_shape_for_one_lam, "remark", 1),
    # count * Delta_lam reaches the ring's scalar branch through __rmul__
    Row(GradedPoly, "__rmul__", _scalar_sign_flipped, "remark", 1),
    Row(pushforward, "_rectangle_hooks", _largest_hook_dropped, "degrees", 1),
    Row(pushforward, "_primes_upto", _largest_prime_dropped, "degrees", 1),
    Row(pushforward, "_rectangle_hooks", _hook_two_overcounted, "degrees", 3),
    Row(pushforward, "_balanced_product", _last_factor_dropped, "degrees", 1),
    Row(tableaux, "hook_lengths", _first_hook_doubled, "degrees", 3),
    Row(oracles, "syt_count_product", _rectangle_one_row_taller, "degrees", 1),
]
ROW = {row.fault: row for row in FAULTS}
SUITES = {
    "theorem": ["verify", "--suite", "theorem", "--max-d", "2", "--max-r", "4", "--trials", "2"],
    "remark": ["verify", "--suite", "remark", "--max-d", "2", "--max-r", "4", "--extra-N", "2"],
    # a state memo keyed by less than the placed set shows only from d = 4
    "remark-d4": ["verify", "--suite", "remark", "--max-d", "4", "--max-r", "5", "--extra-N", "2"],
    "degrees": ["verify", "--suite", "degrees"],
}


def rows_of(*faults):
    """The rows of the faults, as test parameters with ids name-fault."""
    return [pytest.param(ROW[fault], id=f"{ROW[fault].name}-{fault.__name__}") for fault in faults]


SCHUR_SIDE = (_off_by_one_coefficient, _odd_h_flipped, _rectangle_one_column_wider,
              _last_partition_dropped, _negated_from_two_rows)
WALK = (_last_vector_dropped, _parity_skips_first_part, _grouped_by_set, _memo_keyed_by_multiset)
FORMAL = FormalBundle(base_dim=2, rank=4)
# Each production callable that a row corrupts: the row's fault, and a call
# whose result the fault changes, made through the row's namespace.
COVERED = {
    "enumerate_partitions": (_last_partition_dropped, (4, 2)),
    "hook_lengths": (_first_hook_doubled, (Partition((2, 1)),)),
    "syt_count_hook": (_first_hook_doubled, (Partition((2, 1)),)),
    "syt_count_product": (_rectangle_one_row_taller, (Partition(), 2, 4)),
    "complete_homogeneous_values": (_odd_h_flipped, ([1, 2], 3)),
    "jacobi_trudi_det": (_negated_from_two_rows, ((1, 0), [1, 2, 3])),
    "segre_classes": (_odd_segre_negated, (FORMAL, 2)),
    "schur_coefficients": (_off_by_one_coefficient, (6, 2, 4)),
    "schur_form_terms": (_odd_h_flipped, (5, 2, [[0, 1, 2, 3]])),
    "pushforward_terms": (_last_vector_dropped, (6, 2, FORMAL)),
    "pushforward_plucker_power": (_last_vector_dropped, (6, 2, FORMAL)),
    "rational_form_coefficients": (_always_linear, (6, 2, 4, "factorial")),
    "pushforward_rational_form": (_always_linear, (6, 2, FORMAL, "factorial")),
    "degree_grassmannian_classical": (_largest_prime_dropped, (2, 5)),
}
# The production callables that no row corrupts, and why.
UNFAULTED = {
    # containers and parsing, which the refusal tests and stdout goldens guard;
    # the scalar product of GradedPoly, a method, has a row of its own above
    *("Partition", "parse_partition", "rectangle", "FormalBundle", "SplitBundle"),
    *("GradedRing", "GradedPoly", "ring_of"),
    # the oracle of the tableau counts
    "syt_enumerate",
    # only the tests and the bench tracer integrate over P^m
    "integrate_over_pm",
    # no suite reads the split model's degree rows; nor the SplitBundle branch
    # of pushforward_terms, which COVERED reaches by its formal branch alone
    "degree_grassmann_bundle_terms",
}


class TestPlantedFaults:
    """Each fault, planted where its row says, makes its suite's ``verify``
    run exit with the row's code."""

    @pytest.mark.parametrize("suite", SUITES)
    def test_unpatched_suite_passes(self, suite):
        assert main(SUITES[suite]) == 0

    @pytest.mark.parametrize("row", rows_of(*ROW))
    def test_fault_fails_its_suite(self, monkeypatch, row):
        plant(monkeypatch, row)
        assert main(SUITES[row.suite]) == row.code

    def test_every_production_callable_has_a_row_or_a_reason(self, monkeypatch):
        production = set()
        for name in pluckerpush.__all__:
            value = getattr(pluckerpush, name)
            if callable(value) and value.__module__ not in ("pluckerpush.oracles", "pluckerpush.rng"):
                production.add(name)
        assert COVERED.keys() | UNFAULTED == production
        assert not COVERED.keys() & UNFAULTED
        for name, (fault, args) in COVERED.items():
            row = ROW[fault]
            clean = getattr(row.namespace, name)(*args)
            with monkeypatch.context() as patch:
                plant(patch, row)
                assert getattr(row.namespace, name)(*args) != clean, name


class TestTheoremSuiteCatchesPlantedFaults:
    def test_tableau_counts_are_computed_once_per_cell(self, monkeypatch):
        calls, real = [], pushforward.schur_coefficients

        def counted(N, d, r):
            calls.append((N, d, r))
            return real(N, d, r)

        monkeypatch.setattr(pushforward, "schur_coefficients", counted)
        report = suite_theorem(max_d=2, max_r=4, trials=3)
        assert report.failures == 0
        assert len(calls) == report.payload["cells"]

    def test_localization_is_called_once_per_comparison(self, monkeypatch):
        # one call per root set: the tracer counts C(r, d) subsets a call
        calls, real = [], oracles.localization_pushforward

        def counted(N, d, roots):
            calls.append((N, d))
            return real(N, d, roots)

        monkeypatch.setattr(oracles, "localization_pushforward", counted)
        report = suite_theorem(max_d=2, max_r=4, trials=3)
        assert report.failures == 0
        assert len(calls) == report.comparisons == 3 * report.payload["cells"]

    def test_vandermonde_slip_trips_the_ratio_assert(self, monkeypatch, capsys):
        # without the zero rows' Vandermonde factors the ratio's one division
        # is inexact, first at lam=(1) over the empty rectangle d = r = 2
        plant(monkeypatch, ROW[_vandermonde_over_nonzero_rows])
        assert main(SUITES["theorem"]) == 3
        captured = capsys.readouterr()
        message = "rectangle ratio division not exact for (1), d=2, r=2"
        # pytest's assertion rewriting appends its own lines to the message
        assert captured.out == ""
        assert captured.err.startswith(f"internal invariant violated: {message}\n")

    @pytest.mark.parametrize("row", rows_of(*SCHUR_SIDE))
    def test_schur_side_fault_changes_degree(self, monkeypatch, capsys, row):
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
        plant(monkeypatch, row)
        assert main(degree) == 0
        assert capsys.readouterr().out != clean
        assert class_line(push) != clean_class


class TestRemarkSuiteCatchesPlantedFaults:
    """Faults in the walk also change what a formal ``pushforward`` call
    prints or returns; faults in the denominators do not."""

    def test_determinants_are_computed_once_per_d_and_shape(self, monkeypatch):
        calls, real = [], oracles.jacobi_trudi_det

        def counted(indices, values):
            calls.append((len(indices), Partition(indices)))
            return real(indices, values)

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

    def test_one_count_pass_per_instance(self, monkeypatch):
        # the Schur sum and the table check read the pairs of one
        # pushforward_terms call, which counts once
        calls, real = [], pushforward.schur_coefficients

        def counted(N, d, r):
            calls.append((N, d, r))
            return real(N, d, r)

        monkeypatch.setattr(pushforward, "schur_coefficients", counted)
        report = suite_remark(max_d=3, max_r=6, extra_powers=3)
        assert report.failures == 0
        assert len(calls) == len(set(calls)) == report.payload["instances"]

    def test_one_ring_per_instance(self, monkeypatch):
        # the Schur sum, the table check and both variants' classes share the
        # instance's ring; _class_of_table, in pushforward, builds none
        calls = []
        for module in (oracles, pushforward):
            def counted(model, name=module.__name__, real=module.ring_of):
                calls.append(name)
                return real(model)

            monkeypatch.setattr(module, "ring_of", counted)
        report = suite_remark(max_d=2, max_r=4, extra_powers=2)
        assert report.failures == 0
        assert calls == ["pluckerpush.oracles"] * report.payload["instances"]

    @pytest.mark.parametrize("row", rows_of(*WALK))
    def test_table_fault_fails_the_table_check(self, monkeypatch, row):
        # both variants still decide as before; only the table check fails
        plant(monkeypatch, row)
        report = suite_remark(max_d=2, max_r=4, extra_powers=2)
        assert report.payload["matching_variant"] == "factorial"
        mismatches = [line for line in report.verbose_lines if line.endswith(" table: mismatch")]
        assert report.failures == len(mismatches) > 0

    def test_memo_fault_fails_two_instances(self, monkeypatch):
        # at d=2 the k=(0,2) of the set of (1,1) reads the count of (2), which
        # differs from its own once the rectangle eps is not empty, r > 2
        plant(monkeypatch, ROW[_memo_keyed_by_multiset])
        report = suite_remark(max_d=2, max_r=4, extra_powers=2)
        assert report.failures == 2
        assert [line for line in report.verbose_lines if "table" in line] == [
            "d=2 r=3 N=4 table: mismatch",
            "d=2 r=4 N=6 table: mismatch",
        ]

    def test_state_stand_in_keyed_by_the_placed_set_is_the_walk(self):
        # the weight-left fault's stand-in differs from the walk in its memo
        # key alone: keyed by the placed set it gives the walk's table
        for d in range(1, 6):
            for r in (d, d + 2):
                for weight in range(8):
                    N = d * (r - d) + weight
                    signed = {
                        sum(1 << (part - i + d) for i, part in enumerate(lam.padded(d))): (count, -count)
                        for lam, count in pushforward.schur_coefficients(N, d, r)
                    }
                    places = [(d + 1) ** v for v in range(weight + 1)]
                    walk = pushforward._suffix_table(weight, d, places, signed)
                    by_set = _walk_by_states(weight, d, places, signed, lambda placed, _: frozenset(placed))
                    assert list(by_set.items()) == list(walk.items())

    def test_weight_left_memo_fails_one_instance_at_d_4(self, monkeypatch):
        # at d=4, r=5, w=2 two placed sets at depth 2 share the weight left
        plant(monkeypatch, ROW[_memo_keyed_by_weight_left])
        report = suite_remark(max_d=4, max_r=5, extra_powers=2)
        assert report.failures == 1
        assert [line for line in report.verbose_lines if "table" in line] == ["d=4 r=5 N=6 table: mismatch"]

    def test_pruning_fault_stops_the_table(self, monkeypatch):
        plant(monkeypatch, ROW[_pruned_off_by_one])
        with pytest.raises(AssertionError, match=r"walk reached the set \[.*\], of no partition"):
            suite_remark(max_d=2, max_r=4, extra_powers=2)

    @pytest.mark.parametrize("row", rows_of(*WALK, _pruned_off_by_one))
    def test_fault_changes_formal_pushforward(self, monkeypatch, capsys, row):
        argv = ["pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2"]
        clean = main(argv), capsys.readouterr().out
        assert clean[0] == 0
        plant(monkeypatch, row)
        assert (main(argv), capsys.readouterr().out) != clean

    @pytest.mark.parametrize("row", rows_of(_denominator_one_late, _always_linear))
    def test_denominator_fault_leaves_formal_pushforward(self, monkeypatch, capsys, row):
        # the table reads counts, not denominators
        argv = ["pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2"]
        clean = main(argv), capsys.readouterr().out
        plant(monkeypatch, row)
        assert (main(argv), capsys.readouterr().out) == clean


# The classical degree: production builds it from prime exponents, and the
# factorial quotient and the rectangle's hook count check it, on every
# d <= r <= 40 and on the large strata the benchmark draws.
CLASSICAL_GRID = [(d, r) for r in range(1, 41) for d in range(1, r + 1)] + [
    (d, r) for d in (62, 63, 64, 96, 97, 98) for r in range(2 * d, 2 * d + 3)
]


@pytest.fixture(scope="module")
def classical_oracle():
    """The product formula at the empty shape on the grid, checked against
    the hook count."""
    values = {}
    for d, r in CLASSICAL_GRID:
        values[d, r] = syt_count_product(Partition(), d, r)
        assert values[d, r] == syt_count_hook(rectangle(d, r - d)), (d, r)
    return values


def _classical_mismatches(expected):
    return [key for key, value in expected.items() if degree_grassmannian_classical(*key) != value]


class TestClassicalDegree:
    def test_production_equals_the_product_formula_and_the_hook_count(self, classical_oracle):
        assert _classical_mismatches(classical_oracle) == []
        # the bench's largest pairs, (64, 130), (97, 196) and (98, 198) among
        # them, give the primes from r exponents floor(n / p) of 6 bits
        assert max((d * (r - d) // r).bit_length() for d, r in CLASSICAL_GRID) == 6

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
            assert pushforward._primes_upto(n) == expected

    def test_forms_no_factorial(self, monkeypatch):
        def refused(n):
            raise AssertionError(f"factorial({n}) formed")

        monkeypatch.setattr(pushforward, "factorial", refused)
        assert degree_grassmannian_classical(96, 194) == syt_count_product(Partition(), 96, 194)

    def test_primes_from_r_take_exponent_n_over_p(self):
        # the shortcut of degree_grassmannian_classical: a prime p >= r divides
        # no hook and p^2 > n, so its exponent is Legendre's first term alone
        for d, r in CLASSICAL_GRID:
            n = d * (r - d)
            hooks = pushforward._rectangle_hooks(d, r)
            for p in pushforward._primes_upto(n):
                if p >= r:
                    powers = [p**k for k in range(1, n.bit_length() + 1) if p**k <= n]
                    legendre = sum(n // q for q in powers)
                    assert legendre - sum(sum(hooks[q::q]) for q in powers if q < r) == n // p, (d, r, p)

    @pytest.mark.parametrize("row", rows_of(_largest_hook_dropped, _largest_prime_dropped, _last_factor_dropped))
    def test_fault_fails_the_grid(self, monkeypatch, classical_oracle, row):
        plant(monkeypatch, row)
        assert _classical_mismatches(classical_oracle) != []

    def test_negative_exponent_trips_the_assert(self, monkeypatch, capsys, classical_oracle):
        plant(monkeypatch, ROW[_hook_two_overcounted])
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

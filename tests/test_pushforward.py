import itertools
import re
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluckerpush import (
    FormalBundle,
    Partition,
    SplitBundle,
    SplitMix64,
    complete_homogeneous_values,
    degree_grassmann_bundle_terms,
    degree_grassmannian_classical,
    enumerate_partitions,
    integrate_over_pm,
    jacobi_trudi_det,
    localization_pushforward,
    pushforward_plucker_power,
    pushforward_rational_form,
    pushforward_terms,
    rational_form_coefficients,
    rectangle,
    ring_of,
    schur_coefficients,
    schur_form_pushforward,
    schur_form_terms,
    segre_classes,
    syt_count_hook,
    syt_count_product,
)
import pluckerpush
import pluckerpush.pushforward as pushforward_module
import pluckerpush.tableaux as tableaux_module
from pluckerpush.cli import main
from pluckerpush.pushforward import _monomial_table, _suffix_table


def pushforward_schur_class(mu, d, r, segre):
    """Push a single Schur class of the quotient bundle down to the base.

    The image of Delta_mu(s(Q)) is the Jacobi-Trudi determinant on the shifted
    integer vector (mu_1 - (r-d), ..., mu_d - (r-d)); entries with negative
    subscript vanish, so shapes that do not contain the rectangle give zero.
    ``segre`` must extend to subscript mu_1 - (r-d) + d - 1.
    """
    return jacobi_trudi_det([k - (r - d) for k in mu.padded(d)], segre)


def homogeneous_degree(element):
    """The common weight of all monomials, or None if mixed or zero."""
    degs = sorted({element.ring.monomial_weight(e) for e in element.monomials})
    return degs[0] if len(degs) == 1 else None


class TestSchurClassPushforward:
    def test_rectangle_maps_to_one(self):
        for d, r in [(1, 3), (2, 4), (3, 5)]:
            model = FormalBundle(base_dim=3, rank=r)
            segre = segre_classes(model, 6)
            mu = rectangle(d, r - d)
            assert pushforward_schur_class(mu, d, r, segre) == 1

    def test_shape_not_containing_rectangle_vanishes(self):
        model = FormalBundle(base_dim=3, rank=3)
        segre = segre_classes(model, 6)
        assert pushforward_schur_class(Partition((2,)), 2, 3, segre) == 0

    def test_shifted_determinant_value(self):
        model = FormalBundle(base_dim=2, rank=3)
        segre = segre_classes(model, 5)
        ring = ring_of(model)
        image = pushforward_schur_class(Partition((3, 1)), 2, 3, segre)
        assert image == ring.generator(1)  # the degree-2 Segre class

    def test_rejects_long_partition(self):
        model = FormalBundle(base_dim=1, rank=3)
        with pytest.raises(ValueError):
            pushforward_schur_class(Partition((1, 1, 1)), 2, 3, segre_classes(model, 3))


class TestPluckerPowerPushforward:
    def test_critical_power_gives_constant_degree(self):
        model = FormalBundle(base_dim=0, rank=4)
        assert pushforward_plucker_power(4, 2, model) == 2

    def test_projective_space_top_power(self):
        model = FormalBundle(base_dim=0, rank=3)
        assert pushforward_plucker_power(2, 1, model) == 1

    def test_one_above_critical(self):
        model = FormalBundle(base_dim=1, rank=3)
        ring = ring_of(model)
        assert pushforward_plucker_power(3, 2, model) == 2 * ring.generator(0)

    def test_rank_one_quotient_reads_off_segre(self):
        for r in range(2, 6):
            model = FormalBundle(base_dim=2, rank=r)
            ring = ring_of(model)
            assert pushforward_plucker_power(r + 1, 1, model) == ring.generator(1)

    def test_coefficients_are_ints(self):
        formal = pushforward_plucker_power(9, 2, FormalBundle(base_dim=3, rank=5))
        split = pushforward_plucker_power(9, 2, SplitBundle(base_dim=3, twists=(1, -2, 0, 3, 5)))
        for image in (formal, split):
            assert image.monomials
            assert all(type(c) is int for c in image.monomials.values())

    def test_below_critical_power_is_zero(self):
        model = FormalBundle(base_dim=2, rank=4)
        for N in range(4):
            assert pushforward_plucker_power(N, 2, model) == 0

    def test_output_is_homogeneous(self):
        for d in range(1, 4):
            for r in range(d, 6):
                fiber = d * (r - d)
                for N in range(fiber, fiber + 4):
                    model = FormalBundle(base_dim=N - fiber, rank=r)
                    image = pushforward_plucker_power(N, d, model)
                    if image != 0:
                        assert homogeneous_degree(image) == N - fiber

    def test_point_value_is_classical_degree(self):
        for r in range(1, 9):
            for d in range(1, r + 1):
                model = FormalBundle(base_dim=0, rank=r)
                value = pushforward_plucker_power(d * (r - d), d, model)
                assert value == degree_grassmannian_classical(d, r)

    def test_unrestricted_shape_sum_matches(self):
        # summing tableau-count times pushed Schur class over every shape of
        # the full weight equals the restricted sum: shapes missing the
        # rectangle contribute zero determinants
        for d in range(1, 3):
            for r in range(d, 5):
                fiber = d * (r - d)
                for N in range(fiber + 3):
                    model = FormalBundle(base_dim=max(N - fiber, 0), rank=r)
                    ring = ring_of(model)
                    segre = segre_classes(model, N + d)
                    total = ring.zero()
                    for mu in enumerate_partitions(N, d):
                        total = total + syt_count_hook(mu) * pushforward_schur_class(
                            mu, d, r, segre
                        )
                    assert total == pushforward_plucker_power(N, d, model)

    def test_rejects_d_above_r(self):
        with pytest.raises(ValueError):
            pushforward_plucker_power(4, 3, FormalBundle(base_dim=1, rank=2))


def partition_masks(weight, d):
    """The set mask of each partition lam of the weight with at most d parts:
    each shifted part s_i = lam_i - i at bit s_i + d."""
    return [sum(1 << (part - i + d) for i, part in enumerate(lam.padded(d))) for lam in enumerate_partitions(weight, d)]


def shifted_set(mask, d):
    """The shifted parts of a set mask, in decreasing order."""
    return tuple(b - d for b in reversed(range(mask.bit_length())) if mask >> b & 1)


def state_sums(weight, d):
    """The state table read one set at a time: {(digits of the key, shifted
    set): signed number of its vectors}, nonzero entries only.  Digit v of a
    key counts the parts k_i = v.  Each set is walked with count 1 and every
    other with 0, so the entries hold the signs alone."""
    base = d + 1
    places = [base**v for v in range(weight + 1)]
    masks = partition_masks(weight, d)
    out = {}
    for one in masks:
        signed = dict.fromkeys(masks, (0, 0))
        signed[one] = (1, -1)
        for key, count in _suffix_table(weight, d, places, signed).items():
            if count:
                out[tuple(key // base**v % base for v in range(weight + 1)), shifted_set(one, d)] = count
    return out


def brute_sums(vectors, weight):
    """What ``state_sums`` reads, from a list of live vectors k: each adds the
    sign of its difference product, the parity of its inversions."""
    out = {}
    for k in vectors:
        shifted = [part - i for i, part in enumerate(k)]
        inversions = sum(a < b for i, a in enumerate(shifted) for b in shifted[i + 1 :])
        entry = tuple(k.count(v) for v in range(weight + 1)), tuple(sorted(shifted, reverse=True))
        out[entry] = out.get(entry, 0) + (-1) ** inversions
    return {entry: count for entry, count in out.items() if count}


def live_vectors(weight, d, head=()):
    """The compositions of the weight into d parts whose shifted parts
    k_i - i are pairwise distinct, in lexicographic order."""
    i = len(head)
    placed = {part - j for j, part in enumerate(head)}
    if i == d - 1:
        return [] if weight - i in placed else [(*head, weight)]
    out = []
    for v in range(weight + 1):
        if v - i not in placed:
            out += live_vectors(weight - v, d, (*head, v))
    return out


class CountedReads(dict):
    """A dict that counts the entries read through subscription."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestSuffixTable:
    def test_examples(self):
        # d=3, w=2: of the compositions of 2 into 3 parts only these are live
        # k=(0,2,0): shifted (0,1,-2), difference (-1)(2)(3), negative
        # k=(1,1,0): shifted (1,0,-2), the same set, difference (1)(3)(2)
        # k=(2,0,0): shifted (2,-1,-2), difference (3)(4)(1), and the
        # monomial of k=(0,2,0)
        assert state_sums(2, 3) == {
            ((2, 0, 1), (1, 0, -2)): -1,
            ((1, 2, 0), (1, 0, -2)): 1,
            ((2, 0, 1), (2, -1, -2)): 1,
        }
        assert state_sums(2, 2) == {((1, 0, 1), (1, 0)): -1, ((0, 2, 0), (1, 0)): 1, ((1, 0, 1), (2, -1)): 1}
        assert state_sums(3, 1) == {((0, 0, 0, 1), (3,)): 1}
        assert state_sums(0, 2) == {((2,), (0, -1)): 1}
        # the key sums places[k_i]; the keys come in the order their first
        # vectors take, (0,2) and (2,0) at 10, (1,1) at 6, and each adds its
        # set's entry with its sign: -1 + 100 at 10
        table = _suffix_table(2, 2, [1, 3, 9], {0b1100: (1, -1), 0b10010: (100, -100)})
        assert list(table.items()) == [(10, 99), (6, 1)]

    # no deadline: the d=6, w=6 examples use much of the default 200 ms, more under a tracer
    @settings(deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 3),
        st.integers(0, 6),
        st.sampled_from(["linear", "factorial"]),
    )
    def test_matches_filtered_compositions(self, d, extra_rank, weight, variant):
        # oracle: every vector of d parts in 0..w, in lexicographic order, kept
        # when its parts sum to w and its shifted parts k_i - i are pairwise
        # distinct, with both products recomputed from the whole vector; the
        # state table gives each (monomial, set) the signed number of its
        # vectors, and the rational form each term, or the ZeroDivisionError
        # of the first vector whose denominator vanishes
        r = d + extra_rank
        N = d * (r - d) + weight
        D = factorial if variant == "factorial" else (lambda t: t)
        vectors, terms = [], []
        for k in itertools.product(range(weight + 1), repeat=d):
            shifted = [part - i for i, part in enumerate(k)]
            if sum(k) == weight and len(set(shifted)) == d:
                difference = prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1 :])
                denominator = prod(D(r + s - 1) for s in shifted)
                vectors.append(k)
                terms.append((k, factorial(N) * difference, denominator))
        assert state_sums(weight, d) == brute_sums(vectors, weight)
        vanishing = [k for k, _, denominator in terms if denominator == 0]
        if vanishing:
            message = f"{variant} denominator vanishes at k={vanishing[0]} for d={d}, r={r}"
            with pytest.raises(ZeroDivisionError, match=re.escape(message)):
                rational_form_coefficients(N, d, r, variant)
        else:
            expected = [(k, Fraction(numerator, denominator)) for k, numerator, denominator in terms]
            assert rational_form_coefficients(N, d, r, variant) == expected

    def test_sign_is_the_parity_of_inversions(self):
        for d in range(1, 7):
            for weight in range(9):
                assert state_sums(weight, d) == brute_sums(live_vectors(weight, d), weight)

    def test_sets_are_the_partitions(self):
        # the sets reached are those of the partitions lam of w with at most
        # d parts, s_i = lam_i - i: with their entries the walk reads no
        # other, and with any one left out it stops at that one
        for d in range(1, 7):
            for weight in range(9):
                masks = partition_masks(weight, d)
                places = [(d + 1) ** v for v in range(weight + 1)]
                _suffix_table(weight, d, places, dict.fromkeys(masks, (1, -1)))
                for mask in masks:
                    with pytest.raises(KeyError) as missing:
                        _suffix_table(weight, d, places, dict.fromkeys(set(masks) - {mask}, (1, -1)))
                    assert missing.value.args == (mask,)

    def test_magnitude_is_the_tableau_count(self):
        # the term of the set at its one k with decreasing shifted parts,
        # N! * prod_{a > b} (a - b) over prod_s (r - 1 + s)!, is f(lam + eps)
        for d in range(1, 6):
            for r in range(d, d + 4):
                for weight in range(7):
                    N = d * (r - d) + weight
                    for mask in partition_masks(weight, d):
                        shifted = shifted_set(mask, d)
                        numerator = factorial(N) * prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1 :])
                        denominator = prod(factorial(r - 1 + s) for s in shifted)
                        lam = Partition(s + i for i, s in enumerate(shifted))
                        assert numerator == syt_count_product(lam, d, r) * denominator

    @pytest.mark.parametrize(
        "d,weight,vectors,sets,reads", [(8, 16, 18185, 186, 682), (6, 20, 15363, 282, 1828)]
    )
    def test_counts_are_pinned(self, d, weight, vectors, sets, reads):
        # each state is walked once, so the sets' entries are read once per
        # state and last free part, far fewer times than there are vectors;
        # the table has one key per set, the monomial of its partition
        masks = partition_masks(weight, d)
        signed = CountedReads.fromkeys(masks, (1, -1))
        table = _suffix_table(weight, d, [(d + 1) ** v for v in range(weight + 1)], signed)
        assert len(live_vectors(weight, d)) == vectors
        assert len(table) == len(masks) == sets == len(enumerate_partitions(weight, d))
        assert signed.reads == reads < vectors


class TestMonomialTable:
    def test_example(self):
        # d=2, r=3, N=4 over a surface: the class s2 + 2*s1^2 of the README,
        # keyed by the exponent vectors of s1, s2
        assert _monomial_table(4, 2, 3, schur_coefficients(4, 2, 3), 2) == {(0, 1): 1, (2, 0): 2}
        # d=4, r=5, w=6: one monomial per partition of 6 with at most 4 parts
        table = [
            ((6,), -41), ((5, 1), 74), ((4, 2), 84), ((4, 1, 1), -81), ((3, 3), 42),
            ((3, 2, 1), -252), ((3, 1, 1, 1), 48), ((2, 2, 2), -42), ((2, 2, 1, 1), 252),
        ]
        expected = {tuple(mu.count(v) for v in range(1, 7)): c for mu, c in table}
        assert _monomial_table(10, 4, 5, schur_coefficients(10, 4, 5), 6) == expected
        assert pushforward_plucker_power(10, 4, FormalBundle(base_dim=6, rank=5)).monomials == expected
        model = FormalBundle(base_dim=2, rank=3)
        assert str(pushforward_plucker_power(4, 2, model)) == "s2 + 2*s1^2"

    @pytest.mark.parametrize(
        "d,r,weight",
        [(d, r, w) for d in range(1, 7) for r in range(d, d + 5) for w in range(9)] + [(6, 12, 12)],
    )
    def test_equals_the_signed_composition_sum(self, d, r, weight):
        # oracle: each live vector k of the composition sum adds its term,
        # N! * prod_{i<j} (s_i - s_j) over prod_i (r - 1 + s_i)!, to its
        # monomial; keys, values, zero entries and key order must agree
        N = d * (r - d) + weight
        width = weight + 1
        expected = {}
        for k in live_vectors(weight, d):
            shifted = [part - i for i, part in enumerate(k)]
            difference = prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1 :])
            term = Fraction(factorial(N) * difference, prod(factorial(r - 1 + s) for s in shifted))
            exps = tuple(k.count(v) for v in range(1, width + 1))
            expected[exps] = expected.get(exps, 0) + term
        table = _monomial_table(N, d, r, schur_coefficients(N, d, r), width)
        assert list(table.items()) == list(expected.items())
        assert all(type(c) is int for c in table.values())

    def test_cancelled_monomial_stays_in(self):
        # N=28, d=5, r=9 over an eightfold: the terms of s1^4 s4 cancel
        table = _monomial_table(28, 5, 9, schur_coefficients(28, 5, 9), 8)
        assert table[4, 0, 0, 1, 0, 0, 0, 0] == 0

    def test_one_count_per_partition(self, monkeypatch):
        # d=4, r=5, w=6: 9 counts, one per partition of 6 with at most 4 parts
        shapes = []
        count_over_rectangle = pushforward_module._count_over_rectangle

        def counted(lam, d, r, rectangle):
            shapes.append(lam)
            return count_over_rectangle(lam, d, r, rectangle)

        monkeypatch.setattr(pushforward_module, "_count_over_rectangle", counted)
        assert len(pushforward_plucker_power(10, 4, FormalBundle(base_dim=6, rank=5)).monomials) == 9
        assert shapes == enumerate_partitions(6, 4)

    def test_exponent_vectors_are_the_partitions_of_the_weight(self):
        # the table reads each vector off the digits of its walk key: one
        # vector per partition of w with at most d parts, padded to the width
        for d in range(1, 6):
            for r in range(d, d + 3):
                for w in range(9):
                    N = d * (r - d) + w
                    for width in (w, w + 2):
                        table = _monomial_table(N, d, r, schur_coefficients(N, d, r), width)
                        expected = {
                            tuple(tuple(mu).count(v) for v in range(1, width + 1))
                            for mu in enumerate_partitions(w, d)
                        }
                        assert set(table) == expected
                        assert all(type(e) is int for exps in table for e in exps)

    def test_inexact_division_names_the_partition(self, monkeypatch, capsys):
        # the table divides nothing: the counts it reads come from
        # _count_over_rectangle, whose own assert stops a denominator with a
        # factorial one too large at the first partition, lam=(2)
        monkeypatch.setattr(pushforward_module, "factorial", lambda n: factorial(n) + 1)
        message = "rectangle ratio division not exact for (2), d=2, r=4"
        with pytest.raises(AssertionError, match=re.escape(message)):
            pushforward_plucker_power(6, 2, FormalBundle(base_dim=2, rank=4))
        assert main(["pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"internal invariant violated: {message}\n")

    def test_set_of_no_partition_is_named(self, monkeypatch, capsys):
        # a walk that reads the set {1} at d=2, a repeated shifted part, is
        # an internal fault: the table names the set and the command exits 3
        walk = _suffix_table

        def stray(weight, d, places, signed):
            return {**walk(weight, d, places, signed), 0: signed[1 << 3][0]}

        monkeypatch.setattr(pushforward_module, "_suffix_table", stray)
        message = "walk reached the set [1], of no partition, for d=2, r=4"
        with pytest.raises(AssertionError, match=re.escape(message)):
            pushforward_plucker_power(6, 2, FormalBundle(base_dim=2, rank=4))
        assert main(["pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"internal invariant violated: {message}\n")

    def test_empty_below_fiber_dimension(self):
        assert pushforward_plucker_power(3, 2, FormalBundle(base_dim=2, rank=4)) == 0
        assert schur_coefficients(3, 2, 4) == []

    def test_schur_coefficients_are_shifted_tableau_counts(self, capsys):
        # the rectangle's count times the ratio over the nonzero rows is the
        # product formula: with l(lam) = d, with r = d, where the rectangle is
        # empty, and at d = 60, where all but at most three rows are zero
        grid = [(d, r, w) for d in range(1, 7) for r in sorted({d, d + 1, 2 * d + 2}) for w in range(9)]
        grid += [(60, r, w) for r in (60, 61, 62) for w in range(4)]
        for d, r, w in grid:
            pairs = schur_coefficients(d * (r - d) + w, d, r)
            assert [lam for lam, _ in pairs] == enumerate_partitions(w, d)
            assert all(c == syt_count_product(lam, d, r) for lam, c in pairs), (d, r, w)
        # the empty shape over the empty 400-row rectangle: its one count is
        # the classical degree, with no Vandermonde product over the rows
        assert main(["pushforward", "--N", "0", "--d", "400", "--r", "400", "--base-dim", "0"]) == 0
        assert capsys.readouterr().out == "schur form: Delta()\nclass: 1\n"

    def test_empty_shape_reads_the_classical_degree_alone(self, monkeypatch):
        # at lam = 0 the count is the classical degree times an empty ratio:
        # no factorial is formed, where the product formula forms d + 1
        def refused(n):
            raise AssertionError(f"factorial({n}) formed")

        monkeypatch.setattr(pushforward_module, "factorial", refused)
        monkeypatch.setattr(tableaux_module, "factorial", refused)
        for d, r in ((400, 400), (400, 401), (400, 402), (60, 120)):
            expected = [(Partition(), degree_grassmannian_classical(d, r))]
            assert schur_coefficients(d * (r - d), d, r) == expected

    def test_no_engine_module_reads_the_product_formula(self):
        # the product formula is the counts' oracle and the syt command's;
        # every module of the engine, the push-forward first, does without it
        engine = ("partitions", "records", "schur", "chowring", "pushforward", "rng")
        for name in engine:
            module = getattr(pluckerpush, name)
            assert not {"syt_count_product", "tableaux"} & set(vars(module)), name

    def test_formal_grid_matches_jacobi_trudi_oracle(self):
        # the base dimension runs one below, at and one above the output degree
        for d in range(1, 7):
            for r in sorted({d, d + 1, 2 * d + 1}):
                for w in range(0, 13, 1 if d <= 3 else 3):
                    N = d * (r - d) + w
                    for base_dim in sorted({max(w - 1, 0), w, w + 1}):
                        model = FormalBundle(base_dim=base_dim, rank=r)
                        table = pushforward_plucker_power(N, d, model)
                        oracle = schur_form_pushforward(N, d, model)
                        assert table == oracle
                        assert str(table) == str(oracle)

    def test_formal_class_at_roots_matches_localization(self):
        # an oracle that shares no code with the table: substitute s_i -> h_i(y)
        # into the formal class at seeded distinct integer roots y; with the
        # base dimension at the output degree nothing is truncated, so the
        # value is the Gysin localization sum over the same roots
        gen = SplitMix64(2015)
        for d in range(1, 4):
            for r in range(d, 7):
                for w in range(6):
                    N = d * (r - d) + w
                    image = pushforward_plucker_power(N, d, FormalBundle(base_dim=w, rank=r))
                    for _ in range(2):
                        roots = gen.distinct_integers(r, -3 * r, 3 * r)
                        h = complete_homogeneous_values(roots, w)
                        value = sum(
                            coeff * prod(h[i + 1] ** e for i, e in enumerate(exps))
                            for exps, coeff in image.monomials.items()
                        )
                        assert value == localization_pushforward(N, d, roots)

    def test_terms_are_the_pairs_and_the_class(self):
        # one entry, one count pass: the pairs of schur_coefficients and a
        # table that, less its zeros, holds the monomials of
        # pushforward_plucker_power, on both models, with the base dimension
        # below, at and above the output degree
        for d in range(1, 4):
            for r in range(d, 6):
                twists = tuple(range(-1, r - 1))
                for w in range(-1, 5):
                    N = d * (r - d) + w
                    if N < 0:
                        continue
                    for base_dim in sorted({max(w - 1, 0), max(w, 0), w + 1}):
                        for model in (
                            FormalBundle(base_dim=base_dim, rank=r),
                            SplitBundle(base_dim=base_dim, twists=twists),
                        ):
                            pairs, table = pushforward_terms(N, d, model)
                            assert pairs == schur_coefficients(N, d, r)
                            nonzero = {exps: c for exps, c in table.items() if c}
                            assert nonzero == pushforward_plucker_power(N, d, model).monomials

    def test_split_grid_matches_jacobi_trudi_oracle(self):
        for twists in [(0, -1), (2, -3, 1), (-2, -1, 0, 3), (1, -4, 2, -1, 3)]:
            r = len(twists)
            for d in range(1, r + 1):
                for w in range(6):
                    N = d * (r - d) + w
                    for m in sorted({max(w - 1, 0), w, w + 2}):
                        model = SplitBundle(base_dim=m, twists=twists)
                        table = pushforward_plucker_power(N, d, model)
                        oracle = schur_form_pushforward(N, d, model)
                        assert table == oracle
                        assert str(table) == str(oracle)


# Twists with repeats, zeros and negatives, ranks 1 to 5.
DEGREE_TWISTS = [
    (0,), (-3,), (0, 0), (2, -1), (-2, -2), (1, 1, 1), (0, -1, 2), (-3, 0, 0),
    (-1, 0, 0, 2), (2, 2, -1, -1), (0, 0, 0, 0), (1, -4, 2, -1, 3), (0, 0, 1, 1, -2),
]


def _degree(d, model):
    return sum(count * integral for _, count, integral in degree_grassmann_bundle_terms(d, model))


def _degree_grid():
    for twists in DEGREE_TWISTS:
        for d in range(1, len(twists) + 1):
            for m in range(9):
                yield d, SplitBundle(base_dim=m, twists=twists)


class TestDegrees:
    def test_scroll_degree(self):
        assert _degree(1, SplitBundle(base_dim=1, twists=(1, 2))) == 3

    def test_rank_three_example(self):
        assert _degree(2, SplitBundle(base_dim=1, twists=(1, 1, 1))) == 6

    def test_point_base_reduces_to_grassmannian(self):
        assert _degree(1, SplitBundle(base_dim=0, twists=(0, 0))) == 1
        assert _degree(2, SplitBundle(base_dim=0, twists=(0, 0, 0, 0))) == 2

    def test_terms_match_graded_ring_reference(self):
        # reference: each Delta_lam a Jacobi-Trudi determinant of Segre classes
        # in the truncated ring of P^m, read off at h^m
        for d, model in _degree_grid():
            m = model.base_dim
            rows = degree_grassmann_bundle_terms(d, model)
            assert [lam for lam, _, _ in rows] == enumerate_partitions(m, d)
            segre = segre_classes(model, m + d)
            for lam, _, integral in rows:
                assert type(integral) is int
                assert integral == integrate_over_pm(jacobi_trudi_det(lam.padded(d), segre), m)

    def test_terms_table_sums_to_degree(self):
        # reference: the factorial rational form read at the twists, a walk
        # over the exponent vectors; the Schur rows that the degree and the
        # split push-forward both sum share only h_k(twists) and the partition
        # enumeration with it.  The last reference is at w = m, the degree.
        for d, model in _degree_grid():
            r, m = model.rank, model.base_dim
            for w in range(m + 1):
                N = d * (r - d) + w
                push = pushforward_plucker_power(N, d, model)
                reference = pushforward_rational_form(N, d, model, "factorial")
                assert push == reference
                assert set(push.monomials) <= {(w,)}
            assert _degree(d, model) == integrate_over_pm(reference, m)

    def test_classical_examples(self):
        assert degree_grassmannian_classical(2, 4) == 2
        assert degree_grassmannian_classical(2, 5) == 5
        assert degree_grassmannian_classical(3, 6) == 42
        for r in range(1, 10):
            assert degree_grassmannian_classical(1, r) == 1

    def test_classical_refuses_sizes_that_are_not_ints(self):
        for d, r in ((True, 2), (1, True), (2.0, 4), (2, Fraction(4))):
            with pytest.raises(TypeError, match="d and r must be int"):
                degree_grassmannian_classical(d, r)

    def test_classical_rejects_bad_input(self):
        with pytest.raises(ValueError):
            degree_grassmannian_classical(3, 2)
        with pytest.raises(ValueError):
            degree_grassmannian_classical(0, 2)


class TestSizesMustBeInts:
    # a bool is not an int: True used to pass as 1 and answer
    @pytest.mark.parametrize(
        "call",
        [
            lambda: schur_coefficients(True, 1, 2),
            lambda: schur_coefficients(2, True, 2),
            lambda: pushforward_terms(3, True, FormalBundle(base_dim=1, rank=2)),
            lambda: pushforward_terms(3.0, 1, FormalBundle(base_dim=1, rank=2)),
            lambda: pushforward_plucker_power(True, 1, FormalBundle(base_dim=1, rank=1)),
            lambda: rational_form_coefficients(1, True, 1, "factorial"),
            lambda: rational_form_coefficients(Fraction(2), 1, 2, "linear"),
            lambda: schur_form_terms(True, True, [[1, 2]]),
            lambda: pushforward_rational_form(True, 1, FormalBundle(base_dim=1, rank=2), "factorial"),
        ],
    )
    def test_power_and_sizes_are_refused(self, call):
        with pytest.raises(TypeError, match="N, d and r must be int"):
            call()

    def test_product_formula_refuses_sizes_that_are_not_ints(self):
        for d, r in ((True, 2), (1, 2.0)):
            with pytest.raises(TypeError, match="d and r must be int"):
                syt_count_product(Partition((1,)), d, r)


class TestRationalForm:
    def test_single_row_coefficients_are_one(self):
        # with a rank-1 quotient the factorial variant reduces to plain Segre classes
        for r in range(1, 6):
            for N in range(r - 1, r + 4):
                coeffs = rational_form_coefficients(N, 1, r, "factorial")
                assert coeffs == [((N - r + 1,), Fraction(1))]

    def test_factorial_variant_matches_schur_form(self):
        for d in range(1, 4):
            for r in range(d, 6):
                fiber = d * (r - d)
                for N in range(fiber, fiber + 3):
                    model = FormalBundle(base_dim=N - fiber, rank=r)
                    assert pushforward_rational_form(
                        N, d, model, "factorial"
                    ) == pushforward_plucker_power(N, d, model)

    def test_linear_variant_differs(self):
        model = FormalBundle(base_dim=2, rank=3)
        expected = pushforward_plucker_power(4, 2, model)
        assert pushforward_rational_form(4, 2, model, "linear") != expected

    def test_vectors_come_in_lexicographic_order(self):
        # d=3, r=4, w=3: the live compositions of 3 into 3 parts
        vectors = [k for k, _ in rational_form_coefficients(6, 3, 4, "factorial")]
        assert vectors == [(0, 0, 3), (0, 2, 1), (0, 3, 0), (1, 0, 2), (1, 1, 1), (2, 1, 0), (3, 0, 0)]

    def test_reads_no_walk(self, monkeypatch):
        # the rational form enumerates its own vectors: with the table's walk
        # refused, both variants give what they gave before
        def refused(weight, d, places, signed):
            raise AssertionError("the walk was reached")

        clean = {(N, v): rational_form_coefficients(N, 3, 4, v) for N in (6, 7) for v in ("linear", "factorial")}
        monkeypatch.setattr(pushforward_module, "_suffix_table", refused)
        for (N, v), coefficients in clean.items():
            assert rational_form_coefficients(N, 3, 4, v) == coefficients

    def test_linear_variant_can_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rational_form_coefficients(0, 1, 1, "linear")

    @pytest.mark.parametrize(
        "N,d,r,k", [(3, 3, 3, "(0, 3, 0)"), (2, 2, 2, "(2, 0)")]
    )
    def test_zero_division_names_the_first_vanishing_k(self, N, d, r, k):
        message = f"linear denominator vanishes at k={k} for d={d}, r={r}"
        with pytest.raises(ZeroDivisionError) as caught:
            rational_form_coefficients(N, d, r, "linear")
        assert str(caught.value) == message

    def test_rejects_power_below_fiber_dimension(self):
        with pytest.raises(ValueError):
            rational_form_coefficients(3, 2, 4, "factorial")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            rational_form_coefficients(4, 2, 4, "quadratic")

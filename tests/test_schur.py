from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluckerpush import (
    GradedPoly,
    GradedRing,
    Partition,
    complete_homogeneous_values,
    enumerate_partitions,
    jacobi_trudi_det,
    pieri_walk,
    schur_form_terms,
    syt_count_hook,
)
from pluckerpush.schur import det


def field_det(matrix):
    """Independent oracle: Gaussian elimination over the rationals."""
    m = [row[:] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] * inv
            for j in range(col, n):
                m[i][j] -= factor * m[col][j]
    return result


def leibniz_det(matrix, one):
    """Independent oracle: the signed sum over permutations, division-free."""
    total = one - one
    for sigma in permutations(range(len(matrix))):
        term = one
        for i, j in enumerate(sigma):
            term = term * matrix[i][j]
        inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1 :])
        total = total - term if inversions & 1 else total + term
    return total


#: a, b of weight 1 truncated above weight 2: a^3 = a^2 b = 0, zero divisors
TRUNCATED = GradedRing(names=("a", "b"), weights=(1, 1), top_degree=2)


@st.composite
def truncated_elements(draw):
    monomials = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        monomials[exps] = draw(st.integers(-3, 3))
    return GradedPoly(TRUNCATED, monomials)


def bialternant(lam: Partition, roots: list[Fraction]) -> Fraction:
    """Independent oracle: ratio of alternants over distinct roots."""
    d = len(roots)
    rows = enumerate(lam.padded(d))
    numerator = field_det([[y ** (k + d - 1 - i) for y in roots] for i, k in rows])
    denominator = field_det([[y ** (d - 1 - i) for y in roots] for i in range(d)])
    return numerator / denominator


class TestPieri:
    def test_examples(self):
        assert pieri_walk(0, 2, 2) == {(): 1}
        assert pieri_walk(1, 2, 1) == {(1,): 1}
        assert pieri_walk(2, 2, 2) == {(2,): 1, (1, 1): 1}
        assert pieri_walk(2, 1, 2) == {(2,): 1}
        # the width truncates: no row may pass it
        assert pieri_walk(2, 2, 1) == {(1, 1): 1}
        assert pieri_walk(3, 2, 2) == {(2, 1): 2}

    def test_weight_increases_by_one(self):
        for steps in range(8):
            assert {sum(shape) for shape in pieri_walk(steps, 3, steps)} == {steps}


class TestPowerExpansion:
    def test_examples(self):
        assert pieri_walk(0, 3, 0) == {(): 1}
        assert pieri_walk(2, 2, 2) == {Partition((2,)): 1, Partition((1, 1)): 1}
        assert pieri_walk(3, 2, 3) == {Partition((3,)): 1, Partition((2, 1)): 2}
        assert pieri_walk(4, 2, 4) == {
            Partition((4,)): 1,
            Partition((3, 1)): 3,
            Partition((2, 2)): 2,
        }

    def test_coefficients_are_tableau_counts(self):
        for d in range(1, 5):
            for power in range(11):
                expected = {lam: syt_count_hook(lam) for lam in enumerate_partitions(power, d)}
                assert pieri_walk(power, d, power) == expected

    def test_principal_specialization(self):
        # evaluating every Schur term at d equal values must reproduce d^power
        for d in range(1, 5):
            for power in range(11):
                h = [Fraction(comb(k + d - 1, k)) for k in range(power + 1)]
                total = sum(
                    count * jacobi_trudi_det(shape, h)
                    for shape, count in pieri_walk(power, d, power).items()
                )
                assert total == d**power


class TestJacobiTrudi:
    def test_empty_shape_gives_identity(self):
        h = [Fraction(1), Fraction(7)]
        assert jacobi_trudi_det(Partition().padded(0), h) == 1

    def test_single_and_double_row_formulas(self):
        h = [Fraction(1), Fraction(5), Fraction(7), Fraction(11)]
        assert jacobi_trudi_det(Partition((2,)).padded(1), h) == h[2]
        assert jacobi_trudi_det(Partition((1, 1)).padded(2), h) == h[1] * h[1] - h[2] * h[0]

    def test_negative_index_rows_vanish(self):
        h = [Fraction(1), Fraction(5), Fraction(7), Fraction(11)]
        assert jacobi_trudi_det([1, -1], h) == 0

    def test_out_of_range_indices_are_zero(self):
        # only a negative index reads as zero; a list too short is refused,
        # since a missing value is not known to vanish
        h = [Fraction(1), Fraction(5)]
        assert jacobi_trudi_det([-1], h) == 0
        with pytest.raises(ValueError, match="need values h_0..h_3, got 2"):
            jacobi_trudi_det([3], h)
        with pytest.raises(ValueError, match="need values h_0..h_2, got 2"):
            jacobi_trudi_det([1, 1], h)
        # the largest subscript is the largest k_i + n - 1 - i: here h_1
        assert jacobi_trudi_det([0, 1], h) == 0
        with pytest.raises(ValueError, match="need values h_0..h_3, got 2"):
            jacobi_trudi_det([0, 3], h)

    def test_padding_does_not_change_value(self):
        # indices reach lam_1 + size - 1 <= 7, so h runs to h_7
        h = [Fraction(v) for v in (1, 2, 3, 5, 8, 13, 21, 34)]
        for n in range(5):
            for lam in enumerate_partitions(n, 3):
                base = jacobi_trudi_det(lam.padded(len(lam)), h)
                for size in range(len(lam), 5):
                    assert jacobi_trudi_det(lam.padded(size), h) == base

    def test_size_below_length_rejected(self):
        with pytest.raises(ValueError, match=r"partition \(1,1\) has more than 1 parts"):
            Partition((1, 1)).padded(1)

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True),
        st.integers(0, 6),
    )
    def test_matches_bialternant_at_random_roots(self, ints, weight):
        roots = [Fraction(v) for v in ints]
        d = len(roots)
        h = complete_homogeneous_values(roots, weight + d)
        for lam in enumerate_partitions(weight, d):
            assert jacobi_trudi_det(lam.padded(d), h) == bialternant(lam, roots)


class TestDeterminants:
    @settings(max_examples=40)
    @given(st.integers(1, 5), st.data())
    def test_small_det_matches_field_elimination(self, n, data):
        matrix = [
            [Fraction(data.draw(st.integers(-6, 6))) for _ in range(n)] for _ in range(n)
        ]
        assert det(matrix) == field_det(matrix)

    @settings(max_examples=30)
    @given(st.integers(1, 8), st.data())
    def test_subset_expansion_matches_field_elimination(self, n, data):
        matrix = [
            [Fraction(data.draw(st.integers(-4, 4))) for _ in range(n)] for _ in range(n)
        ]
        assert det(matrix) == field_det(matrix)

    def test_fixed_seven_by_seven(self):
        matrix = [[Fraction((i * 7 + j * 3) % 5 - 2) for j in range(7)] for i in range(7)]
        assert det(matrix) == field_det(matrix)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            det([])

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.data())
    def test_truncated_ring_det_matches_the_leibniz_sum(self, n, data):
        matrix = [[data.draw(truncated_elements()) for _ in range(n)] for _ in range(n)]
        assert det(matrix) == leibniz_det(matrix, TRUNCATED.one())

    def test_truncated_ring_det_with_zero_divisors(self):
        # every product of weight 3 or more vanishes, so only a * (-b) of the
        # first row's expansion survives; untruncated, a^4 and b^3 would too
        one, a, b = TRUNCATED.one(), TRUNCATED.generator(0), TRUNCATED.generator(1)
        matrix = [[a, b, one + a], [a * b, a, b], [b, one - b, a * a]]
        value = det(matrix)
        assert value == leibniz_det(matrix, one)
        assert value == -(a * b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_an_int_matrix_gives_an_int(self, n):
        matrix = [[(3 * i + 5 * j) % 7 - 3 + (i == j) for j in range(n)] for i in range(n)]
        value = det(matrix)
        assert type(value) is int
        assert value == leibniz_det(matrix, 1) == field_det(matrix)


class TestCompleteHomogeneous:
    def test_examples(self):
        y = Fraction(3, 2)
        assert complete_homogeneous_values([y], 2) == [1, y, y * y]
        assert complete_homogeneous_values([1, 1], 2) == [1, 2, 3]
        assert complete_homogeneous_values([2, 3], 1) == [1, 5]

    def test_value_type_follows_the_roots(self):
        ints = complete_homogeneous_values([2, -3, 5], 4)
        assert all(type(v) is int for v in ints)
        rationals = complete_homogeneous_values([Fraction(2), Fraction(-3), Fraction(5)], 4)
        assert all(type(v) is Fraction for v in rationals[1:])
        assert rationals == ints
        mixed = complete_homogeneous_values([2, Fraction(1, 3)], 3)
        assert all(type(v) is Fraction for v in mixed[1:])
        assert mixed[0] == 1

    def test_refuses_inexact_roots(self):
        for roots in ([0.5, 1.5], [1, "2"], [Fraction(1, 2), True]):
            with pytest.raises(TypeError, match="roots must be int or Fraction"):
                complete_homogeneous_values(roots, 3)
        with pytest.raises(TypeError):
            schur_form_terms(3, 1, [[1, 2], [0.5, 1.5]])

    def test_refuses_a_negative_top(self):
        with pytest.raises(ValueError, match="^top must be nonnegative, got -1$"):
            complete_homogeneous_values([1, 2], -1)

    def test_one_repeated_root_gives_binomials(self):
        d = 4
        values = complete_homogeneous_values([1] * d, 6)
        assert values == [comb(k + d - 1, k) for k in range(7)]

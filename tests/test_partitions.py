import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pluckerpush import (
    Partition,
    add_rectangle,
    enumerate_partitions,
    hook_lengths,
    multiset_permutations,
    parse_partition,
    rectangle,
)


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment, cell by cell."""
    return all(inner[i] <= outer.part(i) for i in range(len(inner)))


def count_with_bounded_parts(n: int, k: int) -> int:
    """Independent oracle: number of partitions of n into at most k parts.

    Classic recurrence on the conjugate statistic (largest part at most k):
    p(n, k) = p(n - k, k) + p(n, k - 1).
    """
    if n == 0:
        return 1
    if n < 0 or k == 0:
        return 0
    return count_with_bounded_parts(n - k, k) + count_with_bounded_parts(n, k - 1)


small_partitions = st.lists(st.integers(1, 8), min_size=0, max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestPartitionType:
    def test_trailing_zeros_stripped(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition((0, 0)) == Partition()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative_and_interior_zero(self):
        with pytest.raises(ValueError):
            Partition((3, -1))
        with pytest.raises(ValueError):
            Partition((3, 0, 1))

    def test_weight_and_indexing(self):
        lam = Partition((3, 1))
        assert lam.weight == 4
        assert lam.part(0) == 3
        assert lam.part(5) == 0

    def test_str_notation(self):
        assert str(Partition((3, 1))) == "(3,1)"
        assert str(Partition((4,))) == "(4)"
        assert str(Partition()) == "()"

    def test_conjugate_involution(self):
        for n in range(9):
            for lam in enumerate_partitions(n, n if n else 1):
                assert lam.conjugate().conjugate() == lam

    def test_contains(self):
        assert contains(Partition((3, 2)), Partition((2, 2)))
        assert not contains(Partition((3, 2)), Partition((1, 1, 1)))

    @given(small_partitions)
    def test_parse_round_trip(self, lam):
        assert parse_partition(str(lam)) == lam

    def test_parse_tolerates_tuple_spelling(self):
        assert parse_partition("(3,)") == Partition((3,))

    def test_parse_rejects_garbage(self):
        for bad in ("3,1", "(a)", "(3 1)", ""):
            with pytest.raises(ValueError):
                parse_partition(bad)


class TestEnumeration:
    def test_weight_zero(self):
        assert enumerate_partitions(0, 3) == [Partition()]

    def test_examples(self):
        assert enumerate_partitions(3, 2) == [Partition((3,)), Partition((2, 1))]
        assert enumerate_partitions(4, 2) == [
            Partition((4,)),
            Partition((3, 1)),
            Partition((2, 2)),
        ]

    def test_reverse_lexicographic_order_and_uniqueness(self):
        for n in range(11):
            for k in range(1, 5):
                result = enumerate_partitions(n, k)
                assert result == sorted(result, reverse=True)
                assert len(set(result)) == len(result)
                assert all(lam.weight == n and len(lam) <= k for lam in result)

    def test_count_matches_recurrence(self):
        for n in range(13):
            for k in range(1, 7):
                assert len(enumerate_partitions(n, k)) == count_with_bounded_parts(n, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1, 2)
        with pytest.raises(ValueError):
            enumerate_partitions(3, 0)


class TestMultisetPermutations:
    def test_examples(self):
        assert list(multiset_permutations([2, 0, 0])) == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
        assert list(multiset_permutations([1, 1])) == [(1, 1)]
        assert list(multiset_permutations([])) == [()]

    @given(st.lists(st.integers(0, 3), min_size=0, max_size=6))
    def test_matches_deduplicated_permutations(self, items):
        # oracle: every ordering, with repeats removed by a set
        expected = sorted(set(itertools.permutations(items)))
        assert list(multiset_permutations(items)) == expected


class TestRectangleShift:
    def test_rectangle_examples(self):
        assert rectangle(2, 2) == Partition((2, 2))
        assert rectangle(3, 0) == Partition()
        assert rectangle(1, 4) == Partition((4,))

    def test_add_rectangle_examples(self):
        assert add_rectangle(Partition((1,)), 2, 1) == Partition((2, 1))
        assert add_rectangle(Partition(), 2, 2) == Partition((2, 2))
        assert add_rectangle(Partition((2, 1)), 3, 3) == Partition((5, 4, 3))

    def test_add_rectangle_rejects_long_partition(self):
        with pytest.raises(ValueError):
            add_rectangle(Partition((1, 1, 1)), 2, 1)

    @given(small_partitions, st.integers(0, 5))
    def test_add_rectangle_round_trip(self, lam, width):
        height = max(len(lam), 1) + 2
        shifted = add_rectangle(lam, height, width)
        recovered = [shifted.part(i) - width for i in range(height)]
        assert recovered == [lam.part(i) for i in range(height)]


class TestHooks:
    def test_examples(self):
        assert hook_lengths(Partition((1,))) == [1]
        assert sorted(hook_lengths(Partition((2, 2)))) == [1, 2, 2, 3]
        assert sorted(hook_lengths(Partition((2, 1)))) == [1, 1, 3]

    def test_multiset_size_is_weight(self):
        for n in range(9):
            for lam in enumerate_partitions(n, n if n else 1):
                assert len(hook_lengths(lam)) == lam.weight

    def test_hook_sum_invariant_under_conjugation(self):
        for n in range(9):
            for lam in enumerate_partitions(n, n if n else 1):
                assert sum(hook_lengths(lam)) == sum(hook_lengths(lam.conjugate()))

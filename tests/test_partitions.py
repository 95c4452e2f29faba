import pytest
from hypothesis import given
from hypothesis import strategies as st

from pluckerpush import (
    Partition,
    enumerate_partitions,
    hook_lengths,
    parse_partition,
    rectangle,
)


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment, cell by cell."""
    return all(a <= b for a, b in zip(inner, outer.padded(max(len(outer), len(inner)))))


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

    def test_refuses_parts_that_are_not_ints(self):
        for parts in [(2.5,), (3, True), ("3", "1"), (True, 0.9), (2.0,)]:
            with pytest.raises(TypeError, match="partition parts must be int"):
                Partition(parts)

    def test_weight_and_indexing(self):
        lam = Partition((3, 1))
        assert lam.weight == 4
        assert lam.padded(2) == (3, 1)
        assert lam.padded(5) == (3, 1, 0, 0, 0)
        with pytest.raises(ValueError, match=r"partition \(3,1\) has more than 1 parts"):
            lam.padded(1)

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

    def test_items_equal_the_checked_partitions(self):
        # the enumeration builds its items without the constructor's checks;
        # each must still be the Partition that Partition(...) accepts
        for n in range(13):
            for k in range(1, n + 2):
                for lam in enumerate_partitions(n, k):
                    checked = Partition(tuple(lam))
                    assert type(lam) is Partition
                    assert lam == checked and hash(lam) == hash(checked)
                    assert tuple(lam) == tuple(checked) and repr(lam) == repr(checked)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1, 2)
        with pytest.raises(ValueError):
            enumerate_partitions(3, 0)


class TestRectangleShift:
    def test_rectangle_examples(self):
        assert rectangle(2, 2) == Partition((2, 2))
        assert rectangle(3, 0) == Partition()
        assert rectangle(1, 4) == Partition((4,))

    def test_rectangles_refuse_sizes_that_are_not_ints(self):
        for bad in (2.5, True, "3"):
            for make in (
                lambda: rectangle(2, bad),
                lambda: rectangle(bad, 2),
            ):
                with pytest.raises(TypeError, match="height and width must be int"):
                    make()

    def test_rectangles_refuse_no_rows_and_a_negative_width(self):
        with pytest.raises(ValueError, match="^height must be positive, got 0$"):
            rectangle(0, 2)
        with pytest.raises(ValueError, match="^width must be nonnegative, got -1$"):
            rectangle(2, -1)


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

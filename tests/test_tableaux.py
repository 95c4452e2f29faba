from math import factorial

import pytest

from pluckerpush import (
    ENUMERATION_CAP,
    Partition,
    enumerate_partitions,
    syt_count_hook,
    syt_count_product,
    syt_enumerate,
)


class TestHookCount:
    def test_examples(self):
        assert syt_count_hook(Partition((1,))) == 1
        assert syt_count_hook(Partition((2, 1))) == 2
        assert syt_count_hook(Partition((2, 2))) == 2
        assert syt_count_hook(Partition()) == 1

    def test_agrees_with_enumeration_up_to_ten_cells(self):
        for n in range(11):
            for lam in enumerate_partitions(n, n if n else 1):
                assert syt_count_hook(lam) == syt_enumerate(lam)

    def test_rsk_square_sum(self):
        # sum of squared counts over all shapes of n cells is n!
        for n in range(9):
            total = sum(
                syt_count_hook(lam) ** 2
                for lam in enumerate_partitions(n, n if n else 1)
            )
            assert total == factorial(n)


class TestProductFormula:
    def test_examples(self):
        assert syt_count_product(Partition(), 2, 4) == 2
        assert syt_count_product(Partition((1,)), 2, 3) == 2
        assert syt_count_product(Partition(), 1, 5) == 1

    def test_agrees_with_hook_on_shifted_shape(self):
        for d in range(1, 5):
            for r in range(d, 8):
                for weight in range(7):
                    for lam in enumerate_partitions(weight, d):
                        expected = syt_count_hook(Partition(k + r - d for k in lam.padded(d)))
                        assert syt_count_product(lam, d, r) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            syt_count_product(Partition((1, 1, 1)), 2, 4)
        with pytest.raises(ValueError):
            syt_count_product(Partition((1,)), 3, 2)


class TestEnumeration:
    def test_examples(self):
        assert syt_enumerate(Partition((3,))) == 1
        assert syt_enumerate(Partition((1, 1, 1))) == 1
        assert syt_enumerate(Partition((2, 2))) == 2
        assert syt_enumerate(Partition()) == 1

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            syt_enumerate(Partition((ENUMERATION_CAP + 1,)))
        assert syt_enumerate(Partition((ENUMERATION_CAP,))) == 1

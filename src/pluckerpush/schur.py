"""Jacobi-Trudi determinants and complete homogeneous values.

The determinant evaluator is generic over the coefficient domain: it only
needs +, -, * and an identity element, so the same code serves exact integers
and rationals and truncated graded ring elements.  The Schur expansion of a
power of the Pluecker class by Pieri steps is an oracle,
``oracles.pieri_walk``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .partitions import Partition


def det(matrix: list[list[object]]) -> object:
    """Exact determinant over any commutative ring.

    Minor expansion cached over column subsets: minors[mask] is the
    determinant of the first popcount(mask) rows on the columns in mask,
    grown one row at a time, about n * 2^(n-1) products in all.  Division-free,
    which matters because the truncated ring has zero divisors.
    """
    if not matrix:
        raise ValueError("empty matrix has no well-defined element type; handle size 0 upstream")
    n = len(matrix)
    minors: dict[int, object] = {1 << j: value for j, value in enumerate(matrix[0])}
    for row in range(1, n):
        grown: dict[int, object] = {}
        for mask, value in minors.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                position = bin(mask & (bit - 1)).count("1")
                term = matrix[row][j] * value
                if (row + position) % 2:
                    term = -term
                key = mask | bit
                grown[key] = term if key not in grown else grown[key] + term
        minors = grown
    return minors[(1 << n) - 1]


def jacobi_trudi_det(indices: Sequence[int], values: Sequence[object]) -> object:
    """det[ values[indices_i + j - i] ] for an arbitrary integer vector.

    Negative subscripts give the zero element, subscripts past the end of
    ``values`` likewise (legitimate only when the coefficient ring truncates
    them; callers over exact rationals must supply enough values).  The empty
    vector gives the identity ``values[0]``.
    """
    one = values[0]
    n = len(indices)
    if n == 0:
        return one
    zero = one - one
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            k = indices[i] + j - i
            row.append(values[k] if 0 <= k < len(values) else zero)
        matrix.append(row)
    return det(matrix)


def schur_via_jacobi_trudi(
    lam: Partition, values: Sequence[object], size: int | None = None
) -> object:
    """Schur polynomial of shape lam evaluated on the complete homogeneous values.

    ``size`` pads the shape with zero parts; the determinant is unchanged by
    padding because the extra rows are unit lower-triangular.
    """
    if size is None:
        size = len(lam)
    if size < len(lam):
        raise ValueError(f"size {size} is smaller than the {len(lam)} parts of {lam}")
    return jacobi_trudi_det([lam.part(i) for i in range(size)], values)


def complete_homogeneous_values(roots: Sequence[Fraction | int], top: int) -> list[int | Fraction]:
    """h_0..h_top of the roots, by the product of geometric series.

    Multiplying the truncated series by 1/(1 - y t) one root at a time gives
    the recurrence h_k += y * h_{k-1} with k ascending.  The values keep the
    type of the arithmetic: integer roots give ints, and a rational root makes
    h_1..h_top Fractions; h_0 is always the integer 1.
    """
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    h: list[int | Fraction] = [1] + [0] * top
    for y in roots:
        for k in range(1, top + 1):
            h[k] += y * h[k - 1]
    return h

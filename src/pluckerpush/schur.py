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

from .records import require_exact


def det(matrix: list[list[object]]) -> object:
    """Exact determinant over any commutative ring.

    Minor expansion cached over column subsets: minors[mask] is the
    determinant of the first popcount(mask) rows on the columns in mask.  It
    starts from the 2 x 2 minors of the first two rows and grows one row at a
    time, about n * 2^(n-1) products in all; a 1 x 1 matrix is its entry.
    Division-free, which matters because the truncated ring has zero divisors.
    """
    if not matrix:
        raise ValueError("empty matrix has no well-defined element type; handle size 0 upstream")
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    first, second = matrix[0], matrix[1]
    minors: dict[int, object] = {
        1 << i | 1 << j: second[j] * first[i] - second[i] * first[j]
        for i in range(n)
        for j in range(i + 1, n)
    }
    for row in range(2, n):
        entries = matrix[row]
        grown: dict[int, object] = {}
        for mask, value in minors.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                term = entries[j] * value
                if (row + (mask & bit - 1).bit_count()) & 1:
                    term = -term
                key = mask | bit
                grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors[(1 << n) - 1]


def jacobi_trudi_det(indices: Sequence[int], values: Sequence[object]) -> object:
    """det[ values[indices_i + j - i] ] for an arbitrary integer vector.

    The Schur polynomial of shape lam in d rows takes ``lam.padded(d)``;
    zero parts add unit lower-triangular rows, so any padding gives the
    same value.  Negative subscripts give the zero element.  A subscript
    past the end of ``values`` raises ValueError: callers size the list,
    since a missing value is not known to be zero.  The empty vector gives
    the identity ``values[0]``.
    """
    one = values[0]
    n = len(indices)
    if n == 0:
        return one
    zero = one - one
    matrix = []
    try:
        for i in range(n):
            row = []
            for j in range(n):
                k = indices[i] + j - i
                row.append(values[k] if k >= 0 else zero)
            matrix.append(row)
    except IndexError:
        top = max(k + n - 1 - i for i, k in enumerate(indices))
        raise ValueError(f"need values h_0..h_{top}, got {len(values)}") from None
    return det(matrix)


def complete_homogeneous_values(roots: Sequence[Fraction | int], top: int) -> list[int | Fraction]:
    """h_0..h_top of the roots, by the product of geometric series.

    Multiplying the truncated series by 1/(1 - y t) one root at a time gives
    the recurrence h_k += y * h_{k-1} with k ascending.  The values keep the
    type of the arithmetic: integer roots give ints, and a rational root makes
    h_1..h_top Fractions; h_0 is always the integer 1.  Any other root, and a
    ``top`` that is not an int, raises TypeError.
    """
    require_exact(roots, "roots")
    require_exact((top,), "top", (int,))
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    h: list[int | Fraction] = [1] + [0] * top
    for y in roots:
        for k in range(1, top + 1):
            h[k] += y * h[k - 1]
    return h

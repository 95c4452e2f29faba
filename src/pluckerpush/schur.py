"""Schur-basis expansions via Pieri steps, and Jacobi-Trudi determinants.

The determinant evaluator is generic over the coefficient domain: it only
needs +, -, * and an identity element, so the same code serves exact rationals
and truncated graded ring elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .partitions import Partition


@dataclass(frozen=True)
class SchurExpansion:
    """A homogeneous integer combination of Schur polynomials in d variables.

    Keys are partitions with at most ``num_variables`` parts, values are
    nonzero integers, and all keys share one weight.
    """

    terms: Mapping[Partition, int]
    num_variables: int

    def __post_init__(self) -> None:
        if self.num_variables < 1:
            raise ValueError(f"num_variables must be positive, got {self.num_variables}")
        weights = set()
        for lam, coeff in self.terms.items():
            if len(lam) > self.num_variables:
                raise ValueError(f"key {lam} exceeds {self.num_variables} parts")
            if coeff == 0:
                raise ValueError(f"zero coefficient stored for {lam}")
            weights.add(lam.weight)
        if len(weights) > 1:
            raise ValueError(f"expansion is not homogeneous, weights {sorted(weights)}")

    def coefficient(self, lam: Partition) -> int:
        return self.terms.get(lam, 0)

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        """Terms in reverse-lexicographic key order, the canonical output order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def weight(self) -> int:
        """Common weight of the keys (0 for the empty expansion)."""
        for lam in self.terms:
            return lam.weight
        return 0


def pieri_multiply(expansion: SchurExpansion) -> SchurExpansion:
    """Multiply by the sum of the variables: each shape grows by one box.

    A box can go at the end of any row that stays weakly decreasing, or start
    a new row while the number of rows stays within ``num_variables``.
    """
    d = expansion.num_variables
    out: dict[Partition, int] = {}
    for lam, coeff in expansion.terms.items():
        for i in range(min(len(lam) + 1, d)):
            if i > 0 and lam.part(i) + 1 > lam[i - 1]:
                continue
            grown = list(lam)
            if i == len(grown):
                grown.append(1)
            else:
                grown[i] += 1
            mu = Partition(grown)
            out[mu] = out.get(mu, 0) + coeff
    return SchurExpansion({k: v for k, v in out.items() if v}, d)


def h1_power_expansion(power: int, num_variables: int) -> SchurExpansion:
    """Expand (x_1 + ... + x_d)^power in the Schur basis by iterated Pieri steps.

    The coefficient of each shape equals its standard-tableau count, which the
    test suite checks against the hook-length formula.
    """
    if power < 0:
        raise ValueError(f"power must be nonnegative, got {power}")
    expansion = SchurExpansion({Partition(): 1}, num_variables)
    for _ in range(power):
        expansion = pieri_multiply(expansion)
    return expansion


def det(matrix: list[list[Any]]) -> Any:
    """Exact determinant over any commutative ring.

    Minor expansion cached over column subsets: minors[mask] is the
    determinant of the first popcount(mask) rows on the columns in mask,
    grown one row at a time, about n * 2^(n-1) products in all.  Division-free,
    which matters because the truncated ring has zero divisors.
    """
    if not matrix:
        raise ValueError("empty matrix has no well-defined element type; handle size 0 upstream")
    n = len(matrix)
    minors: dict[int, Any] = {1 << j: value for j, value in enumerate(matrix[0])}
    for row in range(1, n):
        grown: dict[int, Any] = {}
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


def jacobi_trudi_det(indices: Sequence[int], values: Sequence[Any]) -> Any:
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


def schur_via_jacobi_trudi(lam: Partition, values: Sequence[Any], size: int | None = None) -> Any:
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

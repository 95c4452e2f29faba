"""Counting standard Young tableaux by three mutually independent methods."""

from __future__ import annotations

from math import factorial, prod

from .partitions import Partition, hook_lengths
from .records import require_sizes

#: Largest diagram the exhaustive enumerator will accept; the number of
#: fillings grows superexponentially beyond this.
ENUMERATION_CAP = 12


def syt_count_hook(lam: Partition) -> int:
    """Number of standard Young tableaux of the given shape, by hook lengths.

    Computes |lam|! / (product of hook lengths); the division is exact and
    asserted to be so.  The factorial comes first, so a shape of more than
    ``sys.maxsize`` cells raises OverflowError before any cell is visited.
    """
    total = factorial(lam.weight)
    count, rem = divmod(total, prod(hook_lengths(lam)))
    assert rem == 0, f"hook product does not divide {lam.weight}! for {lam}"
    return count


def syt_count_product(lam: Partition, d: int, r: int) -> int:
    """Tableau count for the shape lam + (r-d)^d, by the closed product formula.

    With lam zero-padded to length d and N = |lam| + d*(r-d):

        N! * prod_{1<=i<j<=d} (lam_i - lam_j - i + j)
           / prod_{1<=i<=d} (r + lam_i - i)!

    The shift is never built.  The oracle of the engine's counts f(lam + eps).
    """
    require_sizes(d, r)
    parts = lam.padded(d)
    numerator = factorial(lam.weight + d * (r - d))
    for i in range(d):
        for j in range(i + 1, d):
            numerator *= parts[i] - parts[j] + (j - i)
    denominator = prod(factorial(r + parts[i] - (i + 1)) for i in range(d))
    count, rem = divmod(numerator, denominator)
    assert rem == 0, f"product formula division not exact for {lam}, d={d}, r={r}"
    return count


def syt_enumerate(lam: Partition) -> int:
    """Count standard tableaux by building every filling explicitly.

    Brute-force oracle: entries 1..n are placed one at a time, each in any row
    whose next free cell has filled neighbors above and to the left.  Rejects
    shapes with more than ENUMERATION_CAP cells.
    """
    n = lam.weight
    if n > ENUMERATION_CAP:
        raise ValueError(f"shape has {n} cells, enumeration is capped at {ENUMERATION_CAP}")
    row_lengths = list(lam)
    filled = [0] * len(row_lengths)

    def place(entry: int) -> int:
        if entry == n:
            return 1
        total = 0
        for i in range(len(row_lengths)):
            if filled[i] < row_lengths[i] and (i == 0 or filled[i - 1] > filled[i]):
                filled[i] += 1
                total += place(entry + 1)
                filled[i] -= 1
        return total

    return place(0)

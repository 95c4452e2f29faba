"""Integer partitions: representation, bounded enumeration, rectangle shifts, hooks."""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction, so equal partitions always
    compare equal and hash alike.  The empty partition is ``Partition()``.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        items = tuple(int(p) for p in parts)
        while items and items[-1] == 0:
            items = items[:-1]
        for i, p in enumerate(items):
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {p} in {items}")
            if i > 0 and items[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {items}")
        return super().__new__(cls, items)

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero beyond the stored length."""
        return self[i] if 0 <= i < len(self) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > j) for j in range(self[0]))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def parse_partition(text: str) -> Partition:
    """Parse the textual notation ``"(3,1)"``; ``"()"`` is the empty partition."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"expected parenthesized partition like (3,1), got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return Partition()
    tokens = [t.strip() for t in inner.split(",")]
    if tokens and tokens[-1] == "":
        tokens.pop()  # tolerate the single-part tuple spelling "(3,)"
    return Partition(int(t) for t in tokens)


def _descending(remaining: int, max_part: int, slots: int) -> Iterator[tuple[int, ...]]:
    if remaining == 0:
        yield ()
        return
    if slots == 0 or max_part == 0:
        return
    smallest_first = -(-remaining // slots)  # ceil; anything smaller cannot fill the weight
    for first in range(min(remaining, max_part), smallest_first - 1, -1):
        for rest in _descending(remaining - first, first, slots - 1):
            yield (first,) + rest


def enumerate_partitions(weight: int, max_parts: int) -> list[Partition]:
    """All partitions of ``weight`` with at most ``max_parts`` parts.

    The order is reverse-lexicographic, e.g. (4), (3,1), (2,2), and is relied
    on by every rendered sum in the package.
    """
    if weight < 0:
        raise ValueError(f"weight must be nonnegative, got {weight}")
    if max_parts < 1:
        raise ValueError(f"max_parts must be positive, got {max_parts}")
    return [Partition(t) for t in _descending(weight, weight, max_parts)]


def multiset_permutations(items: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of a multiset, in lexicographic order.

    Knuth's Algorithm L (TAOCP 4A, 7.2.1.2): from the ascending arrangement,
    swap the rightmost ascent a_j < a_{j+1} with the last entry exceeding
    a_j, then reverse the tail after position j.  Each ordering appears once,
    however many entries repeat.
    """
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        last = n - 1
        while a[j] >= a[last]:
            last -= 1
        a[j], a[last] = a[last], a[j]
        a[j + 1 :] = a[:j:-1]


def rectangle(height: int, width: int) -> Partition:
    """The partition with ``height`` equal parts ``width`` (empty when width is 0)."""
    if height < 1:
        raise ValueError(f"height must be positive, got {height}")
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    return Partition((width,) * height)


def add_rectangle(lam: Partition, height: int, width: int) -> Partition:
    """Add ``width`` to each of the first ``height`` parts, padding with zeros.

    Requires the partition to fit in ``height`` rows.
    """
    if len(lam) > height:
        raise ValueError(f"partition {lam} has more than {height} parts")
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    return Partition(lam.part(i) + width for i in range(height))


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of all cells, in row-major order (a multiset of size |lam|)."""
    conj = lam.conjugate()
    return [
        lam[i] - j + conj[j] - i - 1
        for i in range(len(lam))
        for j in range(lam[i])
    ]

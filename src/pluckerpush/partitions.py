"""Integer partitions: representation, bounded enumeration, rectangles, hooks."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .records import require_exact


class Partition(tuple):
    """A weakly decreasing tuple of positive ``int``s; any other part is a TypeError.

    Trailing zeros are stripped on construction, so equal partitions always
    compare equal and hash alike.  The empty partition is ``Partition()``.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        items = tuple(parts)
        require_exact(items, "partition parts", (int,))
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

    def padded(self, rows: int) -> tuple[int, ...]:
        """The parts followed by zeros, ``rows`` entries in all; ValueError
        when the shape has more than ``rows`` parts."""
        if len(self) > rows:
            raise ValueError(f"partition {self} has more than {rows} parts")
        return tuple(self) + (0,) * (rows - len(self))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > j) for j in range(self[0]))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def _trusted(parts: Iterable[int]) -> Partition:
    """The Partition of parts already positive ints, weakly decreasing, with
    no trailing zero; for the package's own constructions, which skip the
    checks of ``Partition(...)``."""
    return tuple.__new__(Partition, parts)


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
    return [_trusted(t) for t in _descending(weight, weight, max_parts)]


def rectangle(height: int, width: int) -> Partition:
    """The partition with ``height`` equal parts ``width`` (empty when width is 0)."""
    require_exact((height, width), "height and width", (int,))
    if height < 1:
        raise ValueError(f"height must be positive, got {height}")
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    return Partition((width,) * height)


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of all cells, in row-major order (a multiset of size |lam|)."""
    conj = lam.conjugate()
    return [
        lam[i] - j + conj[j] - i - 1
        for i in range(len(lam))
        for j in range(lam[i])
    ]

"""The package's value layer: the exact-type check, the size rule and records.

``require_exact`` is the one rule for an exact input: each value's class must
be one of the given types, so neither ``True`` nor ``2.0`` is an int.
``require_sizes`` is the one rule for the sizes of a push-forward: a power
N >= 0 of the Pluecker class on G(d, E), 1 <= d <= r, pushed down from a
bundle E of rank r; every engine entry that takes them calls it.  A
record subclass lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``.  ``Record`` reads the fields off ``__slots__``
for equality, a keyword-form repr such as ``FormalBundle(base_dim=3, rank=4)``
and pickling; ``FrozenRecord`` also refuses assignment and deletion and
hashes by value.  Importing ``dataclasses`` would load ``inspect``, ``ast``
and ``dis`` into every process for seven small records.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

#: The exact scalar types; a bool, a float or a str is neither.
EXACT_TYPES = (int, Fraction)


def require_exact(
    values: Iterable[object], what: str, types: tuple[type, ...] = EXACT_TYPES
) -> None:
    """Raise TypeError unless the class of every value is one of ``types``,
    by default an int or a Fraction; a bool is not an int."""
    for value in values:
        if value.__class__ not in types:
            names = " or ".join(t.__name__ for t in types)
            raise TypeError(f"{what} must be {names}, got {value!r}")


def require_sizes(d: int, r: int, N: int | None = None, model: object = None) -> None:
    """Refuse d and r, and the power N when given, unless each is an int
    (TypeError); refuse d outside 1..r, a negative N, and a model, when
    given, whose rank is not r (ValueError)."""
    if N is None:
        require_exact((d, r), "d and r", (int,))
    else:
        require_exact((N, d, r), "N, d and r", (int,))
    if not 1 <= d <= r:
        raise ValueError(f"need 1 <= d <= r, got d={d}, r={r}")
    if N is not None and N < 0:
        raise ValueError(f"power must be nonnegative, got {N}")
    if model is not None and model.rank != r:
        raise ValueError(f"model has rank {model.rank}, expected {r}")


class Record:
    """Mutable record: field-wise equality of records of one class, unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class FrozenRecord(Record):
    """Immutable record, hashable by value; ``__init__`` stores through ``_freeze``."""

    __slots__ = ()

    def _freeze(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

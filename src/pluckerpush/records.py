"""Small value records on ``__slots__``, in place of dataclasses.

A subclass lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``.  ``Record`` reads the fields off ``__slots__``
for equality, a keyword-form repr such as ``FormalBundle(base_dim=3, rank=4)``
and pickling; ``FrozenRecord`` also refuses assignment and hashes by value.
Importing ``dataclasses`` would load ``inspect``, ``ast`` and ``dis`` into
every process for six small records.
"""

from __future__ import annotations


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

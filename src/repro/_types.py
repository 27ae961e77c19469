"""Core type aliases and small frozen helpers shared across the library.

The whole runtime is purely functional: configurations, local states and
memory contents are immutable, hashable values.  This module centralizes the
conventions that make that work:

* ``ProcessId`` is a dense integer index ``0..n-1``.
* ``Value`` is any hashable Python object; algorithms never require more.
* ``BOT`` is the distinguished "empty register" value (the paper's ⊥).
* ``Params`` is an immutable mapping used to carry per-protocol parameters
  (``n``, ``m``, ``k``, component counts, ...) inside frozen dataclasses.
"""

from __future__ import annotations

import collections.abc
from typing import Any, Hashable, Iterable, Iterator, Mapping, Tuple

ProcessId = int
Value = Hashable
Schedule = Tuple[ProcessId, ...]


class _Bot:
    """Singleton sentinel for the initial register value ⊥ (the paper's ``⊥``).

    ``None`` is a plausible user value, so the library reserves a dedicated
    sentinel instead.  There is exactly one instance, :data:`BOT`.
    """

    _instance: "_Bot | None" = None

    def __new__(cls) -> "_Bot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self):
        return (_Bot, ())


BOT = _Bot()


def is_bot(value: Any) -> bool:
    """Return ``True`` iff *value* is the ⊥ sentinel."""
    return value is BOT


class Params(Mapping[str, Any]):
    """A small immutable, hashable mapping for protocol parameters.

    Frozen dataclasses that embed parameters need a hashable mapping;
    ``dict`` is not hashable and ``types.MappingProxyType`` is not either.
    ``Params`` stores items as a sorted tuple of pairs.

    >>> p = Params(n=4, m=1, k=2)
    >>> p["n"], p["k"]
    (4, 2)
    >>> Params(n=4, m=1, k=2) == Params(k=2, m=1, n=4)
    True
    """

    __slots__ = ("_items",)

    def __init__(self, *args: Mapping[str, Any], **kwargs: Any) -> None:
        merged: dict[str, Any] = {}
        for mapping in args:
            merged.update(mapping)
        merged.update(kwargs)
        object.__setattr__(self, "_items", tuple(sorted(merged.items())))

    def __getitem__(self, key: str) -> Any:
        for name, value in self._items:
            if name == key:
                return value
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Params):
            return self._items == other._items
        if isinstance(other, collections.abc.Mapping):
            return dict(self._items) == dict(other.items())
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in self._items)
        return f"Params({inner})"

    def updated(self, **kwargs: Any) -> "Params":
        """Return a new :class:`Params` with *kwargs* merged in."""
        return Params(dict(self._items), **kwargs)


def freeze_sequence(values: Iterable[Any]) -> Tuple[Any, ...]:
    """Return *values* as a tuple (identity for tuples)."""
    if isinstance(values, tuple):
        return values
    return tuple(values)

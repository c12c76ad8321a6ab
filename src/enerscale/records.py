"""The base of the package's immutable value records.

A record is a plain class whose ``__slots__`` hold its fields, listed in
order in ``_fields``, and whose own ``__init__`` validates its arguments and
stores them with ``set_field``. The base makes instances frozen (assigning
or deleting an attribute raises AttributeError) and gives them value
equality and hashing over ``_fields`` (an instance equals only instances of
its own class), a ``Name(field=value, ...)`` repr, ``_replace``, and
``pickle``/``copy`` support through ``__init__``. Written out once here,
these cost a fresh process nothing to import or generate per class, unlike
the standard library's generator of such methods (whose import alone pulls
in ``inspect`` and ``ast``).
"""

from __future__ import annotations

#: ``set_field(record, name, value)`` stores a field from ``__init__``,
#: past the frozen ``__setattr__``.
set_field = object.__setattr__


class Record:
    """Frozen value record over the fields named in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Rebuild through __init__, which takes the fields in order: restoring
        # the slots one by one would meet the frozen __setattr__.
        return self.__class__, self._values()

    def _replace(self, **changes):
        """A new record of the same class with ``changes`` applied; ``__init__`` validates it."""
        return self.__class__(**{**dict(zip(self._fields, self._values())), **changes})

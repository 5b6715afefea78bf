"""Immutable value records without the `dataclasses` import.

A subclass names its compared fields in `_fields` and binds them in its
own `__init__`, which also runs its checks.  Equality, the hash and the
repr are those `@dataclass(frozen=True)` would generate: equal only to
an instance of the very same class with equal fields, hashed as the
tuple of those fields, and printed as ``Name(field=value, ...)``.  Any
other attribute (a memo) takes no part in any of the three.

Nothing stops a rebinding at run time; `tests/test_package.py` checks
statically that no module binds a compared field outside a constructor.
Creating a record class costs no `exec`, and importing this module loads
only `operator`.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    _fields: tuple[str, ...]    # set by each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the compared fields as one tuple: every record has two or more,
        # and with one name attrgetter would return the bare value
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

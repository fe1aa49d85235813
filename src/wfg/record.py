"""Immutable value records.

``Record`` keeps what the package's values took from frozen dataclasses
without importing ``dataclasses``, which loads ``inspect`` and compiles
generated code for every class at import time.  A subclass's annotated
class attributes are its fields, in order; a class attribute of the same
name is the field's default.  ``__post_init__`` runs once the fields are
set, and may normalize them through ``object.__setattr__``.  Equality and
hash go by the field values, within one class; the repr is
``Name(field=value, ...)``; setting or deleting an attribute raises
AttributeError.  Instances keep a ``__dict__``, so ``cached_property``
works on them.
"""

from __future__ import annotations


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields or field in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
        values = self._defaults | values | kwargs
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing argument(s): {', '.join(missing)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with some fields changed; the
    constructor, ``__post_init__`` included, runs again."""
    values = dict(zip(record._fields, record._values()))
    values.update(changes)
    return type(record)(**values)

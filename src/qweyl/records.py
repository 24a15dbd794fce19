"""
Value classes whose fields are the names in their __slots__.

Written by hand rather than with dataclasses, whose import loads inspect,
ast and tokenize: a Record compares and prints by its fields and is
unhashable, a FrozenRecord is also immutable and hashable.
"""

__all__ = ["Record", "FrozenRecord"]

from operator import attrgetter


class Record:
    """Equal to an object of its own class with equal fields, shown by its
    fields in repr; unhashable, since its fields may be reassigned."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            # the tuple of field values (every record has two or more fields)
            cls._fields = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields))
        return f"{type(self).__name__}({args})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by the subclass __init__
    through object.__setattr__, and that hashes by them."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as __setattr__ refuses
        return type(self), self._fields

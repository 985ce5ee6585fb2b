"""Plain record classes, with no generated code.

A record lists its fields in ``__slots__``, in the order of its
``__init__`` parameters, and its hand-written ``__init__`` sets them with
:meth:`Record._fill`.  Its ``repr`` is ``Name(field=value, ...)``, and two
records are equal when they are of one class and their fields are equal
in order.  A :class:`Record` is mutable and unhashable; a
:class:`FrozenRecord` refuses assignment and hashes its fields.

A class whose slots hold more than its fields, such as a value computed
on first use, names its fields in ``_fields``.
"""

from operator import attrgetter


class Record:
    """A mutable record: ``repr`` and equality by field."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
        if cls._fields:
            # the field values as a tuple, for equality and hashing
            cls._values = attrgetter(*cls._fields)

    def _fill(self, *values):
        """Set the slots, in order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    __hash__ = None


class FrozenRecord(Record):
    """An immutable record, hashable by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))

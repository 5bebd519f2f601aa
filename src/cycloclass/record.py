"""The base of the package's immutable value records.

A record lists its fields in ``__slots__``, in constructor order, and sets
them in its own ``__init__`` with ``object.__setattr__``, as ``FinAbGroup``
does.  The base supplies what a frozen dataclass would: equality between
records of one class, the hash of the field tuple, the
``Name(field=value, ...)`` repr, and refusal of assignment, without the
cost of importing ``dataclasses`` and generating code for each class.
"""

from operator import attrgetter


class Record:
    """Immutable record whose fields, two or more, are the names in
    ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads the field tuple in one call; an attrgetter does not bind to
        # the instance, so it is called as self._fields(self)
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

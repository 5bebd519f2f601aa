"""The base of the package's immutable values.

Every value class of the package, from ``abelian`` up, is a record: the
matrices, groups, homomorphisms and presentations of ``abelian``, the
modules of ``involutive``, the unit groups of ``residue``, and the records
of ``ktheory`` and ``manifoldset``.  A record lists its fields in
``__slots__``, in constructor order.  ``Record.__init__`` takes the
fields positionally, in slot order, so a record defines ``__init__`` only
to check, derive or default a field, and then passes the values, in that
order, to ``Record.__init__``.  The base supplies what a frozen dataclass
would: equality between records of one class, the hash of the field
tuple, the ``Name(field=value, ...)`` repr, and refusal of assignment and
deletion, without the cost of importing ``dataclasses`` and generating
code for each class.

A record may have a single field (``FinAbGroup``), and its field tuple is
then a 1-tuple.  A subclass with empty ``__slots__`` keeps its parent's
fields.  Some slots hold fields that the constructor derives from its
arguments: the unit counts and group of ``ResidueRingUnits`` and
``UnitQuotient``.  Equality compares them like any other field, to the
same effect, since the arguments determine them.  Classes with a printed
form of their own override ``__repr__``.  ``copy``, ``deepcopy`` and
``pickle`` rebuild a record from its field tuple, as assignment would be
refused.  ``arith.Modulus``, built for every modulus factored, calls the
slot setters of ``_setters`` itself, in slot order, one per field.
"""

from operator import attrgetter


class Record:
    """Immutable record whose fields are the names in the ``__slots__`` of
    its bases and then of its own class."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a subclass adds its own slots, none at all with empty __slots__,
        # to the fields it inherits
        cls._names = (getattr(cls, "_names", ())
                      + cls.__dict__.get("__slots__", ()))
        # a slot's own descriptor sets its field past __setattr__
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls._names)
        # reads the field tuple in one call; an attrgetter of one name
        # returns the bare value, so a one-field record wraps it.  Neither
        # an attrgetter nor a staticmethod binds to the instance, so it is
        # called as self._fields(self)
        get = attrgetter(*cls._names)
        cls._fields = get if len(cls._names) > 1 else \
            staticmethod(lambda self: (get(self),))

    def __init__(self, *values):
        """Set the fields, one value per field in slot order; any other
        count of values raises ValueError."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"{type(self).__name__} takes {len(setters)} "
                             f"fields, got {len(values)}")
        # indexing the setters costs less than pairing them by zip
        for i, value in enumerate(values):
            setters[i](self, value)

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
                           for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild a record from its field tuple,
        # since assignment is refused and a subclass __init__ may take
        # other arguments than the fields
        return _rebuild, (type(self), self._fields(self))


def _rebuild(cls, fields):
    """A record of class ``cls`` with the field tuple ``fields``, set
    through the slot setters without the class's own ``__init__``."""
    record = object.__new__(cls)
    Record.__init__(record, *fields)
    return record

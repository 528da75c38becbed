"""Hand-written value types: the behaviour of a dataclass without building one.

A subclass names its fields in _fields, in constructor order, and writes
its own __init__.  Record gives it the repr, and equality within one class,
that @dataclass would; Frozen adds what @dataclass(frozen=True) adds:
assignment raises AttributeError, and the hash is the hash of the tuple of
the fields, so sets and cache keys behave as a dataclass's would.  Frozen
subclasses set their fields once, in __init__, with object.__setattr__.

Importing dataclasses costs a cold process several milliseconds (it loads
inspect), and each decoration execs generated methods; these bases cost
neither.
"""

from operator import attrgetter


class Record:
    """Fields named by _fields: dataclass repr and equality, unhashable."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # one C call reads the fields as a tuple; with one name it would
            # return the bare value, and every value type has two or more
            cls._values = attrgetter(*cls._fields)

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    __hash__ = None


class Frozen(Record):
    """A Record whose fields cannot be assigned, hashed as their tuple."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assigns no field twice
        return type(self), self._values(self)

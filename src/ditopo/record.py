"""Plain value classes: field-wise ``==`` and ``repr``, a hash when frozen.

A subclass lists its fields in ``_fields``, in constructor order, keeps
them in ``__slots__`` and spells out its own ``__init__``.  Two records are
equal only when they are of the same class and their field tuples are
equal, so a record never equals a plain tuple or a record of another class.
``repr`` reads ``Name(field=value, ...)``.  A ``Record`` is mutable and
unhashable; a ``FrozenRecord`` hashes its field tuple, so its fields must
not be assigned after ``__init__``.  Nothing enforces that: a guard on
every assignment would cost more than the classes save.
"""


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

"""Bases for the result records: plain ``__slots__`` classes whose fields are
their slots, in declaration order.

``Record`` gives value ``==`` (``False`` against another class), the
``Name(field=value, ...)`` repr and copying or pickling by positional
reconstruction; like a mutable dataclass with ``eq=True`` it is unhashable.
``FrozenRecord`` adds a hash of the field values and refuses assignment and
deletion with ``AttributeError``; its ``__init__`` stores each field with
``object.__setattr__``.  No slot means no ``__dict__``, so a record takes no
attribute beyond its fields.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

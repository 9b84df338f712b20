"""Bases for the result records: plain ``__slots__`` classes whose fields are
their slots, in declaration order.  A record declares its fields once, in
``__slots__``, and the defaults of its optional fields in ``_defaults``.

``Record`` gives the constructor, value ``==`` (``False`` against another
class), the ``Name(field=value, ...)`` repr and copying or pickling by
positional reconstruction; like a mutable dataclass with ``eq=True`` it is
unhashable.  The constructor takes the fields in slot order, by position or by
name; a field left out takes its default, and a ``list`` or ``dict`` default
stands for a fresh container per record, which an explicit ``None`` also gets.
A missing, unknown, repeated or surplus argument raises ``TypeError``.
``FrozenRecord`` adds a hash of the field values and refuses assignment and
deletion with ``AttributeError``; the shared constructor stores each field
with ``object.__setattr__``, so it serves both.  No slot means no
``__dict__``, so a record takes no attribute beyond its fields.
"""

_FRESH = (list, dict)


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names, name = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        defaults = self._defaults
        for key in names:
            default = defaults.get(key)
            if key in values:
                value = values[key]
                if value is None and default in _FRESH:
                    value = default()
            elif key in defaults:
                value = default() if default in _FRESH else default
            else:
                raise TypeError(f"{name}() missing required argument {key!r}")
            object.__setattr__(self, key, value)

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

"""Frozen value records.

A record class names its fields in ``__slots__``, and ``Record.__init__``
sets them from positional values in that order, raising ``TypeError`` on a
wrong count. A record with defaults, coercions or checks runs them in its
own ``__init__`` and ends with ``super().__init__(...)``. This base gives
what a frozen dataclass would: no assignment after construction, equality
and hashing on the field tuple, and the dataclass ``repr``. Building records
this way keeps the standard dataclass machinery (and the ``inspect`` and
``ast`` modules it imports) out of every process start.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(values)}"
            )
        set_field = object.__setattr__  # the frozen __setattr__ below refuses
        for name, value in zip(names, values):
            set_field(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since fields are frozen
        return type(self), self._values()

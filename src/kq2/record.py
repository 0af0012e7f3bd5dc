"""The base of kq2's immutable value types: what ``@dataclass(frozen=True)``
gave them, without importing ``dataclasses``, which pulls ``inspect`` into
every start-up of the CLI."""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its class annotations, in order;
    a class attribute of the same name is that field's default.

    Construction takes the fields by position or keyword and then calls
    ``self.__post_init__()``, where a subclass validates.  A record equals
    only a record of the same class with equal fields, hashes like the tuple
    of its fields and prints as ``Name(field=value, ...)``.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            cls, rest = type(self), names[len(args):]
            if (len(args) > len(names) or not kwargs.keys() <= set(rest)
                    or any(n not in kwargs and n not in cls.__dict__ for n in rest)):
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            args += tuple(kwargs[n] if n in kwargs else cls.__dict__[n] for n in rest)
        # field by field, as dataclasses do: reads of values set this way are
        # faster than of values put into a materialised __dict__
        setattr_ = object.__setattr__
        for name, value in zip(names, args):
            setattr_(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

"""Value classes without :mod:`dataclasses`, whose import loads :mod:`inspect`.

A subclass of :class:`_Record` or :class:`_FrozenRecord` has the parameters
of its ``__init__`` as its fields, and its ``__init__`` hands their values,
in that order, to ``_set``.
"""


class _Record:
    """``==`` and ``repr`` over the fields; unhashable."""

    def __init_subclass__(cls):
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _key(self) -> tuple:
        """What ``==`` compares, and ``hash`` reads when the class is frozen."""
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A read-only :class:`_Record`, hashed on what ``==`` compares."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

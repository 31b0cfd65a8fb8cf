"""Base classes of the package's models, built without ``dataclasses``.

Every command imports every model, so their definitions are start-up cost:
importing ``dataclasses`` (which imports ``inspect``) and generating the
methods of each frozen dataclass were a large share of it. Immutable
values are therefore ``typing.NamedTuple``s, hashable and compared by field,
and mutable models are ``__slots__`` classes deriving from ``Record``.
"""

from __future__ import annotations


class Checked:
    """Mixin that runs ``_check`` on every instance of a ``NamedTuple`` subclass.

    ``NamedTuple`` forbids ``__new__`` in its own body, so a checked type
    subclasses its field tuple: ``class Gav(Checked, _GavFields)``. A
    ``NamedTuple``'s ``_make`` and ``_replace`` skip ``__new__``; here both
    build through it, so a copy with changed fields passes the same checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _check(self) -> None:
        raise NotImplementedError


class Record:
    """Mutable model: equality and repr over its ``__slots__``.

    As with a dataclass, a record equals only a record of the same class, and
    is unhashable. Slots named in ``_uncompared`` are left out of both.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__
                     if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                          if name not in self._uncompared)
        return f"{type(self).__name__}({shown})"

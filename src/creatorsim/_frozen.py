"""Read-only value objects built without generated code."""

from __future__ import annotations


class Frozen:
    """Base of the package's value classes.

    A subclass's hand-written ``__init__`` checks its arguments and stores
    its fields through ``self.__dict__``; after that, assigning or deleting
    any attribute raises ``AttributeError``, as on a frozen dataclass.
    ``dataclasses`` would generate each class's methods with ``exec`` at
    import: 0.5-0.8 ms per frozen class on every CLI start, against about
    0.01 ms for a plain class.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

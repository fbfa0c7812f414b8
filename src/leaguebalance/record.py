"""The base class of the package's value records."""

from __future__ import annotations


class Record:
    """An immutable value whose fields are the attributes its ``__init__`` sets.

    A subclass's ``__init__`` stores its fields, in order, with one
    ``self.__dict__.update(...)`` and then checks them.  The instance
    ``__dict__`` is the field list, and equality, hash and repr read it:
    records of the same class are equal when their fields are, the hash is
    that of the field tuple, and the repr is ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises AttributeError.

    Records are written by hand, not generated by the standard library's
    record decorator: on Python 3.10-3.12 that decorator compiles each
    class's methods from source with ``exec`` at every import, about 1 ms
    per frozen class, paid by every CLI process.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

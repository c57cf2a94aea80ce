"""The one decorator that declares every value class of the package."""

from dataclasses import FrozenInstanceError, dataclass


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def value_class(cls):
    """cls as a frozen dataclass with slots, whose instances refuse every
    assignment and deletion with FrozenInstanceError, an AttributeError.

    The frozen __setattr__ that dataclass generates calls super() on the
    class from before slots were added, so on CPython 3.11 assigning a name
    that is not a field raises TypeError; the two methods installed here
    replace it and its __delattr__.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls

"""Exception hierarchy shared across the toolkit, with the field checks and
the eq, repr and hash methods that the package's dataclasses share.

Everything derives from ClimberError so callers (notably the CLI) can
catch domain failures in one place while letting programming errors
(ValueError, TypeError) surface normally.
"""

import math
from reprlib import recursive_repr


def is_finite_real(value):
    """Whether `value` is a real number, and not NaN or infinite. A bool is
    not one: math.isfinite(True) holds, but True is no mass or length."""
    try:
        return math.isfinite(value) and value is not True and value is not False
    except TypeError:  # not a real number, such as a str or None
        return False


def is_int(value):
    """Whether `value` is an int. A bool is not one, though it is an int
    subclass: True is no count, seed or leg id."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_finite(obj, *names):
    """Raise ValueError naming the first of the fields `names` of `obj`
    for which is_finite_real fails. Range checks alone let NaN through,
    since every comparison with it is false. The CLI checks its parsed
    arguments with it; a dataclass of this package calls check_fields."""
    for name in names:
        value = getattr(obj, name)
        if not is_finite_real(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_fields(obj):
    """Check each field of the dataclass `obj` against its annotation, in
    declaration order, and raise ValueError naming the first that fails: a
    `float` field must pass is_finite_real, an `int` field is_int, and a
    field annotated with a class of this package must hold an instance of it,
    or None where None is its default. Other fields are left to the class.

    It reads the annotations as classes: in a module that postponed its
    annotations they are strings, and no field would be checked.
    """
    for name, spec in obj.__dataclass_fields__.items():
        kind, value = spec.type, getattr(obj, name)
        if kind is float and not is_finite_real(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if kind is int and not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if (getattr(kind, "__module__", "").startswith(f"{__package__}.")
                and not isinstance(value, kind) and not (value is None and spec.default is None)):
            raise ValueError(f"{name} must be an instance of {kind.__name__}, got {value!r}")


def _values(obj):
    return tuple(getattr(obj, name) for name in obj.__dataclass_fields__)


class Fields:
    """The __eq__ and __repr__ that @dataclass writes, for a dataclass of this
    package declared with eq=False, repr=False: written once here rather
    than compiled for each class at import. == compares the field tuples of
    two instances of one class and leaves any other class to Python; repr
    reads `Class(name=value!r, ...)`, with `...` for an instance met again
    inside itself. Every field takes part: none is declared with
    compare=False or repr=False. Defining __eq__ makes a subclass unhashable,
    as @dataclass makes a class that is not frozen."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    @recursive_repr()
    def __repr__(self):
        items = zip(self.__dataclass_fields__, _values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in items)})"


class FrozenFields(Fields):
    """Fields for a frozen dataclass, with the __hash__ @dataclass gives it:
    the hash of the field tuple."""

    def __hash__(self):
        return hash(_values(self))


class ClimberError(Exception):
    """Base class for all domain errors raised by this package."""


# --- kinematics ---------------------------------------------------------

class KinematicsError(ClimberError):
    """A leg solve failed. `plane` is 'xy' or 'zy' when known."""

    def __init__(self, message, plane=None):
        super().__init__(message)
        self.plane = plane


class OutOfReach(KinematicsError):
    """Planar target radius lies outside the reachable annulus."""


class DegenerateTarget(KinematicsError):
    """Planar target coincides with the shoulder axis; heading undefined."""


class ZUnreachable(KinematicsError):
    """Requested wall clearance cannot be met at the given approach angle."""


class JointLimit(KinematicsError):
    """A solution exists but violates the configured joint limits."""


# --- gait ---------------------------------------------------------------

class UnreachableFoothold(ClimberError):
    """A planned foothold cannot be reached; carries leg id and step index."""

    def __init__(self, message, leg=None, step=None):
        super().__init__(message)
        self.leg = leg
        self.step = step


# --- simulation ---------------------------------------------------------

class ZeroCapacity(ClimberError):
    """Tangential load present but holding capacity is zero."""


# --- configuration ------------------------------------------------------

class ConfigError(ClimberError):
    """Config file is malformed or violates a value constraint."""

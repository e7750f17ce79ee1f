"""Exception hierarchy shared across the toolkit.

Everything derives from ClimberError so callers (notably the CLI) can
catch domain failures in one place while letting programming errors
(ValueError, TypeError) surface normally.
"""

import math


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
    since every comparison with it is false. The test is is_finite_real's,
    inlined: every config object and every CupTarget built from outside
    input runs it (only pose_memo builds its CupTargets unchecked)."""
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value) and value is not True and value is not False
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_int(obj, *names):
    """Raise ValueError naming the first of the fields `names` of `obj` that
    is not an int (bool excluded). A fractional count fails only mid-run,
    and a NaN seed hashes differently per object, so equal runs differ."""
    for name in names:
        value = getattr(obj, name)
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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


class GaitValidationError(ClimberError):
    """A gait script failed validation; carries the violation report."""

    def __init__(self, report):
        lines = "; ".join(str(v) for v in report.violations)
        super().__init__(f"gait script invalid: {lines}")
        self.report = report


# --- simulation ---------------------------------------------------------

class ZeroCapacity(ClimberError):
    """Tangential load present but holding capacity is zero."""


# --- configuration ------------------------------------------------------

class ConfigError(ClimberError):
    """Config file is malformed or violates a value constraint."""

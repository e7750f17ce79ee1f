"""Closed-form kinematics for one 4-DOF suction-cup leg.

Each leg carries four revolute joints split into two independent
two-link pairs:

  * joints 1 and 2 place the cup contact point in the xy plane
    (parallel to the wall; +y is the climb direction),
  * joints 3 and 4 set the wall clearance z and the cup approach
    angle k = theta3 + theta4 in the plane normal to the wall.

Because the pairs share no inputs, the xy solution never depends on
(z, k) and vice versa. All lengths are millimetres, all angles are
radians; degrees appear only at the CLI boundary.

The planar pair is a standard two-link arm: with
D = (x^2 + y^2 - a1^2 - a2^2) / (2 a1 a2),

  theta2 = atan2(+/-sqrt(1 - D^2), D)        (elbow branch picks the sign)
  theta1 = atan2(y, x) - atan2(a2 sin theta2, a1 + a2 cos theta2)

The normal pair solves a3 sin(theta3) + a4 sin(k) = z for theta3 via
asin (principal value) and then theta4 = k - theta3; theta3 + theta4 is
k exactly when a float pair with that sum exists, else within one ulp.
"""

import math
import struct
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateTarget, JointLimit, OutOfReach, ZUnreachable, check_fields

# Rounding slack when a target sits exactly on the reach boundary:
# |D| up to 1 + D_CLAMP_TOL is clamped to +/-1 instead of rejected. Each
# range check is written `not abs(v) <= 1 + D_CLAMP_TOL`, so a NaN is
# rejected too and a clamp only ever sees a finite value.
D_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class LegGeometry:
    """Link lengths of one leg, mm. a1/a2 are the xy pair, a3/a4 the zy pair."""

    a1: float = 100.0
    a2: float = 100.0
    a3: float = 100.0
    a4: float = 100.0

    def __post_init__(self):
        check_fields(self)
        for name in ("a1", "a2", "a3", "a4"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"link length {name} must be > 0, got {getattr(self, name)}")

    @property
    def xy_reach(self):
        """(inner, outer) radius of the planar annulus."""
        return abs(self.a1 - self.a2), self.a1 + self.a2


@dataclass(frozen=True)
class JointAngles:
    """One leg's four joint values, radians."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float

    def as_tuple(self):
        return (self.theta1, self.theta2, self.theta3, self.theta4)


@dataclass(frozen=True)
class JointLimits:
    """Uniform [lower, upper] interval applied to every joint, radians.

    Limit checking is opt-in: solvers only enforce limits when an
    instance is passed explicitly. The nominal hobby-servo default is
    a half-turn of travel centred on zero.
    """

    lower: float = -math.pi / 2
    upper: float = math.pi / 2

    def __post_init__(self):
        check_fields(self)
        if not self.lower < self.upper:
            raise ValueError(f"joint limits need lower < upper, got [{self.lower}, {self.upper}]")

    def allows(self, angle):
        return self.lower <= angle <= self.upper

    def require(self, angles, plane=None):
        """Raise JointLimit if any of the named angles falls outside."""
        for name, value in angles:
            if not self.allows(value):
                raise JointLimit(
                    f"{name}={value:.6f} rad outside limits "
                    f"[{self.lower:.6f}, {self.upper:.6f}]",
                    plane=plane,
                )


@dataclass(frozen=True)
class CupTarget:
    """Desired cup pose: contact point (x, y), wall clearance z, approach angle k."""

    x: float
    y: float
    z: float
    k: float

    def __post_init__(self):
        check_fields(self)
        if self.z < 0.0:
            raise ValueError(f"wall clearance z must be >= 0, got {self.z}")


class ElbowBranch(Enum):
    """Sign of sqrt(1 - D^2) in the planar solve; the two mirror elbows."""

    PLUS = 1
    MINUS = -1

    @property
    def sign(self):
        return float(self._value_)  # not .value: that goes through the Enum descriptor


def wrap_pi(angle):
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _split_approach_angle(k, theta3):
    """Return (theta3', theta4') near (theta3, k - theta3) whose float sum
    is k exactly when such a pair exists, and otherwise within one ulp of
    the larger of |theta3'| and |theta4'| (at z = 100 mm, for 122 of the
    881 approach angles on a 0.1 deg grid from 1 to 89 deg, e.g. 12.8 deg).

    A plain float subtraction leaves the sum one ulp off for a fair share
    of inputs. Re-projecting theta3 onto the complement of theta4 (a shift
    of at most ~2 ulp, far below solver tolerance) finds an exact pair if
    one exists; otherwise the plain split is returned.
    """
    t4 = k - theta3
    t3 = k - t4
    if t3 + t4 == k:
        return t3, t4
    for _ in range(16):
        s = t3 + t4
        t4 = math.nextafter(t4, math.inf if s < k else -math.inf)
        t3 = k - t4
        if t3 + t4 == k:
            return t3, t4
    return theta3, k - theta3


def ik_planar_xy(geom, x, y, branch=ElbowBranch.PLUS, limits=None):
    """Solve the xy pair for a contact point, returning (theta1, theta2).

    Raises DegenerateTarget at the origin, OutOfReach outside the
    annulus (a NaN or infinite coordinate included), and JointLimit when
    `limits` is given and violated.
    """
    r_sq = x * x + y * y
    if r_sq == 0.0:
        raise DegenerateTarget("planar target (0, 0): heading atan2(y, x) undefined", plane="xy")

    d = (r_sq - geom.a1 * geom.a1 - geom.a2 * geom.a2) / (2.0 * geom.a1 * geom.a2)
    if not abs(d) <= 1.0 + D_CLAMP_TOL:
        inner, outer = geom.xy_reach
        raise OutOfReach(
            f"planar target ({x}, {y}) at radius {math.sqrt(r_sq):.6f} mm outside "
            f"annulus [{inner:.6f}, {outer:.6f}] mm (D={d:.6f})",
            plane="xy",
        )
    d = 1.0 if d > 1.0 else -1.0 if d < -1.0 else d

    theta2 = math.atan2(branch.sign * math.sqrt(1.0 - d * d), d)
    theta1 = wrap_pi(
        math.atan2(y, x)
        - math.atan2(geom.a2 * math.sin(theta2), geom.a1 + geom.a2 * math.cos(theta2))
    )
    if limits is not None:
        limits.require((("theta1", theta1), ("theta2", theta2)), plane="xy")
    return theta1, theta2


def ik_normal_zy(geom, z, k, limits=None):
    """Solve the zy pair for clearance z and approach angle k.

    theta3 is the asin principal value (the mirror solution would fold
    the leg through the body); theta4 completes the approach angle k, to
    within one ulp where no float pair sums to k (_split_approach_angle).
    Raises ZUnreachable when no theta3 exists (a NaN or infinite z or k
    included).
    """
    try:
        arg = (z - geom.a4 * math.sin(k)) / geom.a3
    except ValueError:  # math.sin of an infinite k
        arg = math.nan
    if not abs(arg) <= 1.0 + D_CLAMP_TOL:
        raise ZUnreachable(
            f"clearance z={z} mm at approach k={k:.6f} rad needs sin(theta3)={arg:.6f} "
            "outside [-1, 1]",
            plane="zy",
        )
    arg = 1.0 if arg > 1.0 else -1.0 if arg < -1.0 else arg

    theta3, theta4 = _split_approach_angle(k, math.asin(arg))
    if limits is not None:
        limits.require((("theta3", theta3), ("theta4", theta4)), plane="zy")
    return theta3, theta4


def solve_leg(geom, target, branch=ElbowBranch.PLUS, limits=None):
    """Solve all four joints for a CupTarget; composition of the two pairs."""
    theta1, theta2 = ik_planar_xy(geom, target.x, target.y, branch, limits)
    theta3, theta4 = ik_normal_zy(geom, target.z, target.k, limits)
    return JointAngles(theta1, theta2, theta3, theta4)


def pose_memo(solve, geom, k, branch, limits):
    """Return pose(x, y, z): solve(geom, CupTarget(x, y, z, k), branch, limits)
    once per distinct target, so equal poses share one JointAngles. The key is
    the target's exact bits; float keys would conflate 0.0 and -0.0, which
    atan2 tells apart. run_scenario passes its own module's solve_leg binding,
    so patching that binding (in a test or a tracer) reaches every solve. A
    run that keeps no records and has no joint limits never calls its memo: it
    reads no angle, and generate_cycle's validate has already found every pose
    it commands in reach, so it neither solves, checks nor builds a pose.

    Each target is a frozen CupTarget, equal to a checked one, built without
    running CupTarget's check again: run_scenario computes every input from
    the GaitScript that generate_cycle built from a checked, frozen GaitParams.
      * x and y are um_to_mm of integer um, or a swing_waypoint between two
        such points;
      * z is script.z_mm, or z_mm - lift_mm * f with 0 <= f <= 1, where
        generate_cycle copies z_mm and lift_mm from the GaitParams, which
        enforces 0 <= lift_mm <= z_mm, both finite, so z >= 0;
      * k is script.k_rad, copied from the GaitParams, which checks it.
    A CupTarget built from any other input runs the check as before."""
    solved = {}

    def pose(x, y, z):
        key = struct.pack("<3d", x, y, z)
        hit = solved.get(key)
        if hit is None:
            target = object.__new__(CupTarget)
            target.__dict__.update(x=x, y=y, z=z, k=k)
            hit = solved[key] = solve(geom, target, branch, limits)
        return hit

    return pose


def fk_planar_xy(geom, theta1, theta2):
    """Contact point reached by the xy pair. Verification oracle for the solver."""
    x = geom.a1 * math.cos(theta1) + geom.a2 * math.cos(theta1 + theta2)
    y = geom.a1 * math.sin(theta1) + geom.a2 * math.sin(theta1 + theta2)
    return x, y


def fk_normal_z(geom, theta3, theta4):
    """Clearance and approach angle reached by the zy pair."""
    z = geom.a3 * math.sin(theta3) + geom.a4 * math.sin(theta3 + theta4)
    return z, theta3 + theta4


def fk_leg(geom, angles):
    """Full-pose forward kinematics: JointAngles -> CupTarget."""
    x, y = fk_planar_xy(geom, angles.theta1, angles.theta2)
    z, k = fk_normal_z(geom, angles.theta3, angles.theta4)
    if -1e-9 < z < 0.0:
        z = 0.0  # rounding residue from z = 0 targets
    return CupTarget(x, y, z, k)


def reachable(geom, target, limits=None):
    """Check a CupTarget without raising.

    Returns (True, None) when both plane solves succeed and, if limits
    are given, at least one elbow branch respects them. Otherwise
    returns (False, reason) with reason one of 'degenerate_target',
    'out_of_reach', 'z_unreachable', 'joint_limit'.
    """
    try:
        ik_normal_zy(geom, target.z, target.k, limits)
    except ZUnreachable:
        return False, "z_unreachable"
    except JointLimit:
        return False, "joint_limit"

    last = None
    for branch in (ElbowBranch.PLUS, ElbowBranch.MINUS):
        try:
            ik_planar_xy(geom, target.x, target.y, branch, limits)
            return True, None
        except DegenerateTarget:
            return False, "degenerate_target"
        except OutOfReach:
            return False, "out_of_reach"
        except JointLimit:
            last = "joint_limit"
    return False, last

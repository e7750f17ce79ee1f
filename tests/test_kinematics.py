import math
from types import SimpleNamespace

import numpy as np
import pytest

from wallclimber.errors import DegenerateTarget, JointLimit, OutOfReach, ZUnreachable
from wallclimber.kinematics import (
    CupTarget,
    ElbowBranch,
    JointLimits,
    LegGeometry,
    _split_approach_angle,
    fk_leg,
    fk_normal_z,
    fk_planar_xy,
    ik_normal_zy,
    ik_planar_xy,
    reachable,
    solve_leg,
)

GEOM = LegGeometry(100.0, 100.0, 100.0, 100.0)
TOL_MM = 1e-9


def sample_xy_target(rng, geom):
    inner, outer = geom.xy_reach
    r = rng.uniform(max(inner, 1e-6), outer)
    phi = rng.uniform(-math.pi, math.pi)
    return r * math.cos(phi), r * math.sin(phi)


def sample_zk(rng, geom, nonnegative=True):
    """A (z, k) pair satisfiable for the zy pair (z >= 0 when asked)."""
    k = rng.uniform(-math.pi, math.pi)
    lo = geom.a4 * math.sin(k) - geom.a3
    hi = geom.a4 * math.sin(k) + geom.a3
    if nonnegative:
        lo = max(0.0, lo)
    return rng.uniform(lo, hi), k


# --- planar pair ----------------------------------------------------------

def test_ik_planar_fully_extended():
    t1, t2 = ik_planar_xy(GEOM, 200.0, 0.0, ElbowBranch.PLUS)
    assert t1 == 0.0
    assert t2 == 0.0


def test_ik_planar_right_angle_elbow():
    t1, t2 = ik_planar_xy(GEOM, 100.0, 100.0, ElbowBranch.PLUS)
    assert t1 == pytest.approx(0.0, abs=TOL_MM)
    assert t2 == pytest.approx(math.pi / 2, abs=TOL_MM)
    # verification against the arm equations directly
    assert 100.0 * math.cos(t1) + 100.0 * math.cos(t1 + t2) == pytest.approx(100.0, abs=TOL_MM)
    assert 100.0 * math.sin(t1) + 100.0 * math.sin(t1 + t2) == pytest.approx(100.0, abs=TOL_MM)


def test_ik_planar_out_of_reach():
    for branch in ElbowBranch:
        with pytest.raises(OutOfReach):
            ik_planar_xy(GEOM, 300.0, 0.0, branch)


def test_ik_planar_inside_annulus_rejected():
    geom = LegGeometry(120.0, 80.0, 100.0, 100.0)
    with pytest.raises(OutOfReach):
        ik_planar_xy(geom, 20.0, 0.0)


def test_ik_planar_origin_degenerate():
    with pytest.raises(DegenerateTarget):
        ik_planar_xy(GEOM, 0.0, 0.0)


def test_fk_planar_examples():
    assert fk_planar_xy(GEOM, 0.0, 0.0) == pytest.approx((200.0, 0.0), abs=TOL_MM)
    assert fk_planar_xy(GEOM, math.pi / 2, 0.0) == pytest.approx((0.0, 200.0), abs=TOL_MM)
    folded = fk_planar_xy(GEOM, 0.0, math.pi)
    assert folded == pytest.approx((0.0, 0.0), abs=TOL_MM)


def test_planar_round_trip_both_branches():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        x, y = sample_xy_target(rng, GEOM)
        for branch in ElbowBranch:
            t1, t2 = ik_planar_xy(GEOM, x, y, branch)
            fx, fy = fk_planar_xy(GEOM, t1, t2)
            assert abs(fx - x) <= TOL_MM
            assert abs(fy - y) <= TOL_MM


def test_planar_round_trip_unequal_links():
    geom = LegGeometry(120.0, 80.0, 100.0, 100.0)
    rng = np.random.default_rng(102)
    for _ in range(500):
        x, y = sample_xy_target(rng, geom)
        for branch in ElbowBranch:
            t1, t2 = ik_planar_xy(geom, x, y, branch)
            fx, fy = fk_planar_xy(geom, t1, t2)
            assert abs(fx - x) <= TOL_MM
            assert abs(fy - y) <= TOL_MM


def test_planar_boundary_full_extension_and_fold():
    # On-axis targets give D = +/-1 exactly: theta2 is exactly 0 at full
    # extension and exactly pi at full fold, and both solve without error.
    geom = LegGeometry(120.0, 80.0, 100.0, 100.0)
    inner, outer = geom.xy_reach
    t1, t2 = ik_planar_xy(geom, outer, 0.0)
    assert (t1, t2) == (0.0, 0.0)
    t1, t2 = ik_planar_xy(geom, inner, 0.0, ElbowBranch.PLUS)
    assert abs(t2) == math.pi
    t1, t2 = ik_planar_xy(geom, 0.0, -outer)
    assert t2 == 0.0
    assert fk_planar_xy(geom, t1, t2) == pytest.approx((0.0, -outer), abs=TOL_MM)

    # Rotated boundary targets land within float rounding of |D| = 1;
    # they must still solve, round-trip tightly, and sit at the fold.
    rng = np.random.default_rng(103)
    for _ in range(50):
        phi = rng.uniform(-math.pi, math.pi)
        x, y = outer * math.cos(phi), outer * math.sin(phi)
        t1, t2 = ik_planar_xy(geom, x, y)
        assert abs(t2) <= 1e-7
        fx, fy = fk_planar_xy(geom, t1, t2)
        assert abs(fx - x) <= TOL_MM
        assert abs(fy - y) <= TOL_MM

        x, y = inner * math.cos(phi), inner * math.sin(phi)
        t1, t2 = ik_planar_xy(geom, x, y)
        assert abs(abs(t2) - math.pi) <= 1e-7
        fx, fy = fk_planar_xy(geom, t1, t2)
        assert abs(fx - x) <= TOL_MM
        assert abs(fy - y) <= TOL_MM


def test_branch_equivalence_under_fk():
    rng = np.random.default_rng(104)
    for _ in range(200):
        x, y = sample_xy_target(rng, GEOM)
        plus = fk_planar_xy(GEOM, *ik_planar_xy(GEOM, x, y, ElbowBranch.PLUS))
        minus = fk_planar_xy(GEOM, *ik_planar_xy(GEOM, x, y, ElbowBranch.MINUS))
        np.testing.assert_allclose(plus, minus, atol=TOL_MM)


def test_planar_joint_limits_enforced():
    # stance-distance target needs |theta2| ~ 111 deg on either branch
    limits = JointLimits()
    with pytest.raises(JointLimit):
        ik_planar_xy(GEOM, 80.0, 80.0, ElbowBranch.PLUS, limits)
    with pytest.raises(JointLimit):
        ik_planar_xy(GEOM, 80.0, 80.0, ElbowBranch.MINUS, limits)
    # same target passes without limits
    ik_planar_xy(GEOM, 80.0, 80.0, ElbowBranch.PLUS)


# --- normal pair ----------------------------------------------------------

def test_ik_normal_distal_link_carries_z():
    t3, t4 = ik_normal_zy(GEOM, 100.0, math.pi / 2)
    assert t3 == pytest.approx(0.0, abs=TOL_MM)
    assert t4 == pytest.approx(math.pi / 2, abs=TOL_MM)


def test_ik_normal_flat_leg():
    t3, t4 = ik_normal_zy(GEOM, 0.0, 0.0)
    assert t3 == 0.0
    assert t4 == 0.0


def test_ik_normal_unreachable():
    with pytest.raises(ZUnreachable):
        ik_normal_zy(GEOM, 250.0, math.pi / 2)


def test_fk_normal_examples():
    z, k = fk_normal_z(GEOM, 0.0, math.pi / 2)
    assert z == pytest.approx(100.0, abs=TOL_MM)
    assert k == math.pi / 2
    z, k = fk_normal_z(GEOM, math.pi / 2, -math.pi / 2)
    assert z == pytest.approx(100.0, abs=TOL_MM)
    assert k == 0.0
    assert fk_normal_z(GEOM, 0.0, 0.0) == (0.0, 0.0)


def test_normal_round_trip_and_exact_approach_angle():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        z, k = sample_zk(rng, GEOM, nonnegative=False)
        t3, t4 = ik_normal_zy(GEOM, z, k)
        z_back = GEOM.a3 * math.sin(t3) + GEOM.a4 * math.sin(t3 + t4)
        assert abs(z_back - z) <= TOL_MM
        assert t3 + t4 == k  # bit-exact recomposition
        assert -math.pi / 2 <= t3 <= math.pi / 2  # principal value


def test_split_approach_angle_nudges_to_an_exact_pair():
    # At a binade edge the plain split misses k by one ulp; a nudge of
    # theta4 finds a pair whose float sum is k. Such inputs are rare: none of
    # the 881 angles of the docstring's grid is one.
    k, theta3 = -0.0013178842795895374, 0.25
    t4 = k - theta3
    assert (k - t4) + t4 != k
    t3, t4 = _split_approach_angle(k, theta3)
    assert (t3, t4) == (0.24999999999999997, -0.2513178842795895)
    assert t3 + t4 == k


def test_normal_joint_limits_enforced():
    limits = JointLimits()
    with pytest.raises(JointLimit):
        ik_normal_zy(GEOM, 0.0, 2.5, limits)  # theta4 = 2.5 rad > pi/2


def test_fk_leg_clamps_the_rounding_residue_of_a_zero_clearance():
    # at z = 0 the zy pair's forward sum can land an ulp or so below zero
    angles = solve_leg(GEOM, CupTarget(200.0, 0.0, 0.0, math.radians(2.4)))
    assert fk_normal_z(GEOM, angles.theta3, angles.theta4)[0] == -8.881784197001252e-16
    assert fk_leg(GEOM, angles).z == 0.0


# --- composition ----------------------------------------------------------

def test_solve_leg_trivial_composition():
    angles = solve_leg(GEOM, CupTarget(200.0, 0.0, 100.0, math.pi / 2), ElbowBranch.PLUS)
    assert angles.theta1 == 0.0
    assert angles.theta2 == 0.0
    assert angles.theta3 == pytest.approx(0.0, abs=TOL_MM)
    assert angles.theta4 == pytest.approx(math.pi / 2, abs=TOL_MM)


def test_solve_leg_degenerate_origin():
    with pytest.raises(DegenerateTarget):
        solve_leg(GEOM, CupTarget(0.0, 0.0, 100.0, math.pi / 2))


def test_solve_leg_error_carries_plane():
    with pytest.raises(OutOfReach) as info:
        solve_leg(GEOM, CupTarget(300.0, 0.0, 100.0, math.pi / 2))
    assert info.value.plane == "xy"
    with pytest.raises(ZUnreachable) as info:
        solve_leg(GEOM, CupTarget(150.0, 0.0, 250.0, math.pi / 2))
    assert info.value.plane == "zy"


def test_solve_leg_full_round_trip_property():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        x, y = sample_xy_target(rng, GEOM)
        z, k = sample_zk(rng, GEOM)
        target = CupTarget(x, y, z, k)
        branch = ElbowBranch.PLUS if rng.uniform() < 0.5 else ElbowBranch.MINUS
        angles = solve_leg(GEOM, target, branch)
        echo = fk_leg(GEOM, angles)
        assert abs(echo.x - x) <= TOL_MM
        assert abs(echo.y - y) <= TOL_MM
        assert abs(echo.z - z) <= TOL_MM
        assert echo.k == k


def test_decoupling_bit_identical():
    rng = np.random.default_rng(107)
    for _ in range(100):
        x, y = sample_xy_target(rng, GEOM)
        z1, k1 = sample_zk(rng, GEOM)
        z2, k2 = sample_zk(rng, GEOM)
        a = solve_leg(GEOM, CupTarget(x, y, z1, k1))
        b = solve_leg(GEOM, CupTarget(x, y, z2, k2))
        assert (a.theta1, a.theta2) == (b.theta1, b.theta2)

        x2, y2 = sample_xy_target(rng, GEOM)
        c = solve_leg(GEOM, CupTarget(x2, y2, z1, k1))
        assert (a.theta3, a.theta4) == (c.theta3, c.theta4)


# --- reachability ---------------------------------------------------------

def test_reachable_examples():
    assert reachable(GEOM, CupTarget(150.0, 0.0, 100.0, math.pi / 2)) == (True, None)
    ok, reason = reachable(GEOM, CupTarget(300.0, 0.0, 100.0, math.pi / 2))
    assert (ok, reason) == (False, "out_of_reach")
    ok, reason = reachable(GEOM, CupTarget(150.0, 0.0, 250.0, math.pi / 2))
    assert (ok, reason) == (False, "z_unreachable")
    ok, reason = reachable(GEOM, CupTarget(0.0, 0.0, 100.0, math.pi / 2))
    assert (ok, reason) == (False, "degenerate_target")


def test_reachable_with_limits():
    limits = JointLimits()
    ok, reason = reachable(GEOM, CupTarget(80.0, 80.0, 100.0, math.pi / 2), limits)
    assert (ok, reason) == (False, "joint_limit")
    # a zy pair past the limits: z = 80 mm at k = 90 deg needs theta4 = 90 deg + asin(0.2)
    ok, reason = reachable(GEOM, CupTarget(150.0, 0.0, 80.0, math.pi / 2), limits)
    assert (ok, reason) == (False, "joint_limit")
    # one branch inside limits is enough
    assert reachable(GEOM, CupTarget(150.0, 0.0, 100.0, math.pi / 2), limits) == (True, None)


# --- NaN and infinite inputs -------------------------------------------------
# CupTarget rejects NaN and infinities, but the plane solvers and reachable
# take bare numbers or any object with x, y, z and k. A NaN or an infinity
# fails the range check of its plane; math.sin of an infinite k counts as NaN.

@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
                                  (math.inf, 0.0), (0.0, -math.inf), (math.inf, -math.inf)])
def test_ik_planar_rejects_nan(x, y):
    for geom in (GEOM, LegGeometry(100.0, 80.0, 100.0, 100.0)):
        with pytest.raises(OutOfReach) as info:
            ik_planar_xy(geom, x, y)
        assert info.value.plane == "xy"


@pytest.mark.parametrize("z, k", [(math.nan, 0.5), (100.0, math.nan), (math.inf, 0.5),
                                  (100.0, math.inf), (100.0, -math.inf)])
def test_ik_normal_rejects_nan(z, k):
    with pytest.raises(ZUnreachable) as info:
        ik_normal_zy(GEOM, z, k)
    assert info.value.plane == "zy"


def test_reachable_rejects_nan():
    def target(**coords):
        return SimpleNamespace(**{"x": 150.0, "y": 0.0, "z": 100.0, "k": math.pi / 2, **coords})

    assert reachable(GEOM, target()) == (True, None)
    assert reachable(GEOM, target(x=math.nan)) == (False, "out_of_reach")
    assert reachable(GEOM, target(y=math.nan)) == (False, "out_of_reach")
    assert reachable(GEOM, target(z=math.nan)) == (False, "z_unreachable")
    assert reachable(GEOM, target(k=math.nan)) == (False, "z_unreachable")
    for inf in (math.inf, -math.inf):
        assert reachable(GEOM, target(x=inf)) == (False, "out_of_reach")
        assert reachable(GEOM, target(y=inf)) == (False, "out_of_reach")
        assert reachable(GEOM, target(z=inf)) == (False, "z_unreachable")
        assert reachable(GEOM, target(k=inf)) == (False, "z_unreachable")


# --- value types ----------------------------------------------------------

def test_leg_geometry_rejects_nonpositive_links():
    with pytest.raises(ValueError):
        LegGeometry(0.0, 100.0, 100.0, 100.0)
    with pytest.raises(ValueError):
        LegGeometry(100.0, 100.0, -5.0, 100.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_leg_geometry_rejects_non_finite_links(value):
    for name in ("a1", "a2", "a3", "a4"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LegGeometry(**{name: value})


def test_joint_limits_reject_non_finite():
    with pytest.raises(ValueError, match="lower must be finite"):
        JointLimits(-math.inf, 1.0)
    with pytest.raises(ValueError, match="upper must be finite"):
        JointLimits(-1.0, math.nan)


def test_cup_target_rejects_negative_clearance():
    with pytest.raises(ValueError, match="wall clearance z must be >= 0"):
        CupTarget(100.0, 0.0, -1.0, 0.0)


@pytest.mark.parametrize("field", ["x", "y", "z", "k"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cup_target_rejects_non_finite(field, value):
    # Only a run's own memoised solves skip the check; a target built for a
    # direct solve is checked before anything is solved.
    coords = {"x": 150.0, "y": 0.0, "z": 100.0, "k": math.pi / 2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        solve_leg(GEOM, CupTarget(**coords))


def test_elbow_branch_signs_are_floats():
    assert type(ElbowBranch.PLUS.sign) is float and ElbowBranch.PLUS.sign == 1.0
    assert type(ElbowBranch.MINUS.sign) is float and ElbowBranch.MINUS.sign == -1.0


def test_joint_limits_validation():
    with pytest.raises(ValueError):
        JointLimits(1.0, 1.0)
    limits = JointLimits(-1.0, 1.0)
    assert limits.allows(1.0)
    assert not limits.allows(1.0000001)

"""Property tests of the invariants the gait relies on.

Over random one-cycle scenarios (angle, mass, leak, timings, tick length,
slip model, advance mode, noise), every tick of a run must keep:

* at least three cups attached;
* on noise-free runs, a cup attached exactly when its valve is on suction
  and its pressure is at or below the attach threshold (the pumps run
  throughout);
* a body that never moves back;
* a total energy equal to the in-order sum of power times tick.

Runs that fail (overload, attach timeout) are checked the same way up to
their last tick. Three planning properties ride along: every generated
cycle closes exactly in integer micrometres, forward kinematics of a solved
leg returns its target on either elbow branch, and every swing waypoint is
a finite point at a clearance of at least 0 (what lets a run's pose memo
skip CupTarget's check). The reach check that planning uses, `reachable`,
passes exactly where a limit-free solve succeeds, on both sides of every
reach boundary, and a plan that passes on a leg with an inner hole runs
without a reach error. The examples are derandomised, so every run of the
suite tries the same scenarios.
"""

import math

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from wallclimber.gait import (
    ADVANCE_MODES,
    ADVANCE_PER_CYCLE,
    LEG_IDS,
    FootholdMap,
    generate_cycle,
    replay,
    swing_waypoint,
)
from wallclimber.errors import KinematicsError, UnreachableFoothold
from wallclimber.kinematics import (
    CupTarget,
    ElbowBranch,
    LegGeometry,
    fk_leg,
    reachable,
    solve_leg,
)
from wallclimber.pneumatics import AdhesionModel, Valve
from wallclimber.simulator import GaitParams, ScenarioConfig, run_scenario


def finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


scenarios = st.builds(
    ScenarioConfig,
    climb_angle_deg=finite(0.0, 90.0),
    mass_kg=finite(0.5, 20.0),
    cycles=st.just(1),
    tick_s=finite(0.01, 0.05),
    gait=st.builds(GaitParams, step_length_mm=finite(1.0, 50.0),
                   advance_mode=st.sampled_from(ADVANCE_MODES),
                   swing_s=finite(0.05, 0.8), advance_s=finite(0.05, 0.8)),
    adhesion=st.builds(AdhesionModel, dwell_s=finite(0.05, 0.8), vent_s=finite(0.05, 0.8),
                       friction=finite(0.2, 1.0), leak_kpa_per_s=finite(0.0, 150.0)),
    c_slip=finite(0.0, 1.0),
    s_max=finite(0.0, 0.95),
    seed=st.integers(0, 2**16),
    noise_kpa=st.one_of(st.just(0.0), finite(0.0, 1.0)),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenarios)
def test_every_tick_keeps_the_gait_invariants(config):
    report = run_scenario(config)
    event("completed" if report.completed else report.failure_reason.split(":")[0])
    threshold = config.adhesion.attach_threshold_kpa
    energy_j = 0.0
    body_mm = 0.0
    for rec in report.records:
        assert sum(rec.attached.values()) >= 3
        if config.noise_kpa == 0.0:
            for leg in LEG_IDS:
                assert rec.attached[leg] == (rec.valve[leg] is Valve.SUCTION
                                             and rec.pressure_kpa[leg] <= threshold)
        assert rec.body_mm >= body_mm
        body_mm = rec.body_mm
        energy_j += rec.power_w * config.tick_s
    assert report.ticks == len(report.records)
    assert report.total_energy_j == energy_j


# Inside the default leg's reach on every checked point of a cycle of up to
# 40 mm steps, and away from the shoulder axis.
stance_points = st.tuples(st.one_of(finite(-100.0, -20.0), finite(20.0, 100.0)),
                          finite(-100.0, 100.0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stance=st.fixed_dictionaries({leg: stance_points for leg in LEG_IDS}),
       order=st.permutations(LEG_IDS), step_length_mm=finite(0.001, 40.0),
       advance_mode=st.sampled_from(ADVANCE_MODES))
def test_every_cycle_closes_exactly(stance, order, step_length_mm, advance_mode):
    geom = LegGeometry()
    footholds = FootholdMap.from_mm(stance)
    script = generate_cycle(geom, GaitParams(stance_mm=stance, step_length_mm=step_length_mm,
                                             order=tuple(order), advance_mode=advance_mode))
    stances = list(replay(script))
    assert len(stances) == len(script.steps) + 1
    assert stances[0] == stances[-1] == footholds.points_um
    assert sum(step.body_advance_um for step in script.steps) == script.step_length_um
    assert sorted(step.swing_leg for step in script.steps) == list(LEG_IDS)
    assert all(step.body_advance_um >= 0 for step in script.steps)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(links=st.tuples(*[finite(20.0, 200.0)] * 4), theta1=finite(-math.pi, math.pi),
       elbow=finite(0.01, math.pi - 0.01), theta3=finite(-1.5, 1.5), k=finite(0.0, math.pi),
       branch=st.sampled_from(list(ElbowBranch)))
def test_solving_then_forward_kinematics_returns_the_target(links, theta1, elbow, theta3, k,
                                                             branch):
    geom = LegGeometry(*links)
    # forward kinematics of a reachable pose gives the target; it is solved
    # on the sampled branch, whichever side the sampled elbow was on
    x = geom.a1 * math.cos(theta1) + geom.a2 * math.cos(theta1 + elbow)
    y = geom.a1 * math.sin(theta1) + geom.a2 * math.sin(theta1 + elbow)
    z = geom.a3 * math.sin(theta3) + geom.a4 * math.sin(k)
    assume(z >= 0.0)
    angles = solve_leg(geom, CupTarget(x, y, z, k), branch)
    assert math.copysign(1.0, angles.theta2) == branch.sign
    echo = fk_leg(geom, angles)
    tol_mm = 1e-9 * max(links)
    assert abs(echo.x - x) <= tol_mm and abs(echo.y - y) <= tol_mm
    assert abs(echo.z - z) <= tol_mm
    # theta3 + theta4 cannot always equal k exactly: k may carry bits finer
    # than the spacing of floats near the two joint angles
    assert abs(echo.k - k) <= math.ulp(max(abs(angles.theta3), abs(angles.theta4)))


@st.composite
def clearance_and_lift(draw):
    """(z_mm, lift_mm) with 0 <= lift_mm <= z_mm, as GaitParams enforces."""
    z_mm = draw(finite(0.0, 1e300))
    return z_mm, draw(st.one_of(st.just(z_mm), finite(0.0, z_mm)))


# Planning keeps footholds within a leg's reach, far inside these bounds,
# which leave the endpoints' difference room to stay finite.
endpoints = st.tuples(finite(-1e300, 1e300), finite(-1e300, 1e300))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(old_mm=endpoints, new_mm=endpoints,
       progress=st.one_of(st.just(0.5), finite(0.0, 1.0)), clearance=clearance_and_lift())
@example(old_mm=(150.0, -80.0), new_mm=(150.0, 80.0), progress=0.5, clearance=(100.0, 100.0))
def test_swing_waypoints_are_finite_and_clear_of_the_wall(old_mm, new_mm, progress, clearance):
    z_mm, lift_mm = clearance
    x, y, z = swing_waypoint(old_mm, new_mm, progress, z_mm, lift_mm)
    assert math.isfinite(x) and math.isfinite(y)
    assert math.isfinite(z) and z >= 0.0


# Equal links reach down to the shoulder axis; the second geometry leaves an
# inner hole of radius 20 mm.
GEOMETRIES = [LegGeometry(), LegGeometry(100.0, 80.0, 100.0, 100.0)]


def outcome(call, *args):
    """(class, plane, message) of the KinematicsError that call raises, else None."""
    try:
        call(*args)
    except KinematicsError as exc:
        return type(exc), exc.plane, str(exc)
    return None


def assert_same_outcome(geom, x, y, z, k):
    """validate's reach check passes a point exactly where the run's solve
    of it succeeds."""
    target = CupTarget(x, y, z, k)
    solved = outcome(solve_leg, geom, target, ElbowBranch.PLUS, None)
    assert reachable(geom, target)[0] == (solved is None)
    return solved


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(geom=st.sampled_from(GEOMETRIES), x=finite(-250.0, 250.0), y=finite(-250.0, 250.0),
       z=finite(0.0, 300.0), k=finite(-math.pi, math.pi))
@example(geom=GEOMETRIES[0], x=0.0, y=0.0, z=100.0, k=math.pi / 2)
@example(geom=GEOMETRIES[1], x=0.0, y=0.0, z=100.0, k=math.pi / 2)
@example(geom=GEOMETRIES[1], x=19.2, y=-5.066666666666667, z=100.0, k=math.pi / 2)
def test_reach_check_fails_where_a_limit_free_solve_fails(geom, x, y, z, k):
    solved = assert_same_outcome(geom, x, y, z, k)
    event(solved[0].__name__ if solved else "in reach")


def adjacent_across(fails, inside, outside):
    """The two adjacent floats between `inside` and `outside` across which
    fails(value) turns from False to True."""
    assert not fails(inside) and fails(outside)
    while math.nextafter(inside, outside) != outside:
        mid = (inside + outside) / 2
        if fails(mid):
            outside = mid
        else:
            inside = mid
    return [inside, outside]


def boundary_targets():
    """Targets one ulp either side of D = +(1 + tol), of D = -(1 + tol) where
    the geometry has an inner hole, and of sin(theta3) = 1 + tol."""
    k = math.pi / 2
    targets = []
    for index, geom in enumerate(GEOMETRIES):
        def xy_fails(x):
            return outcome(solve_leg, geom, CupTarget(x, 0.0, 100.0, k)) is not None

        def z_fails(z):
            return outcome(solve_leg, geom, CupTarget(150.0, 0.0, z, k)) is not None

        inner, outer = geom.xy_reach
        sides = [("outer", x, 0.0, 100.0) for x in adjacent_across(xy_fails, 150.0, outer + 1.0)]
        if inner > 0.0:
            sides += [("inner", x, 0.0, 100.0)
                      for x in adjacent_across(xy_fails, 150.0, inner - 1.0)]
        sides += [("z", 150.0, 0.0, z) for z in adjacent_across(z_fails, 150.0, 250.0)]
        targets += [pytest.param(geom, x, y, z, k, id=f"geom{index}-{name}-{x}-{z}")
                    for name, x, y, z in sides]
    return targets


@pytest.mark.parametrize("geom, x, y, z, k", boundary_targets())
def test_reach_check_agrees_one_ulp_either_side_of_each_boundary(geom, x, y, z, k):
    assert_same_outcome(geom, x, y, z, k)


@st.composite
def inner_hole_scenarios(draw):
    """Scenarios on a leg with an inner hole of 0 to 45 mm, whose footholds
    lie inside the hole's x range, within 1 mm beyond it, or up to 25 mm
    beyond it, on either side."""
    geom = LegGeometry(100.0, draw(finite(55.0, 100.0)), 100.0, 100.0)
    hole = geom.xy_reach[0]

    def foothold():
        x = draw(st.one_of(finite(0.0, hole), finite(hole, hole + 1.0),
                           finite(hole, hole + 25.0)))
        y = draw(st.one_of(finite(-60.0, -hole), finite(hole, 60.0), finite(-60.0, 60.0)))
        return x * draw(st.sampled_from((-1.0, 1.0))), y

    gait = GaitParams(stance_mm={leg: foothold() for leg in LEG_IDS},
                      step_length_mm=draw(finite(1.0, 60.0)),
                      order=tuple(draw(st.permutations(LEG_IDS))),
                      advance_mode=draw(st.sampled_from(ADVANCE_MODES)))
    return ScenarioConfig(climb_angle_deg=draw(finite(0.0, 90.0)),
                          mass_kg=draw(finite(0.5, 20.0)), cycles=draw(st.integers(1, 3)),
                          geometry=geom, gait=gait)


# Leg 1's swing from (2, -10) to (2, 30) crosses a 5 mm hole between its
# checked points: its ticks from y = -4 to y = 4 fall inside it.
CROSSES_THE_HOLE = ScenarioConfig(
    geometry=LegGeometry(100.0, 95.0, 100.0, 100.0),
    gait=GaitParams(stance_mm={1: (2.0, -10.0), 2: (30.0, 40.0), 3: (30.0, -40.0),
                               4: (-30.0, 40.0)},
                    step_length_mm=40.0, advance_mode=ADVANCE_PER_CYCLE))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inner_hole_scenarios())
@example(CROSSES_THE_HOLE)
def test_a_plan_that_passes_cannot_fail_on_reach(config):
    try:
        generate_cycle(config.geometry, config.gait, config.limits)
    except UnreachableFoothold:
        event("refused")
        return
    event("planned")
    # A run that keeps its records solves every pose it commands, and
    # raises the KinematicsError of the first one out of reach.
    report = run_scenario(config)
    assert report.ticks == len(report.records)

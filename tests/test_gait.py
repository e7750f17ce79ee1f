import dataclasses
import math
import re

import numpy as np
import pytest

from wallclimber.errors import (
    JointLimit,
    UnreachableFoothold,
)
from wallclimber.gait import (
    ADVANCE_PER_CYCLE,
    LEG_IDS,
    FootholdMap,
    GaitParams,
    GaitStep,
    compile_joint_table,
    generate_cycle,
    mm_to_um,
    split_um,
    validate,
)
from wallclimber.config import load_config
from wallclimber.kinematics import (CupTarget, JointLimits, LegGeometry, fk_leg, ik_normal_zy,
                                    ik_planar_xy, solve_leg)
from wallclimber.simulator import ScenarioConfig, run_scenario

GEOM = LegGeometry()

# A pose other than the default in each of z, k, lift and elbow branch.
POSE_INI = "[gait]\nz_mm = 90\nk_deg = 80\nlift_mm = 10\nbranch = minus\n"


def default_cycle(limits=None, **gait):
    return generate_cycle(GEOM, GaitParams(**gait), limits)


# --- generation -----------------------------------------------------------

def test_generate_cycle_default():
    script = default_cycle()
    assert len(script.steps) == 4
    assert [s.swing_leg for s in script.steps] == [1, 2, 3, 4]
    for step in script.steps:
        assert step.body_advance_mm == 10.0
    assert sum(s.body_advance_um for s in script.steps) == mm_to_um(40.0)
    assert validate(script, GEOM) is None


def test_generate_cycle_rejects_zero_step():
    # the GaitParams refuses it before generate_cycle is called
    with pytest.raises(ValueError, match="^step_length_mm must be > 0"):
        default_cycle(step_length_mm=0.0)


@pytest.mark.parametrize("step_length_mm", [0.0004, 0.0005])  # 0.5 um rounds half-even to 0
def test_step_length_that_rounds_to_zero_um_is_refused(step_length_mm):
    # plans keep whole micrometres: a 0 um step would "complete" a run with
    # no displacement
    with pytest.raises(ValueError, match="^step_length_mm must be > 0 and round to at least 1 um"):
        GaitParams(step_length_mm=step_length_mm)


def test_step_length_that_rounds_to_one_um_is_accepted():
    script = default_cycle(step_length_mm=0.0006)
    assert script.step_length_um == 1 and validate(script, GEOM) is None


def test_generate_cycle_rejects_bad_order():
    with pytest.raises(ValueError, match="^order must be a permutation"):
        default_cycle(order=(1, 1, 2, 3))


def test_generate_cycle_custom_order():
    script = default_cycle(order=(3, 1, 4, 2))
    assert [s.swing_leg for s in script.steps] == [3, 1, 4, 2]
    assert validate(script, GEOM) is None


def test_generate_cycle_per_cycle_advance():
    script = default_cycle(advance_mode=ADVANCE_PER_CYCLE)
    assert [s.body_advance_um for s in script.steps] == [0, 0, 0, 40000]
    assert validate(script, GEOM) is None


def test_generate_cycle_unreachable_foothold():
    # a 200 mm step puts the new foothold at radius ~291 mm, past full reach
    with pytest.raises(UnreachableFoothold) as info:
        default_cycle(step_length_mm=200.0)
    assert info.value.leg in LEG_IDS


SQUARE = FootholdMap.square_stance().points_mm()
HOLE_GAIT = GaitParams(stance_mm={1: (19.2, 40.7), 2: (-19.2, 40.7), 3: (19.2, -10.4),
                                  4: (-19.2, -45.8)},
                       step_length_mm=80.0, advance_mode=ADVANCE_PER_CYCLE)


@pytest.mark.parametrize("geom, gait, expected", [
    (GEOM, GaitParams(stance_mm={**SQUARE, 4: (-80.0, -204.4)}),
     ("[leg 4] unreachable: initial foothold (-80.0, -204.4) mm at z=100.0 mm: out_of_reach",
      4, -1)),
    (GEOM, GaitParams(stance_mm={**SQUARE, 4: (-80.0, -153.7)}),
     ("[step 2, leg 4] unreachable: stance point after advance (-80.0, -183.7) mm at "
      "z=100.0 mm: out_of_reach", 4, 2)),
    (GEOM, GaitParams(step_length_mm=200.0),
     ("[step 0, leg 1] unreachable: swing end (-80.0, 280.0) mm at z=100.0 mm: out_of_reach",
      1, 0)),
    # the inner hole of tests/test_simulator.py's sweep
    (LegGeometry(100.0, 80.0, 100.0, 100.0), HOLE_GAIT,
     ("[step 2, leg 3] unreachable: swing point nearest the shoulder (19.2, 0.0) mm at "
      "z=100.0 mm: out_of_reach", 3, 2)),
    # a3 < a4 at k = 90 deg: clearances below 50 mm are out of the zy plane's reach
    (LegGeometry(a3=50.0), GaitParams(lift_mm=60.0),
     ("[step 0, leg 1] unreachable: lifted mid-swing point (-80.0, 100.0) mm at z=40.0 mm: "
      "z_unreachable", 1, 0)),
], ids=["initial", "after-advance", "swing-end", "nearest-shoulder", "lifted-mid-swing"])
def test_unreachable_foothold_names_the_first_point_out_of_reach(geom, gait, expected):
    with pytest.raises(UnreachableFoothold) as info:
        generate_cycle(geom, gait)
    assert (str(info.value), info.value.leg, info.value.step) == expected


def test_split_um_exact():
    assert split_um(40000, 4) == [10000, 10000, 10000, 10000]
    assert sum(split_um(40001, 4)) == 40001
    assert sum(split_um(7, 3)) == 7


# --- validation -----------------------------------------------------------

def test_validate_detects_unreachable_foothold():
    script = default_cycle()
    bad = dataclasses.replace(script, steps=[
        GaitStep(1, (0, 300000), script.steps[0].body_advance_um),
        *script.steps[1:],
    ])
    with pytest.raises(UnreachableFoothold):
        validate(bad, GEOM)


def test_validate_reports_excessive_lift_instead_of_crashing():
    # a lift past the wall would put the mid-swing cup through the body, a
    # target CupTarget refuses mid-validate; the GaitParams refuses it by name
    # first, so generate_cycle never hands validate a negative clearance
    z = GaitParams().z_mm
    with pytest.raises(ValueError, match=r"^lift_mm must lie in \[0, z_mm\]"):
        GaitParams(lift_mm=z + 50.0)
    # the largest lift allowed brings the cup to the body plane, which validate
    # checks like any other clearance
    script = generate_cycle(GEOM, GaitParams(lift_mm=z))
    assert script.lift_mm == z
    assert validate(script, GEOM) is None


@pytest.mark.parametrize("name, value", [
    ("z_mm", math.nan), ("k_rad", math.inf), ("lift_mm", math.nan), ("lift_mm", None),
    ("branch", 1), ("branch", "plus"),
])
def test_gait_script_checks_its_pose_when_built(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        dataclasses.replace(default_cycle(), **{name: value})


def test_gait_script_pose_cannot_be_assigned_past_its_check():
    # frozen: the pose is set only by building, which checks it
    script = default_cycle()
    with pytest.raises(dataclasses.FrozenInstanceError):
        script.lift_mm = math.nan
    assert script.lift_mm == 20.0
    with pytest.raises(ValueError, match="^lift_mm must be finite"):
        dataclasses.replace(script, lift_mm=math.nan)


def test_cycle_closure_exact_over_many_cycles():
    # independent integer bookkeeping: replay the script N times by hand
    script = default_cycle()
    stance = FootholdMap.square_stance()
    for cycles in (1, 5, 20):
        wall = dict(stance.points_um)
        body = 0
        for _ in range(cycles):
            for step in script.steps:
                leg = step.swing_leg
                wall[leg] = (step.new_foothold_um[0], step.new_foothold_um[1] + body)
                body += step.body_advance_um
        assert body == cycles * mm_to_um(40.0)
        body_frame = {leg: (wall[leg][0], wall[leg][1] - body) for leg in LEG_IDS}
        assert body_frame == stance.points_um


# --- compilation ----------------------------------------------------------

def test_compile_first_rows_match_initial_stance(tmp_path):
    ini = tmp_path / "pose.ini"
    ini.write_text(POSE_INI, encoding="utf-8")
    for config in (ScenarioConfig(), load_config(str(ini))):
        script = generate_cycle(config.geometry, config.gait, config.limits)
        rows = compile_joint_table(dataclasses.replace(config.gait, samples_per_step=5), GEOM)
        stance = FootholdMap.square_stance()
        first = {row.leg: row for row in rows[:4]}
        for leg in LEG_IDS:
            x, y = stance.point_mm(leg)
            expected = solve_leg(GEOM, CupTarget(x, y, script.z_mm, script.k_rad), script.branch)
            assert first[leg].angles == expected
            assert first[leg].t_s == 0.0
        # every row is solved at the script's pose, not at a default one
        assert {row.target_mm[2] for row in rows if row.attached} == {script.z_mm}
        assert min(row.target_mm[2] for row in rows if not row.attached) == (
            script.z_mm - script.lift_mm)
        for row in rows:
            assert fk_leg(GEOM, row.angles).k == pytest.approx(script.k_rad, abs=1e-12)
        # the run solves the same pose: on its first tick every cup is on its foothold
        run = run_scenario(dataclasses.replace(config, cycles=1))
        assert run.records[0].angles == {leg: first[leg].angles for leg in LEG_IDS}
        lowest = min(fk_leg(GEOM, angles).z
                     for record in run.records for angles in record.angles.values())
        assert lowest == pytest.approx(script.z_mm - script.lift_mm, abs=1e-9)


def test_compile_row_count_and_ordering():
    samples = 7
    rows = compile_joint_table(GaitParams(samples_per_step=samples), GEOM)
    assert len(rows) == 4 * samples * 4
    # time never decreases; legs cycle 1..4 within each sample
    times = [row.t_s for row in rows]
    assert times == sorted(times)
    assert [row.leg for row in rows[:8]] == [1, 2, 3, 4, 1, 2, 3, 4]


def test_compile_rows_fk_round_trip():
    rows = compile_joint_table(GaitParams(samples_per_step=6), GEOM)
    for row in rows:
        echo = fk_leg(GEOM, row.angles)
        assert abs(echo.x - row.target_mm[0]) <= 1e-9
        assert abs(echo.y - row.target_mm[1]) <= 1e-9
        assert abs(echo.z - row.target_mm[2]) <= 1e-9
        assert echo.k == math.pi / 2


def test_compile_swing_waypoints_follow_line_with_lift():
    # independent recomputation of the swing leg's commanded pose
    script = default_cycle()
    samples = 5
    rows = compile_joint_table(GaitParams(samples_per_step=samples), GEOM)
    stance = FootholdMap.square_stance()
    old = stance.point_mm(1)
    new = script.steps[0].new_foothold_mm
    swing_rows = [row for row in rows[:4 * samples] if row.leg == 1]
    for j, row in enumerate(swing_rows):
        s = j / (samples - 1)
        assert row.target_mm[0] == pytest.approx(old[0] + (new[0] - old[0]) * s, abs=1e-12)
        assert row.target_mm[1] == pytest.approx(old[1] + (new[1] - old[1]) * s, abs=1e-12)
        assert row.target_mm[2] == pytest.approx(
            100.0 - 20.0 * (1.0 - abs(2.0 * s - 1.0)), abs=1e-12)
        assert not row.attached
    # lift peaks at mid-swing, cup back on the wall at both ends
    assert swing_rows[0].target_mm[2] == 100.0
    assert swing_rows[2].target_mm[2] == 80.0
    assert swing_rows[-1].target_mm[2] == 100.0


def test_compile_attached_flags():
    script = default_cycle()
    samples = 3
    rows = compile_joint_table(GaitParams(samples_per_step=samples), GEOM)
    for index, step in enumerate(script.steps):
        chunk = rows[index * 4 * samples:(index + 1) * 4 * samples]
        for row in chunk:
            assert row.attached == (row.leg != step.swing_leg)


def test_compile_with_limits_keeps_all_angles_inside():
    # a half-turn window passes the whole default cycle; success means
    # every sample was limit-checked at solve time
    limits = JointLimits(-math.pi, math.pi)
    rows = compile_joint_table(GaitParams(samples_per_step=5), GEOM, limits=limits)
    for row in rows:
        for angle in row.angles.as_tuple():
            assert limits.lower <= angle <= limits.upper


@pytest.mark.parametrize("kwargs, name", [
    ({"samples_per_step": 1}, "samples_per_step"), ({"samples_per_step": 2.5}, "samples_per_step"),
    ({"samples_per_step": True}, "samples_per_step"),
    ({"swing_s": math.nan}, "swing_s"), ({"advance_s": math.inf}, "advance_s"),
    ({"swing_s": -1.0}, "swing_s and advance_s"), ({"advance_s": 0.0}, "swing_s and advance_s"),
    ({"swing_s": "1"}, "swing_s"),
    # the table cap, and a last sample time that overflows to inf
    ({"samples_per_step": 62_501}, "samples_per_step x 4 steps x 4 legs"),
    ({"samples_per_step": 10**9}, "samples_per_step x 4 steps x 4 legs"),
    ({"samples_per_step": 2, "swing_s": 1e308}, "swing_s + advance_s"),
    ({"samples_per_step": 2, "advance_s": 1e308}, "swing_s + advance_s"),
], ids=["samples-one", "samples-float", "samples-bool", "swing-nan", "advance-inf",
        "swing-negative", "advance-zero", "swing-str", "samples-cap", "samples-huge",
        "swing-overflow", "advance-overflow"])
def test_gait_params_refuses_bad_sampling_naming_it(kwargs, name):
    # unchecked, these would raise a bare TypeError in the compile, or give it
    # NaN, negative, all-zero or infinite times, or a table past the cap
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must"):
        GaitParams(**kwargs)


def test_compile_validates_the_pose_of_the_script():
    # compile solves at the plan's own z, so a gait at an impossible
    # clearance is refused by its planning before any row is made
    seen = []
    with pytest.raises(UnreachableFoothold) as info:
        compile_joint_table(GaitParams(samples_per_step=4, z_mm=250.0), GEOM, sink=seen.append)
    assert "z_unreachable" in str(info.value)
    assert (info.value.leg, info.value.step) == (1, -1)
    assert seen == []


def test_compile_timing_grid():
    samples = 4
    rows = compile_joint_table(GaitParams(samples_per_step=samples, swing_s=1.0, advance_s=1.0),
                               GEOM)
    per_leg = [row.t_s for row in rows if row.leg == 2]
    expected = [(i + j / samples) * 2.0 for i in range(4) for j in range(samples)]
    np.testing.assert_allclose(per_leg, expected, rtol=0, atol=1e-12)


# --- foothold map ---------------------------------------------------------

def test_foothold_map_requires_four_legs():
    with pytest.raises(ValueError):
        FootholdMap({1: (0, 0), 2: (0, 0)})


def test_foothold_map_mm_round_trip():
    stance = FootholdMap.square_stance(half_x_mm=75.5, half_y_mm=60.25)
    assert stance.point_mm(2) == (75.5, 60.25)
    assert stance.points_um[2] == (75500, 60250)


def test_compile_names_unreachable_swing_sample_under_tight_limits():
    # the plan validates (another elbow branch fits the limits at every
    # checked point), but the scripted branch breaks them mid-swing; the
    # memoised solve must still name the first failing sample
    limits = JointLimits(-math.pi, math.radians(177.0))
    with pytest.raises(JointLimit, match=r"^step 3 sample 3 leg 4: theta1="):
        compile_joint_table(GaitParams(), GEOM, limits=limits)


def test_compile_solves_each_distinct_target_once(monkeypatch):
    targets = []

    def counting_xy(geom, x, y, branch, limits):
        targets.append((x, y))
        return ik_planar_xy(geom, x, y, branch, limits)

    def counting_zy(geom, z, k, limits):
        targets[-1] += (z,)
        return ik_normal_zy(geom, z, k, limits)

    monkeypatch.setattr("wallclimber.gait.ik_planar_xy", counting_xy)
    monkeypatch.setattr("wallclimber.gait.ik_normal_zy", counting_zy)
    rows = compile_joint_table(GaitParams(), GEOM)
    assert all(len(target) == 3 for target in targets)  # one zy solve per xy solve
    assert len(rows) == 160
    assert len(targets) == len(set(targets)) == len({row.target_mm for row in rows})
    assert len({id(row.angles) for row in rows}) == len(targets)

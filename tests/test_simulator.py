import copy
import math
import re
from dataclasses import FrozenInstanceError, replace

import pytest

from wallclimber import simulator
from wallclimber.errors import ClimberError, UnreachableFoothold, ZeroCapacity, check_fields
from wallclimber.fileio import write_series_csv, write_summary_json
from wallclimber.gait import ADVANCE_PER_CYCLE, generate_cycle
from wallclimber.kinematics import CupTarget, JointLimits, LegGeometry, solve_leg
from wallclimber.pneumatics import AdhesionModel, Valve
from wallclimber.simulator import (
    GaitParams,
    ScenarioConfig,
    power_model,
    run_scenario,
    slip_model,
    sweep_climb_angle,
)


def ticks_per_step(config):
    tick = config.tick_s
    return (round(config.adhesion.vent_s / tick)
            + round(config.gait.swing_s / tick)
            + round(config.adhesion.dwell_s / tick)
            + round(config.gait.advance_s / tick))


# --- flat-wall closed form --------------------------------------------------

def test_flat_wall_speed_closed_form():
    config = ScenarioConfig()
    report = run_scenario(config)
    assert report.completed
    # independent arithmetic: 3 cycles x 4 steps x (20+60+50+40) ticks
    total_ticks = config.cycles * 4 * ticks_per_step(config)
    assert len(report.records) == total_ticks
    assert report.displacement_mm == 120.0  # exactly, integer micrometres
    expected_speed = (config.cycles * config.gait.step_length_mm) / (
        total_ticks * config.tick_s)
    assert abs(report.average_speed_mm_s - expected_speed) <= 1e-9
    assert report.slip_count == 0


def test_flat_wall_power_is_base_plus_pumps():
    config = ScenarioConfig()
    report = run_scenario(config)
    expected = config.servo_power_w + 2 * config.pump_power_w
    for rec in report.records:
        assert rec.power_w == expected  # sin(0) kills the lift term exactly
    assert report.average_power_w == pytest.approx(expected, rel=1e-9)


def test_energy_bookkeeping_identity():
    report = run_scenario(ScenarioConfig(climb_angle_deg=45.0))
    total = sum(rec.power_w * report.tick_s for rec in report.records)
    assert report.total_energy_j == pytest.approx(total, rel=1e-12)
    assert report.average_power_w * report.duration_s == pytest.approx(
        report.total_energy_j, rel=1e-9)
    assert report.average_speed_mm_s * report.duration_s == pytest.approx(
        report.displacement_mm, rel=1e-9)


def test_gait_safety_every_tick():
    report = run_scenario(ScenarioConfig(cycles=2))
    for rec in report.records:
        assert sum(rec.attached.values()) >= 3


def test_displacement_exact_per_cycle_mode():
    gait = GaitParams(advance_mode=ADVANCE_PER_CYCLE)
    report = run_scenario(ScenarioConfig(cycles=5, gait=gait))
    assert report.completed
    assert report.displacement_mm == 200.0


# --- determinism ------------------------------------------------------------

def test_identical_configs_identical_reports(tmp_path):
    config = ScenarioConfig(climb_angle_deg=30.0, cycles=2)
    a = run_scenario(config)
    b = run_scenario(config)
    assert a == b
    for name, report in (("a", a), ("b", b)):
        write_summary_json(tmp_path / f"{name}.json", report)
        write_series_csv(tmp_path / f"{name}.csv", report)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_noise_is_seeded_and_trace_only():
    noisy = ScenarioConfig(cycles=1, noise_kpa=0.5, seed=7)
    a = run_scenario(noisy)
    b = run_scenario(noisy)
    assert a == b
    c = run_scenario(replace(noisy, seed=8))
    assert a.records != c.records  # jitter differs
    assert a.displacement_mm == c.displacement_mm  # dynamics unaffected
    assert a.average_speed_mm_s == c.average_speed_mm_s


# --- slip model --------------------------------------------------------------

def test_slip_model_values():
    assert slip_model(0.0, 100.0) == 0.0
    assert slip_model(100.0, 100.0, c_slip=0.3, s_max=0.9) == 0.3
    assert slip_model(1e6, 100.0, c_slip=0.3, s_max=0.9) == 0.9
    with pytest.raises(ZeroCapacity):
        slip_model(10.0, 0.0)
    assert slip_model(0.0, 0.0) == 0.0


def test_slip_monotone_in_load():
    capacity = 150.0
    previous = -1.0
    for load in range(0, 400, 25):
        slip = slip_model(float(load), capacity)
        assert slip >= previous
        previous = slip


def test_incline_costs_speed_via_slip():
    flat = run_scenario(ScenarioConfig(cycles=1))
    steep = run_scenario(ScenarioConfig(cycles=1, climb_angle_deg=90.0))
    assert steep.completed
    assert steep.slip_count == 4  # every step slips a little at 90 deg
    assert steep.average_speed_mm_s < flat.average_speed_mm_s
    assert steep.displacement_mm < flat.displacement_mm


# --- power model --------------------------------------------------------------

def test_power_model_idle():
    config = ScenarioConfig(climb_angle_deg=45.0)
    assert power_model(config, 0.0, 0) == config.servo_power_w


def test_power_model_flat_has_no_lift_term():
    config = ScenarioConfig(climb_angle_deg=0.0)
    assert power_model(config, 500.0, 2) == (
        config.servo_power_w + 2 * config.pump_power_w)


def test_power_model_monotone_in_angle():
    p30 = power_model(ScenarioConfig(climb_angle_deg=30.0), 25.0, 2)
    p60 = power_model(ScenarioConfig(climb_angle_deg=60.0), 25.0, 2)
    assert p60 > p30


def test_power_model_units():
    # 2 kg * 9.81 * sin(90) * 1 m/s / 0.25 = 78.48 W of lift at 1000 mm/s
    config = ScenarioConfig(climb_angle_deg=90.0)
    expected = 6.0 + 2 * 5.0 + 2.0 * 9.81 * 1.0 / 0.25
    assert power_model(config, 1000.0, 2) == pytest.approx(expected, rel=1e-12)


# --- failure modes -------------------------------------------------------------

def test_overload_marks_run_failed_not_raise():
    # 4-cup capacity is mu * 4 * 50 kPa * 1963 mm^2 = 196.3 N; one tonne
    # at 90 degrees is far past it.
    report = run_scenario(ScenarioConfig(climb_angle_deg=90.0, mass_kg=1000.0))
    assert not report.completed
    assert report.failure_tick is not None
    assert "overload" in report.failure_reason
    for rec in report.records:  # never fewer than 3 legs holding
        assert sum(rec.attached.values()) >= 3


def test_overload_between_three_and_four_cup_capacity():
    # load sits between cap3 = 147.2 N and cap4 = 196.3 N: the four cups hold
    # it, but venting leg 1 on the run's first tick leaves three, which do not.
    # Unlike a run whose cups never grip (failure tick 0 after 0 ticks), this
    # one fails at tick 0 after 1 tick.
    mass = 170.0 / 9.81
    report = run_scenario(ScenarioConfig(climb_angle_deg=90.0, mass_kg=mass))
    assert not report.completed
    assert (report.ticks, report.failure_tick) == (1, 0)
    assert report.failure_code == "adhesion_overload"
    assert report.failure_reason == (
        "adhesion overload: tangential load 170.000 N > holding capacity 147.225 N")
    (rec,) = report.records
    assert rec.valve[1] is Valve.VENT
    assert rec.attached == {1: False, 2: True, 3: True, 4: True}


def test_attach_timeout_marks_run_failed():
    leaky = AdhesionModel(leak_kpa_per_s=200.0)
    report = run_scenario(ScenarioConfig(cycles=1, adhesion=leaky))
    assert not report.completed
    assert report.failure_code == "attach_timeout"
    assert "attach timeout" in report.failure_reason
    # the first step's extra dwell is not enough: the timeout return in the loop
    report = run_scenario(ScenarioConfig(cycles=1, adhesion=AdhesionModel(leak_kpa_per_s=119.9)))
    assert (report.ticks, report.failure_tick) == (180, 179)
    assert report.failure_code == "attach_timeout"
    assert report.failure_reason.startswith("attach timeout on leg 1: ")
    # one attach policy, pneumatics.ATTACH_DWELLS: up to 110 kPa/s every cup
    # grips in its first dwell (4 steps of 170 ticks); 112-118 kPa/s grip only
    # on the extension, which adds a dwell of 50 ticks to each step; at 125
    # the equilibrium sits above the threshold, so the run fails before it starts
    for leak, ticks, failure_tick in ((100.0, 680, None), (110.0, 680, None),
                                      (112.0, 880, None), (115.0, 880, None),
                                      (118.0, 880, None), (125.0, 0, 0)):
        report = run_scenario(ScenarioConfig(cycles=1,
                                             adhesion=AdhesionModel(leak_kpa_per_s=leak)))
        assert (report.ticks, report.failure_tick) == (ticks, failure_tick), leak
        assert report.failure_code == (None if failure_tick is None else "attach_timeout")


def test_leak_above_threshold_fails_before_the_first_tick():
    # equilibrium -50 + 200 * 0.5 / 3 = -16.667 kPa sits above the -30 kPa
    # threshold, so no cup grips; the reason must say so, not report the
    # zero capacity as an overload
    leaky = AdhesionModel(leak_kpa_per_s=200.0)
    report = run_scenario(ScenarioConfig(climb_angle_deg=30.0, adhesion=leaky))
    assert not report.completed
    assert report.failure_tick == 0
    assert report.ticks == 0 and report.records == []
    assert report.failure_code == "attach_timeout"
    assert "attach timeout" in report.failure_reason
    assert "-16.667 kPa" in report.failure_reason and "-30.0 kPa" in report.failure_reason
    assert "overload" not in report.failure_reason
    assert report.duration_s == 0.0 and report.average_power_w == 0.0


# --- sweep ----------------------------------------------------------------------

def test_sweep_trends():
    rows = sweep_climb_angle(ScenarioConfig(cycles=1),
                             [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0])
    assert len(rows) == 7
    speeds = [row.avg_speed_mm_s for row in rows]
    powers = [row.avg_power_w for row in rows]
    assert all(a >= b for a, b in zip(speeds, speeds[1:]))
    assert all(a <= b for a, b in zip(powers, powers[1:]))
    assert speeds[0] > speeds[-1]
    assert powers[0] < powers[-1]
    assert all(row.completed for row in rows)


SWEEP_ANGLES = [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0]
SWEEP_CONFIGS = [
    ScenarioConfig(),
    ScenarioConfig(noise_kpa=0.5, seed=3),
    ScenarioConfig(mass_kg=16.0),
    ScenarioConfig(limits=JointLimits(-math.pi, math.radians(177.0))),
    ScenarioConfig(cycles=30),
    # The per-tick grip reads the suction legs of the phase: legs listed out of
    # order, and all four legs on one pump.
    ScenarioConfig(climb_angle_deg=45.0, pump_legs={"A": (4, 2), "B": (3, 1)}),
    ScenarioConfig(pump_legs={"A": (1, 2, 3, 4)}),
    # An inner hole of 20 mm: leg 3's swing from (19.2, -10.4) to (19.2, 69.6)
    # crosses y = 0 inside the hole, so planning refuses the gait at every angle.
    ScenarioConfig(geometry=LegGeometry(100.0, 80.0, 100.0, 100.0), mass_kg=16.0,
                   gait=GaitParams(stance_mm={1: (19.2, 40.7), 2: (-19.2, 40.7),
                                              3: (19.2, -10.4), 4: (-19.2, -45.8)},
                                   step_length_mm=80.0, advance_mode=ADVANCE_PER_CYCLE)),
]


@pytest.mark.parametrize("config", SWEEP_CONFIGS,
                         ids=["default", "noise", "heavy", "tight-limits", "30-cycles",
                              "pumps-out-of-order", "one-pump", "hole"])
def test_sweep_rows_match_direct_runs(config):
    # A sweep builds no TickRecord; each of its rows must still be the summary
    # of a run that collects its records, replayed cycles and failed runs too.
    rows = sweep_climb_angle(config, SWEEP_ANGLES)
    assert [row.angle_deg for row in rows] == SWEEP_ANGLES
    for row in rows:
        try:
            direct = run_scenario(replace(config, climb_angle_deg=row.angle_deg))
        except ClimberError:  # a planning error: the sweep flags the angle
            assert math.isnan(row.avg_speed_mm_s) and math.isnan(row.avg_power_w)
            assert row.completed is False
            continue
        assert len(direct.records) == direct.ticks
        assert row.avg_speed_mm_s == direct.average_speed_mm_s
        assert row.avg_power_w == direct.average_power_w
        assert row.completed == direct.completed


def test_sweep_builds_no_tick_records(monkeypatch):
    built = []
    tick_record = simulator.TickRecord

    def counting(*args):
        built.append(1)
        return tick_record(*args)

    monkeypatch.setattr(simulator, "TickRecord", counting)
    sweep_climb_angle(ScenarioConfig(cycles=2), [0.0, 45.0, 90.0])
    assert len(built) == 0
    report = run_scenario(ScenarioConfig(cycles=2))
    assert len(built) == report.ticks == len(report.records)


def test_sweep_without_limits_solves_no_pose(monkeypatch):
    # Nothing reads a sweep's angles and the plan has checked each pose's
    # reach, so a limit-free sweep solves nothing and computes no swing
    # waypoint; a JointLimit needs the angles, and so do kept records.
    solves, waypoints = [], []

    def counting(calls, function):
        def count(*args):
            calls.append(1)
            return function(*args)
        return count

    monkeypatch.setattr(simulator, "solve_leg", counting(solves, solve_leg))
    monkeypatch.setattr(simulator, "swing_waypoint", counting(waypoints, simulator.swing_waypoint))
    for config in SWEEP_CONFIGS:
        solves.clear()
        waypoints.clear()
        sweep_climb_angle(config, SWEEP_ANGLES)
        posed = config.limits is not None
        assert (len(solves) > 0) == (len(waypoints) > 0) == posed
    solves.clear()
    waypoints.clear()
    run_scenario(ScenarioConfig(cycles=1))
    assert len(solves) > 0 and len(waypoints) > 0


def test_sweep_of_a_leg_with_an_inner_hole():
    # Planning refuses the swing that would cross the hole mid-run, so every
    # angle reads a planning error instead of failing after some ticks.
    rows = sweep_climb_angle(SWEEP_CONFIGS[-1], [0.0, 45.0, 90.0])
    for row in rows:
        assert math.isnan(row.avg_speed_mm_s) and math.isnan(row.avg_power_w)
        assert row.completed is False
    with pytest.raises(UnreachableFoothold, match=r"nearest the shoulder \(19\.2, 0\.0\)") as info:
        run_scenario(replace(SWEEP_CONFIGS[-1], climb_angle_deg=45.0))
    assert (info.value.leg, info.value.step) == (3, 2)


def test_sweep_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ValueError):
        sweep_climb_angle(ScenarioConfig(), [])
    # every angle's config is built first, so a bad angle runs no angle at all
    runs = []
    monkeypatch.setattr(simulator, "_run", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ValueError, match=r"^climb_angle_deg must be in \[0, 90\], got 120.0"):
        sweep_climb_angle(ScenarioConfig(), [0.0, 120.0])
    # so does an angle whose lift power overflows, though the base angle's does not
    with pytest.raises(ValueError, match="^lift_efficiency must be"):
        sweep_climb_angle(ScenarioConfig(lift_efficiency=5e-324), [0.0, 45.0])
    assert runs == []


def test_sweep_flags_failed_angles():
    rows = sweep_climb_angle(ScenarioConfig(cycles=1, mass_kg=1000.0), [0.0, 90.0])
    assert rows[0].completed
    assert not rows[1].completed


def test_sweep_sorted_by_angle():
    rows = sweep_climb_angle(ScenarioConfig(cycles=1), [45.0, 0.0, 90.0])
    assert [row.angle_deg for row in rows] == [0.0, 45.0, 90.0]


# --- config validation -----------------------------------------------------------

def test_scenario_config_invariants():
    with pytest.raises(ValueError):
        ScenarioConfig(climb_angle_deg=91.0)
    with pytest.raises(ValueError):
        ScenarioConfig(mass_kg=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(cycles=0)
    with pytest.raises(ValueError):
        ScenarioConfig(tick_s=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(lift_efficiency=0.0)
    with pytest.raises(ValueError):
        GaitParams(samples_per_step=1)
    with pytest.raises(ValueError):
        GaitParams(lift_mm=150.0, z_mm=100.0)


@pytest.mark.parametrize("make, name, value", [
    (ScenarioConfig, "tick_s", 0.0),
    (ScenarioConfig, "cycles", 2.5),
    (ScenarioConfig, "climb_angle_deg", math.nan),
    (GaitParams, "step_length_mm", 0.0),
    (GaitParams, "order", (1, 1, 2, 3)),
    (GaitParams, "stance_mm", {1: (math.nan, 80.0)}),
    (ScenarioConfig, "pump_legs", {"A": None}),
], ids=["tick", "cycles", "angle", "step-length", "order", "stance", "pumps"])
def test_configs_cannot_be_assigned_past_their_check(make, name, value):
    # frozen: a field is set only by building, which checks it; assigned,
    # each of these would end a run in a ZeroDivisionError or a bare TypeError
    # or ValueError that names no field
    config = make()
    with pytest.raises(FrozenInstanceError):
        setattr(config, name, value)
    assert getattr(config, name) == getattr(make(), name)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        replace(config, **{name: value})
    if isinstance(value, dict):  # a mapping field is read-only: no entry can be assigned
        for key, entry in value.items():
            with pytest.raises(TypeError):
                getattr(config, name)[key] = entry
        assert getattr(config, name) == getattr(make(), name)


def test_tangential_load():
    config = ScenarioConfig(climb_angle_deg=90.0)
    assert config.tangential_load_n == pytest.approx(2.0 * 9.81, rel=1e-12)
    assert ScenarioConfig(climb_angle_deg=0.0).tangential_load_n == 0.0


# --- memoised solves ---------------------------------------------------------

def test_run_solves_each_distinct_pose_once(monkeypatch):
    targets = []

    def counting_solve(geom, target, branch, limits):
        targets.append(tuple(float(v).hex() for v in (target.x, target.y, target.z, target.k)))
        return solve_leg(geom, target, branch, limits)

    monkeypatch.setattr("wallclimber.simulator.solve_leg", counting_solve)
    report = run_scenario(ScenarioConfig())
    assert len(targets) == 880
    assert len(set(targets)) == 880
    # ticks with the same pose share one frozen JointAngles object
    shared = {id(angles) for rec in report.records for angles in rec.angles.values()}
    assert len(shared) == 880


def test_memo_targets_are_checked_equivalent_cup_targets(monkeypatch):
    # The pose memo builds its targets without running CupTarget's check; each
    # must still be a frozen CupTarget that equals, hashes and prints like a
    # checked one, whether the run fails or replays cycles. Of the sweeps, only
    # the one under joint limits solves poses: the others check reach alone.
    targets = []

    def counting_solve(geom, target, branch, limits):
        targets.append(target)
        return solve_leg(geom, target, branch, limits)

    monkeypatch.setattr("wallclimber.simulator.solve_leg", counting_solve)
    run_scenario(ScenarioConfig())
    run_scenario(ScenarioConfig(climb_angle_deg=45.0, cycles=3))
    for config in SWEEP_CONFIGS:
        sweep_climb_angle(config, SWEEP_ANGLES)
    assert len(targets) > 880
    for target in targets:
        assert type(target) is CupTarget
        checked = CupTarget(target.x, target.y, target.z, target.k)
        assert target == checked and hash(target) == hash(checked)
        assert repr(target) == repr(checked)
        with pytest.raises(FrozenInstanceError):
            target.x = 0.0


@pytest.fixture
def grip_calls(monkeypatch):
    """One entry per call a run makes to pneumatics.grip through its module's binding."""
    calls = []
    grip = simulator.grip

    def counting_grip(pressure_kpa, suction_legs, model):
        calls.append(None)
        return grip(pressure_kpa, suction_legs, model)

    monkeypatch.setattr(simulator, "grip", counting_grip)
    return calls


def test_repeated_steps_are_replayed_not_recomputed(grip_calls):
    # At 45 deg the cup pressures settle within two cycles; cycle 3 starts in
    # the state cycle 2 started in, so 28 more cycles replay it and grip no more.
    # The run grips once before the first step and once per computed tick, all
    # through its module's `grip` binding.
    counts = {}
    for cycles in (2, 30):
        grip_calls.clear()
        report = run_scenario(ScenarioConfig(climb_angle_deg=45.0, cycles=cycles),
                              sink=lambda record: None)
        counts[cycles] = (report.ticks, len(grip_calls))
    assert counts == {2: (1360, 1361), 30: (20400, 1361)}


@pytest.mark.parametrize("limits", [None, JointLimits(-math.pi, math.pi)], ids=["free", "limits"])
def test_sweep_grips_as_often_as_one_run(grip_calls, limits):
    # The cup pneumatics read no angle, so a sweep runs them once for all its
    # angles: seven angles grip as often as one run of the base config, not
    # seven times as often (9,527 grips).
    config = ScenarioConfig(limits=limits)
    rows = sweep_climb_angle(config, SWEEP_ANGLES)
    assert all(row.completed for row in rows)
    swept = len(grip_calls)
    grip_calls.clear()
    simulator._run(config, keep=False)
    assert swept == len(grip_calls) == 1361


def test_sweep_computes_the_pneumatics_only_as_far_as_its_angles_read(grip_calls):
    # A tonne overloads the cups in the first phase at every one of these
    # angles, so each run stops there: the shared pneumatic pass grips once
    # before the first step and once per vent tick, as one such run does, and
    # computes none of the 1,361 grips of a whole run.
    config = ScenarioConfig(mass_kg=1000.0)
    rows = sweep_climb_angle(config, [45.0, 60.0, 90.0])
    assert not any(row.completed for row in rows)
    swept = len(grip_calls)
    grip_calls.clear()
    report = simulator._run(replace(config, climb_angle_deg=45.0), keep=False)
    assert report.failure_code == "adhesion_overload"
    assert swept == len(grip_calls) == 21


# --- non-finite inputs and pump coverage --------------------------------------

@pytest.mark.parametrize("field", ["climb_angle_deg", "mass_kg", "gravity_m_s2", "tick_s",
                                   "lift_efficiency", "c_slip", "s_max", "noise_kpa"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_scenario_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("field", ["step_length_mm", "lift_mm", "z_mm", "k_rad", "swing_s",
                                   "advance_s"])
def test_gait_params_rejects_non_finite(field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GaitParams(**{field: math.nan})


def test_gait_params_rejects_non_finite_stance():
    stance = {1: (-80.0, math.inf), 2: (80.0, 80.0), 3: (80.0, -80.0), 4: (-80.0, -80.0)}
    with pytest.raises(ValueError, match=r"stance_mm\[1\] must be finite"):
        GaitParams(stance_mm=stance)


def test_gait_params_keeps_its_own_copy_of_the_stance():
    # a list point becomes a tuple, and the caller's dict stays the caller's
    stance = {1: [-70.0, 75.0], 2: (70.0, 75.0), 3: (70.0, -75.0), 4: (-70.0, -75.0)}
    gait = GaitParams(stance_mm=stance)
    stance[1][0] = math.nan
    stance[2] = (math.nan, 0.0)
    assert dict(gait.stance_mm) == {1: (-70.0, 75.0), 2: (70.0, 75.0), 3: (70.0, -75.0),
                                    4: (-70.0, -75.0)}
    assert all(type(point) is tuple for point in gait.stance_mm.values())


@pytest.mark.parametrize("make, kwargs, field", [
    (ScenarioConfig, {"cycles": 1.5}, "cycles"),
    (ScenarioConfig, {"cycles": True}, "cycles"),
    (GaitParams, {"samples_per_step": 2.5}, "samples_per_step"),
    (ScenarioConfig, {"seed": math.nan, "noise_kpa": 0.5}, "seed"),
    (GaitParams, {"branch": "plus"}, "branch"),
    (GaitParams, {"order": (1, 1, 2, 3)}, "order"),
    (GaitParams, {"order": (1, 2, 3)}, "order"),
    (GaitParams, {"stance_mm": {1: (-80.0, 80.0)}}, "stance_mm"),
    (GaitParams, {"stance_mm": {1: (-80.0, 80.0), 2: (80.0, 80.0), 3: (80.0, -80.0),
                                4: (-80.0, -80.0), 5: (0.0, 0.0)}}, "stance_mm"),
    (GaitParams, {"stance_mm": {1: (-80.0, 80.0, 5.0), 2: (80.0, 80.0), 3: (80.0, -80.0),
                                4: (-80.0, -80.0)}}, r"stance_mm\[1\]"),
    (GaitParams, {"stance_mm": {1: (-80.0, 80.0), 2: (80.0, 80.0), 3: (80.0,),
                                4: (-80.0, -80.0)}}, r"stance_mm\[3\]"),
    (ScenarioConfig, {"limits": (-1.0, 1.0)}, "limits"),
    (ScenarioConfig, {"geometry": None}, "geometry"),
    (ScenarioConfig, {"gait": None}, "gait"),
    (ScenarioConfig, {"adhesion": None}, "adhesion"),
    # values of a wrong type, which math.isfinite, sorted or .items() would
    # otherwise reject with a TypeError or AttributeError that names no field
    (ScenarioConfig, {"mass_kg": "2"}, "mass_kg"),
    (ScenarioConfig, {"climb_angle_deg": None}, "climb_angle_deg"),
    (LegGeometry, {"a1": "1"}, "a1"),
    (CupTarget, {"x": "1", "y": 0, "z": 0, "k": 0}, "x"),
    (AdhesionModel, {"vacuum_kpa": "1"}, "vacuum_kpa"),
    (GaitParams, {"stance_mm": {1: ("a", "b"), 2: (80.0, 80.0), 3: (80.0, -80.0),
                                4: (-80.0, -80.0)}}, r"stance_mm\[1\]"),
    (ScenarioConfig, {"pump_legs": None}, "pump_legs"),
    (GaitParams, {"order": None}, "order"),
    (GaitParams, {"stance_mm": None}, "stance_mm"),
    (GaitParams, {"stance_mm": {1: 5.0, 2: (80.0, 80.0), 3: (80.0, -80.0),
                                4: (-80.0, -80.0)}}, r"stance_mm\[1\]"),
    (ScenarioConfig, {"pump_legs": {"A": None, "B": (1, 2, 3, 4)}}, "pump_legs"),
    # a bool, which math.isfinite takes as 0 or 1, in one float field of each dataclass
    (LegGeometry, {"a1": True}, "a1"),
    (JointLimits, {"lower": -1.0, "upper": True}, "upper"),
    (CupTarget, {"x": 0.0, "y": True, "z": 100.0, "k": 0.0}, "y"),
    (AdhesionModel, {"vacuum_kpa": True}, "vacuum_kpa"),
    (GaitParams, {"lift_mm": True}, "lift_mm"),
    (GaitParams, {"stance_mm": {1: (-80.0, 80.0), 2: (80.0, 80.0), 3: (80.0, -80.0),
                                4: (False, -80.0)}}, r"stance_mm\[4\]"),
    (ScenarioConfig, {"mass_kg": True}, "mass_kg"),
    # leg ids equal to 4 or 1 that are not ints: each sorts as a permutation
    # of the legs, and a joint table compiled from the float order prints
    # 4.0 in its leg column
    (GaitParams, {"order": (1, 2, 3, 4.0)}, "order"),
    (GaitParams, {"order": (True, 2, 3, 4)}, "order"),
    (ScenarioConfig, {"pump_legs": {"A": (1, 2), "B": (3, 4.0)}}, "pump_legs"),
    (ScenarioConfig, {"pump_legs": {"A": (True, 2), "B": (3, 4)}}, "pump_legs"),
    # finite values that overflowed mid-run: mm_to_um's round, a phase's tick
    # count round(duration / tick_s), and suction_decay's division by dwell_s / 3
    (GaitParams, {"step_length_mm": 1e308}, "step_length_mm"),
    (GaitParams, {"step_length_mm": -1e308}, "step_length_mm"),
    (GaitParams, {"stance_mm": {1: (-80.0, 80.0), 2: (80.0, 80.0), 3: (80.0, -80.0),
                                4: (-80.0, -1e308)}}, r"stance_mm\[4\]"),
    (ScenarioConfig, {"gait": GaitParams(swing_s=1e307)}, "swing_s / tick_s"),
    (ScenarioConfig, {"gait": GaitParams(advance_s=1e307)}, "advance_s / tick_s"),
    (ScenarioConfig, {"adhesion": AdhesionModel(dwell_s=1e308)}, "dwell_s / tick_s"),
    (ScenarioConfig, {"adhesion": AdhesionModel(vent_s=1e308)}, "vent_s / tick_s"),
    (ScenarioConfig, {"tick_s": 5e-324}, "vent_s / tick_s"),
    (AdhesionModel, {"dwell_s": 5e-324}, "dwell_s"),
    # signs the model needs: a negative draw, or gravity that pulls the robot up the wall
    (ScenarioConfig, {"servo_power_w": -5.0}, "servo_power_w"),
    (ScenarioConfig, {"pump_power_w": -1e308}, "pump_power_w"),
    (ScenarioConfig, {"gravity_m_s2": -9.81}, "gravity_m_s2"),
    (ScenarioConfig, {"gravity_m_s2": 0.0}, "gravity_m_s2"),
    # work without end: a run's ticks and a joint table's rows are capped
    (ScenarioConfig, {"cycles": 1_000_000_000}, "cycles x ticks per cycle"),
    (ScenarioConfig, {"gait": GaitParams(swing_s=1e16)}, "cycles x ticks per cycle"),
    (ScenarioConfig, {"tick_s": 1e-300}, "cycles x ticks per cycle"),
    (GaitParams, {"samples_per_step": 1_000_000_000}, "samples_per_step x 4 steps x 4 legs"),
    # a duration or an energy that overflows, which summary.json would read as Infinity
    (ScenarioConfig, {"tick_s": 1e308}, "tick_s"),
    (ScenarioConfig, {"servo_power_w": 1e308}, "servo_power_w"),
    (ScenarioConfig, {"pump_power_w": 1e308}, "pump_power_w"),
    # draws whose energies are finite one by one but not summed
    (ScenarioConfig, {"servo_power_w": 6e306, "pump_power_w": 3e306}, "pump_power_w"),
    # a load that overflows, NaN at 0 deg, and a lift power that overflows at 45 deg
    (ScenarioConfig, {"mass_kg": 1e308}, "mass_kg"),
    (ScenarioConfig, {"gravity_m_s2": 1e308}, "mass_kg"),
    (ScenarioConfig, {"mass_kg": 1e300, "gravity_m_s2": 1e10}, "mass_kg"),
    (ScenarioConfig, {"climb_angle_deg": 45.0, "lift_efficiency": 5e-324}, "lift_efficiency"),
], ids=["cycles", "cycles-bool", "samples_per_step", "nan-seed", "branch-name", "order-repeat",
        "order-short", "stance-short", "stance-extra", "stance-xyz", "stance-1-tuple",
        "limits-tuple", "geometry-none", "gait-none", "adhesion-none", "mass-str", "angle-none",
        "geometry-str", "target-str", "vacuum-str", "stance-str", "pump-legs-none",
        "order-none", "stance-none", "stance-number", "pump-legs-value-none", "geometry-bool",
        "limits-bool", "target-bool", "adhesion-bool", "gait-bool", "stance-bool", "mass-bool",
        "order-float", "order-bool", "pump-legs-float", "pump-legs-bool", "step-huge",
        "step-huge-negative", "stance-huge", "swing-huge", "advance-huge", "dwell-huge",
        "vent-huge", "tick-tiny", "dwell-tiny", "servo-negative", "pump-negative",
        "gravity-negative", "gravity-zero", "cycles-many", "swing-long", "tick-short",
        "samples-many", "tick-long", "servo-huge", "pump-huge", "draws-summed", "mass-huge",
        "gravity-huge", "weight-huge", "lift-tiny"])
def test_inputs_that_would_fail_mid_run_are_rejected_when_built(make, kwargs, field):
    # unchecked, each of these builds and then crashes, runs without end, writes
    # Infinity into summary.json or runs nondeterministically
    with pytest.raises(ValueError, match=f"^{field} must be"):
        make(**kwargs)


def test_field_checks_come_from_the_annotations():
    # check_fields takes each field's check from its annotation: float, int or
    # a class of the package. A module that postponed its annotations would
    # make every field.type a string and turn its checks off without an error;
    # the written-out sets below would then not match.
    checked = [
        (LegGeometry(), {"a1", "a2", "a3", "a4"}, set(), set()),
        (JointLimits(), {"lower", "upper"}, set(), set()),
        (CupTarget(0.0, 100.0, 100.0, 0.0), {"x", "y", "z", "k"}, set(), set()),
        (GaitParams(), {"step_length_mm", "lift_mm", "z_mm", "k_rad", "swing_s", "advance_s"},
         {"samples_per_step"}, {"branch"}),
        (generate_cycle(LegGeometry(), GaitParams()), {"z_mm", "k_rad", "lift_mm"},
         {"step_length_um"}, {"initial", "branch"}),
        (AdhesionModel(), {"cup_area_mm2", "vacuum_kpa", "attach_threshold_kpa", "dwell_s",
                           "vent_s", "friction", "leak_kpa_per_s"}, set(), set()),
        (ScenarioConfig(), {"climb_angle_deg", "mass_kg", "gravity_m_s2", "tick_s",
                            "servo_power_w", "pump_power_w", "lift_efficiency", "c_slip",
                            "s_max", "noise_kpa"}, {"cycles", "seed"},
         {"geometry", "gait", "adhesion", "limits"}),
    ]
    for obj, floats, ints, classes in checked:
        found = {"finite": set(), "an integer": set(), "an instance": set()}
        for name in obj.__dataclass_fields__:  # a NaN in one field, past the constructor
            probe = copy.copy(obj)
            object.__setattr__(probe, name, math.nan)
            try:
                check_fields(probe)
            except ValueError as exc:
                found[re.match(f"{name} must be (finite|an integer|an instance)",
                               str(exc)).group(1)].add(name)
        assert [found["finite"], found["an integer"], found["an instance"]] == [
            floats, ints, classes], type(obj).__name__
        for name in floats | ints | classes:  # each constructor checks its fields first
            for bad in (math.nan, True, "1"):
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    replace(obj, **{name: bad})


def test_phase_ticks_are_counted_once_when_the_config_is_built():
    # (20, 60, 50, 40) ticks of 10 ms at the defaults
    assert dict(ScenarioConfig()._phase_ticks) == {"vent": 20, "swing": 60, "attach": 50,
                                                   "advance": 40}
    # A phase shorter than half a tick still takes one, and a ratio that ends
    # in a half rounds as round() does, to the even neighbour: 0.5 -> 0 -> 1,
    # 2.5 -> 2 and 3.5 -> 4.
    config = ScenarioConfig(tick_s=1.0, adhesion=AdhesionModel(vent_s=0.4, dwell_s=2.5),
                            gait=GaitParams(swing_s=3.5, advance_s=0.5))
    assert dict(config._phase_ticks) == {"vent": 1, "swing": 4, "attach": 2, "advance": 1}
    with pytest.raises(TypeError):
        config._phase_ticks["vent"] = 2


def test_zero_draw_is_accepted():
    config = ScenarioConfig(servo_power_w=0.0, pump_power_w=0.0, climb_angle_deg=90.0)
    assert power_model(config, 0.0, 2) == 0.0


@pytest.mark.parametrize("pump_legs", [{"A": (1, 2)}, {"A": (1, 2), "B": (2, 3)},
                                       {"A": (1, 2, 3, 4), "B": (1,)},
                                       {"A": (1, 2), "B": (3, 4), "C": ()}])
def test_scenario_config_rejects_bad_pump_legs(pump_legs):
    # the last one covers the legs, but the power model would bill its idle pump
    with pytest.raises(ValueError, match="pump assignment"):
        ScenarioConfig(pump_legs=pump_legs)


def test_records_list_legs_in_leg_order():
    # the pumps list their legs out of order; every record's leg dicts still
    # list the legs 1..4, computed and replayed ticks alike
    report = run_scenario(ScenarioConfig(pump_legs={"A": (4, 2), "B": (3, 1)}))
    assert report.ticks == len(report.records) > 0
    for record in report.records:
        assert list(record.valve) == [1, 2, 3, 4]
        assert list(record.pressure_kpa) == [1, 2, 3, 4]
        assert list(record.attached) == [1, 2, 3, 4]

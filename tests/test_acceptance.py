"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions hold (run with -s to see them). Expected
values come from independent oracles: forward kinematics for the
solvers, closed-form exponentials for the pneumatics, integer
bookkeeping replays for the gait, and hand unit arithmetic for forces.
"""

import json
import math
import random

import numpy as np
import pytest

from wallclimber.cli import EXIT_OK, EXIT_SIMFAIL, main
from wallclimber.gait import LEG_IDS, FootholdMap, GaitParams, generate_cycle, mm_to_um
from wallclimber.kinematics import (
    CupTarget,
    ElbowBranch,
    LegGeometry,
    fk_normal_z,
    fk_planar_xy,
    ik_normal_zy,
    ik_planar_xy,
    solve_leg,
)
from wallclimber.pneumatics import (
    DEFAULT_PUMP_LEGS,
    AdhesionModel,
    Valve,
    assign_pumps,
    grip,
    pressure_under_suction,
    vent,
)
from wallclimber.simulator import ScenarioConfig, run_scenario, sweep_climb_angle

GEOM = LegGeometry()
TOL_MM = 1e-9


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_ik_round_trip():
    rng = np.random.default_rng(2001)
    checked = 0

    def check(geom, x, y, branch):
        nonlocal checked
        t1, t2 = ik_planar_xy(geom, x, y, branch)
        fx, fy = fk_planar_xy(geom, t1, t2)
        assert abs(fx - x) <= TOL_MM and abs(fy - y) <= TOL_MM
        checked += 1

    for branch in ElbowBranch:
        for _ in range(1000):
            r = rng.uniform(1e-3, 200.0)
            phi = rng.uniform(-math.pi, math.pi)
            check(GEOM, r * math.cos(phi), r * math.sin(phi), branch)
        # boundary |D| = 1: full extension for the default geometry, full
        # extension and full fold for an unequal-link pair
        uneven = LegGeometry(120.0, 80.0, 100.0, 100.0)
        for _ in range(50):
            phi = rng.uniform(-math.pi, math.pi)
            check(GEOM, 200.0 * math.cos(phi), 200.0 * math.sin(phi), branch)
            check(uneven, 200.0 * math.cos(phi), 200.0 * math.sin(phi), branch)
            check(uneven, 40.0 * math.cos(phi), 40.0 * math.sin(phi), branch)
        check(GEOM, 200.0, 0.0, branch)
        check(uneven, 40.0, 0.0, branch)
    _report(1, f"fk(ik) within {TOL_MM} mm on {checked} targets incl. |D|=1 boundary")


def test_criterion_2_z_constraint():
    rng = np.random.default_rng(2002)
    for _ in range(1000):
        k = rng.uniform(-math.pi, math.pi)
        z = GEOM.a3 * rng.uniform(-1.0, 1.0) + GEOM.a4 * math.sin(k)
        t3, t4 = ik_normal_zy(GEOM, z, k)
        z_back, k_back = fk_normal_z(GEOM, t3, t4)
        assert abs(z_back - z) <= TOL_MM
        assert k_back == k  # theta3 + theta4 recomposes exactly
    _report(2, "clearance held within 1e-9 mm and approach angle exact on 1000 pairs")


def test_criterion_3_decoupling():
    rng = np.random.default_rng(2003)
    for _ in range(100):
        r = rng.uniform(1.0, 200.0)
        phi = rng.uniform(-math.pi, math.pi)
        x, y = r * math.cos(phi), r * math.sin(phi)
        k1, k2 = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
        z1 = rng.uniform(0.0, GEOM.a3 + GEOM.a4 * math.sin(k1))
        z2 = rng.uniform(0.0, GEOM.a3 + GEOM.a4 * math.sin(k2))
        a = solve_leg(GEOM, CupTarget(x, y, z1, k1))
        b = solve_leg(GEOM, CupTarget(x, y, z2, k2))
        assert (a.theta1, a.theta2) == (b.theta1, b.theta2)
        r2 = rng.uniform(1.0, 200.0)
        phi2 = rng.uniform(-math.pi, math.pi)
        c = solve_leg(GEOM, CupTarget(r2 * math.cos(phi2), r2 * math.sin(phi2), z1, k1))
        assert (a.theta3, a.theta4) == (c.theta3, c.theta4)
    _report(3, "xy and zy solutions bit-identical under cross perturbation, 100 cases")


def test_criterion_4_gait_safety():
    report = run_scenario(ScenarioConfig(cycles=10))
    assert report.completed
    violations = sum(1 for rec in report.records if sum(rec.attached.values()) < 3)
    assert violations == 0
    _report(4, f"attached >= 3 at every one of {len(report.records)} ticks, 10 cycles")


def test_criterion_5_cycle_closure():
    stance = FootholdMap.square_stance()
    script = generate_cycle(GEOM, GaitParams(step_length_mm=40.0))
    for cycles in (1, 5, 20):
        # simulated displacement, exact in integer micrometres
        report = run_scenario(ScenarioConfig(cycles=cycles))
        assert report.displacement_mm == cycles * 40.0
        # independent integer replay of the foothold pattern
        wall = dict(stance.points_um)
        body = 0
        for _ in range(cycles):
            for step in script.steps:
                wall[step.swing_leg] = (step.new_foothold_um[0],
                                        step.new_foothold_um[1] + body)
                body += step.body_advance_um
        assert body == cycles * mm_to_um(40.0)
        assert {leg: (wall[leg][0], wall[leg][1] - body)
                for leg in LEG_IDS} == stance.points_um
    _report(5, "displacement and stance pattern exact after 1, 5, and 20 cycles")


def test_criterion_6_trend_reproduction():
    angles = [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0]
    rows = sweep_climb_angle(ScenarioConfig(), angles)
    speeds = [row.avg_speed_mm_s for row in rows]
    powers = [row.avg_power_w for row in rows]
    assert all(row.completed for row in rows)
    assert all(a >= b for a, b in zip(speeds, speeds[1:]))
    assert all(a <= b for a, b in zip(powers, powers[1:]))
    assert speeds[0] > speeds[-1]
    assert powers[0] < powers[-1]
    _report(6, "speed non-increasing and power non-decreasing over 0..90 deg, "
               "strict between the ends")


def test_criterion_7_pneumatic_protocol():
    model = AdhesionModel()
    # closed-form oracle: one dwell is three time constants. A default
    # one-cycle run swings leg 1 first; its first attach dwell starts from
    # 0.0 kPa on record 80 and ends on record 129.
    records = run_scenario(ScenarioConfig(cycles=1)).records
    assert records[79].pressure_kpa[1] == 0.0
    gripped = records[129]
    expected = model.vacuum_kpa * (1.0 - math.exp(-3.0))
    assert gripped.valve[1] is Valve.SUCTION and gripped.attached[1]
    assert gripped.pressure_kpa[1] == pytest.approx(expected, rel=1e-12)
    assert abs(gripped.pressure_kpa[1] - model.vacuum_kpa) <= 0.05 * abs(model.vacuum_kpa)

    # random valve and pump switches; grip gets the legs whose valve is on
    # suction and whose pump runs, and must hold no other leg
    rng = random.Random(2007)
    pump_of_leg = assign_pumps(DEFAULT_PUMP_LEGS)
    pump_on = {pump: True for pump in DEFAULT_PUMP_LEGS}
    valve = {leg: Valve.VENT for leg in LEG_IDS}
    pressure = {leg: 0.0 for leg in LEG_IDS}
    steps = 0
    for _ in range(1000):
        op = rng.randrange(4)
        leg = rng.choice(LEG_IDS)
        pump = rng.choice(("A", "B"))
        if op == 0:
            valve[leg] = Valve.SUCTION
            if pump_on[pump_of_leg[leg]]:
                pressure[leg] = pressure_under_suction(model, pressure[leg], model.dwell_s)
        elif op == 1:
            valve[leg] = Valve.VENT
            pressure[leg] = vent(pressure[leg], 1.0)
        else:
            pump_on[pump] = op == 2
        steps += 1
        suction_legs = [other for other in LEG_IDS
                        if valve[other] is Valve.SUCTION and pump_on[pump_of_leg[other]]]
        attached = grip(pressure, suction_legs, model)[0]
        for check in LEG_IDS:
            if valve[check] is Valve.VENT or not pump_on[pump_of_leg[check]]:
                assert not attached[check]
    _report(7, f"attach oracle within 5% of vacuum; invariant held over {steps} "
               "random transitions")


def test_criterion_8_determinism(tmp_path):
    for i in ("a", "b"):
        assert main(["simulate", "-o", str(tmp_path / f"sim_{i}")]) == EXIT_OK
        assert main(["sweep", "0", "45", "90", "-o", str(tmp_path / f"sweep_{i}.csv")]) == EXIT_OK
    assert ((tmp_path / "sim_a.summary.json").read_bytes()
            == (tmp_path / "sim_b.summary.json").read_bytes())
    assert ((tmp_path / "sim_a.series.csv").read_bytes()
            == (tmp_path / "sim_b.series.csv").read_bytes())
    assert ((tmp_path / "sweep_a.csv").read_bytes()
            == (tmp_path / "sweep_b.csv").read_bytes())
    _report(8, "repeat simulate and sweep runs byte-identical")


def test_criterion_9_overload_failure_mode(tmp_path):
    # hand check from capacity linearity: one cup holds
    # 0.5 * 50 kPa * 1963 mm^2 = 49.075 N tangentially, so three hold
    # 147.225 N; choose a mass whose 90-degree load exceeds that.
    model = AdhesionModel()
    pressure = {leg: model.vacuum_kpa for leg in LEG_IDS}
    cap4_n = grip(pressure, LEG_IDS, model)[2]
    cap3_n = grip(pressure, (1, 2, 3), model)[2]  # leg 4's valve vented
    assert cap3_n == pytest.approx(3 * 0.5 * 50.0 * 1963.0 / 1000.0, rel=1e-12)
    assert cap4_n / cap3_n == pytest.approx(4.0 / 3.0, rel=1e-12)

    mass = (cap3_n + 20.0) / 9.81  # past 3-cup but below 4-cup capacity
    assert cap3_n < mass * 9.81 < cap4_n
    report = run_scenario(ScenarioConfig(climb_angle_deg=90.0, mass_kg=mass))
    assert not report.completed
    assert "overload" in report.failure_reason
    assert report.failure_tick is not None

    # absurd overload through the CLI: nonzero exit, no traceback
    config = tmp_path / "heavy.ini"
    config.write_text("[scenario]\nclimb_angle_deg = 90\nmass_kg = 1000\n")
    code = main(["--config", str(config), "simulate", "-o", str(tmp_path / "heavy")])
    assert code == EXIT_SIMFAIL
    summary = json.loads((tmp_path / "heavy.summary.json").read_text())
    assert summary["completed"] is False
    _report(9, "overload terminates with an adhesion failure report, not a crash")

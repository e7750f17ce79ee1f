"""run_scenario and sweep_climb_angle against the plain per-tick model of
tests/reference_run.py.

Every other guard of a run compares the simulator with itself: list mode
with sinks, replayed cycles with computed ones, a sweep with direct runs. A
mistake those paths share shows only here. The model steps every tick, so
each case compares, by repr, a list-mode run's records, a record-free run's
summary and a sweep's rows with it.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import event, example, given, settings
from reference_run import reference_run
from test_run_paths import CASES
from test_streaming import multi_cycle_scenarios

from wallclimber.fileio import summary_dict
from wallclimber.pneumatics import AdhesionModel
from wallclimber import simulator
from wallclimber.simulator import ScenarioConfig, SweepRow, run_scenario, sweep_climb_angle


def summary(report):
    return {**summary_dict(report), "failure_code": report.failure_code}


def assert_matches_reference(config):
    ticks, expected = reference_run(config)
    listed = run_scenario(config)
    assert len(listed.records) == len(ticks)
    for record, tick in zip(listed.records, ticks):  # one tick at a time: a short diff
        got = (record.t_s, record.body_mm, record.valve, record.pressure_kpa, record.attached,
               record.power_w, record.slip)
        want = (tick.t_s, tick.body_mm, tick.valve, tick.pressure_kpa, tick.attached,
                tick.power_w, tick.slip)
        assert repr(got) == repr(want)
    assert repr(summary(listed)) == repr(expected)
    assert repr(summary(simulator._run(config, keep=False))) == repr(expected)

    # The sweep shares one pneumatic pass between its angles, and a noisy
    # run's jitter reaches its records, not its summary. At 90 degrees the
    # load is largest.
    angles = sorted({config.climb_angle_deg, 90.0})
    for row, angle in zip(sweep_climb_angle(config, angles), angles):
        at_angle = expected if angle == config.climb_angle_deg else reference_run(
            replace(config, climb_angle_deg=angle))[1]
        assert repr(row) == repr(SweepRow(angle, at_angle["avg_speed_mm_s"],
                                          at_angle["avg_power_w"], at_angle["completed"]))
    return expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_run_paths_match_the_reference(case):
    # the pinned paths: overloads on the first and on a later vent tick, the
    # attach extension (leak 115 kPa/s) and timeout (119.9 kPa/s), settled
    # slip, a replay that starts mid-cycle, noise and coarse ticks
    overrides, ticks, failure_tick = CASES[case][:3]
    expected = assert_matches_reference(ScenarioConfig(**overrides))
    assert (expected["ticks"], expected["failure_tick"]) == (ticks, failure_tick)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(multi_cycle_scenarios)
@example(ScenarioConfig(climb_angle_deg=90.0, mass_kg=15.0, cycles=3))
@example(ScenarioConfig(cycles=4, adhesion=AdhesionModel(leak_kpa_per_s=119.9)))
def test_runs_match_the_reference(config):
    expected = assert_matches_reference(config)
    event("completed" if expected["completed"] else expected["failure_code"])
    assert math.isfinite(expected["total_energy_j"])

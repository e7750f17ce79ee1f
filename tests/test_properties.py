"""Property tests of the per-tick invariants the gait relies on.

Over random one-cycle scenarios (angle, mass, leak, timings, tick length,
slip model, advance mode, noise), every tick of a run must keep:

* at least three cups attached;
* on noise-free runs, a cup attached exactly when its valve is on suction
  and its pressure is at or below the attach threshold (the pumps run
  throughout);
* a body that never moves back;
* a total energy equal to the in-order sum of power times tick.

Runs that fail (overload, attach timeout) are checked the same way up to
their last tick. The examples are derandomised, so every run of the suite
tries the same scenarios.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from wallclimber.gait import ADVANCE_MODES, LEG_IDS
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

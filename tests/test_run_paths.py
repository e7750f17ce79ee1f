"""Golden bytes of run paths that the CLI golden files do not reach.

Each case streams its series through `fileio.series_csv_sink`, exactly as
`wallclimber simulate` does, and hashes the file and the sorted JSON of
`fileio.summary_dict`. The hashes were recorded from the tick loop as it
was before it was restructured into one function with a single exit, those
of `noise_replayed`, `settled_slip` and `slip_30_cycles` from the tick loop
before it replayed repeated steps, and those of `mid_cycle_repeat` from the
loop that replayed single steps, before it replayed whole cycles. Those of
`first_vent_overload` and `unsettled_vent_overload` were recorded when an
overload on a vent tick started to end the run like an overload on any other
tick. A change that alters one written float or one failure message fails
here.

A run replays a cycle once the cycle starts in the state the previous cycle
started in: the exact bits of the cup pressures and the footholds in the
body frame. That check runs once per cycle, and the replay holds one cycle
of ticks and runs to the end of the run.
"""

import hashlib
import json

import pytest

from wallclimber import fileio
from wallclimber.pneumatics import AdhesionModel
from wallclimber.simulator import GaitParams, ScenarioConfig, run_scenario

# name -> (config overrides, ticks, failure_tick, series sha256, summary sha256)
CASES = {
    # the load lies between the three- and four-cup capacities, so releasing
    # the first cup overloads the other three on the run's first tick
    "first_vent_overload": (
        dict(climb_angle_deg=90.0, mass_kg=170 / 9.81), 1, 0,
        "0e00c9136f5540d7b77a23edf18f6b6c105006d59ee5ca62d2a53a114f8e8361",
        "838a630a20d0660376e3e79c2e4aca66694d763245462c96580b25aeb19e6f92"),
    # every attach needs its one extra dwell
    "attach_extension": (
        dict(adhesion=AdhesionModel(leak_kpa_per_s=115.0)), 2640, None,
        "6ced7afc0f5824381aa4262fa25d54785f50b3fc9eb972f07c8bdf3e3083ff87",
        "a39a103acbdc18ec28a37ef695a3f235931e156727b95a86f41df9204234b677"),
    # the extra dwell is not enough either
    "attach_timeout": (
        dict(adhesion=AdhesionModel(leak_kpa_per_s=119.9)), 180, 179,
        "a57960d739fc8435490f3bdc89323e57b9ecff2a9dc8ea87e550184b1d900f43",
        "412019aec8b5daaea5d2e94970dcfb1218949cfcbcaf0c6260e768edc0648fd8"),
    "per_cycle": (
        dict(climb_angle_deg=75.0, gait=GaitParams(advance_mode="per_cycle")), 2040, None,
        "9fe2fb57ef362ecaac502213e649e362271704e5ba08d6e6dc4b7dc18dc62785",
        "3dc30ddb6e77143df48b8b34d13534e21b8a1f0357087ce9b0fca09ddcade2d5"),
    "noise": (
        dict(climb_angle_deg=60.0, noise_kpa=0.5, cycles=2), 1360, None,
        "64218c0578f7ce862d11e1d29ed43a9af1a7ab216a3fb7183cce51e45448f2df",
        "b16d18b2a750011eb9c58d61bc4ee10b78584170e6f4bb3fa0968a02028ac9ef"),
    # cycles 3 and 4 replay cycle 2, and the jitter is drawn anew
    "noise_replayed": (
        dict(climb_angle_deg=60.0, noise_kpa=0.5, cycles=4), 2720, None,
        "3f6bcb1a851e473b52360fd02207f57bffebe1cea16e9dcfc0e27f234d6c75d8",
        "5d96e42b0ba8391b460a9dba3f034b2da1c516448e2a8cbe458f817abb1779d3"),
    # slip on every advance; 28 of the 30 cycles are replayed (the series is
    # the simulate_long golden output of the benchmark)
    "slip_30_cycles": (
        dict(climb_angle_deg=45.0, cycles=30), 20400, None,
        "b8d7b521e0049a7752b30da7b5f2658782d069cff84b42930c0b1cd98e5737d5",
        "ec95948f2f5e9949ec7db6a4ba1a2e0cab175c770b19ea930964a226fe1ebc98"),
    # a 2-tick dwell with 0.05 s ticks under slip: cycle 2 starts with leg
    # 4's cup at -49.99998470488397 kPa against -50.0 at cycle 1, so the
    # pressure bits alone make it a new start state; cycle 3 starts in
    # cycle 2's state to the bit and replays it
    "settled_slip": (
        dict(climb_angle_deg=45.0, tick_s=0.05, adhesion=AdhesionModel(dwell_s=0.1)), 312, None,
        "84b11b1a2871d9cc151fcb181706a2c0da3114cae4a39dede0e8d1dae1284749",
        "fc186fbeae8d823df531fc630e493f2b2c690594478c9f909b42ccd85dc8e82f"),
    # the first step that repeats the step a cycle earlier is in the middle
    # of cycle 3; the replay starts with cycle 4, the first whose start state
    # repeats, and it fails if the footholds are left out of that state
    "mid_cycle_repeat": (
        dict(climb_angle_deg=25.0, mass_kg=15.0, cycles=8, tick_s=0.05,
             gait=GaitParams(swing_s=0.05, advance_s=0.01),
             adhesion=AdhesionModel(dwell_s=0.3, vent_s=0.05)), 288, None,
        "ce9ef8ff59cef55927cd38769a353d3eb670cdfdd693a373467d884cb1d9fd9f",
        "bfdfcdd684267c23ab4b4bd0354f263a7c3bf044999ef42904b632332dded053"),
    # the first step holds, but its 1-tick advance leaves leg 1 short of
    # equilibrium, so leg 2's vent overloads on its first tick, tick 131
    "unsettled_vent_overload": (
        dict(climb_angle_deg=90.0, mass_kg=14.9, cycles=2, gait=GaitParams(advance_s=0.01)),
        132, 131,
        "80415a36a3b1ee54dc23fbc400fa81ab4f7ff9d4a4cd2b6f5f297c58f75a59b7",
        "81cf06f78573a361ddfb4777fe9da7298e9d663dec1f8fcde8a6d3fcc4f13936"),
    # 0.03 s ticks: every phase length is rounded, the advance to 13 ticks
    "coarse_tick": (
        dict(climb_angle_deg=45.0, tick_s=0.03), 684, None,
        "fa16092301e5f06bae93bd56a330173193fc628f916125eb20970040ac98e1c4",
        "54cb5b62cef7fc2d7c2704a0f10893ed991b791b3e27386b21697eaaaf517638"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_path_matches_golden_hashes(case, tmp_path):
    overrides, ticks, failure_tick, series_sha, summary_sha = CASES[case]
    path = tmp_path / "run.series.csv"
    with fileio.series_csv_sink(str(path)) as sink:
        report = run_scenario(ScenarioConfig(**overrides), sink=sink)
    assert (report.ticks, report.failure_tick) == (ticks, failure_tick)
    assert report.completed is (failure_tick is None)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == series_sha
    summary = json.dumps(fileio.summary_dict(report), sort_keys=True).encode()
    assert hashlib.sha256(summary).hexdigest() == summary_sha

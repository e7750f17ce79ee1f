"""The streamed series file against a plain formatter with no caches.

`series_row_formatter` keeps the text after body_mm of each tick it formats
and reuses it for the ticks that replay it, and formats each pose once.
These tests format every field of every tick afresh, the way the file
format is specified, and compare the CLI's series file byte for byte.
"""

import math
import tracemalloc
from dataclasses import replace

import pytest

from wallclimber import fileio
from wallclimber.cli import EXIT_OK, EXIT_SIMFAIL, main
from wallclimber.config import CONFIG_ENV_VAR, load_config
from wallclimber.gait import LEG_IDS
from wallclimber.pneumatics import Valve
from wallclimber.simulator import ScenarioConfig, run_scenario

RUNS = {
    "default": ("[scenario]\n", EXIT_OK),
    # slip is active on every advance
    "slip": ("[scenario]\nclimb_angle_deg = 45\ncycles = 3\n", EXIT_OK),
    # the equilibrium is above the attach threshold: no tick runs
    "leaky": ("[adhesion]\nleak_kpa_s = 200\n", EXIT_SIMFAIL),
    # the equilibrium still grips, but every cup relaxes toward it slowly
    "leaky-gripping": ("[adhesion]\nleak_kpa_s = 100\n", EXIT_OK),
    # advance ticks slip -0.0 (min(..., s_max)), the others 0.0
    "negative-zero-slip": ("[scenario]\nclimb_angle_deg = 45\ncycles = 1\ns_max = -0.0\n",
                           EXIT_OK),
    # every pressure is distinct, so a replayed tick overwrites the text of the tick it repeats
    "noisy": ("[scenario]\nclimb_angle_deg = 45\ncycles = 3\nnoise_kpa = 0.5\nseed = 7\n",
              EXIT_OK),
    # a cycle of 6,800 ticks with more poses than the pose cache holds; the third one replays
    "long-cycle": ("[scenario]\nclimb_angle_deg = 45\ncycles = 3\ntick_s = 0.001\n", EXIT_OK),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def _text(value):
    return repr(float(value))


def reference_row(rec):
    fields = [_text(rec.t_s), _text(rec.body_mm)]
    for leg in LEG_IDS:
        fields += [_text(math.degrees(theta)) for theta in rec.angles[leg].as_tuple()]
        fields += [rec.valve[leg].value, _text(rec.pressure_kpa[leg]),
                   "1" if rec.attached[leg] else "0"]
    fields += [_text(rec.power_w), _text(rec.slip)]
    return ",".join(fields) + "\n"


@pytest.mark.parametrize("case", sorted(RUNS))
def test_streamed_series_matches_plain_formatter(case, tmp_path, capsys, assert_same_lines):
    text, exit_code = RUNS[case]
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    assert main(["--config", str(ini), "simulate", "-o", str(tmp_path / "run")]) == exit_code
    capsys.readouterr()
    report = run_scenario(load_config(str(ini)))
    if case == "long-cycle":
        poses = {id(angles) for rec in report.records for angles in rec.angles.values()}
        assert report.ticks // 3 > fileio._CACHE_CAP and len(poses) > fileio._CACHE_CAP
    expected = ",".join(fileio.series_header()) + "\n"
    expected += "".join(reference_row(rec) for rec in report.records)
    assert_same_lines((tmp_path / "run.series.csv").read_text(encoding="utf-8"), expected)


def test_signed_zeros_print_as_given():
    rec = run_scenario(ScenarioConfig(cycles=1)).records[0]
    zeros = (0.0, -0.0, 0.0)
    variants = [replace(rec, body_mm=body, power_w=power, slip=slip)
                for body in zeros for power in zeros for slip in zeros]
    format_row = fileio.series_row_formatter()
    assert [format_row(v) for v in variants] == [reference_row(v) for v in variants]


def test_replayed_ticks_are_formatted_from_the_tick_they_repeat(tmp_path, monkeypatch):
    degrees_text, calls = fileio._degrees_text, []
    monkeypatch.setattr(fileio, "_degrees_text",
                        lambda cache, key, angles: calls.append(angles)
                        or degrees_text(cache, key, angles))
    # A run makes a new attached dict on each computed tick, and a replayed
    # tick shares the dict of the tick it repeats. `seen` keeps every dict
    # alive, so no id is reused.
    seen, computed, replayed = {}, [], []

    def sink(rec):
        before = len(calls)
        write(rec)
        (replayed if id(rec.attached) in seen else computed).append(len(calls) - before)
        seen[id(rec.attached)] = rec.attached

    with fileio.series_csv_sink(tmp_path / "run.csv") as write:
        report = run_scenario(ScenarioConfig(climb_angle_deg=45.0, cycles=3, tick_s=0.001),
                              sink=sink)
    assert len(computed) == 2 * 6800 and len(replayed) == 6800 == report.ticks // 3
    assert set(computed) == {4} and set(replayed) == {0}


def test_records_replaced_from_a_replayed_tick_print_their_own_fields():
    report = run_scenario(ScenarioConfig(cycles=3))
    per_cycle = report.ticks // 3
    format_row = fileio.series_row_formatter()
    for rec in report.records:
        format_row(rec)
    index = next(i for i in range(2 * per_cycle, report.ticks)
                 if 0.0 in report.records[i].pressure_kpa.values())
    rec = report.records[index]
    assert rec.attached is report.records[index - per_cycle].attached  # a replayed tick
    leg = next(leg for leg, p in rec.pressure_kpa.items() if p == 0.0)
    same = [replace(rec, pressure_kpa=dict(rec.pressure_kpa)),  # equal values, new dicts
            replace(rec, attached=dict(rec.attached))]
    changed = [  # the first: 0.0 and -0.0 compare equal but print apart
        replace(rec, pressure_kpa={**rec.pressure_kpa, leg: -rec.pressure_kpa[leg]}),
        replace(rec, slip=-rec.slip),
        replace(rec, power_w=rec.power_w + 1.0),
        replace(rec, angles={**rec.angles, 1: rec.angles[2]}),
        replace(rec, valve={**rec.valve, leg: Valve.VENT if rec.valve[leg] is Valve.SUCTION
                            else Valve.SUCTION}),
    ]
    assert all(reference_row(variant) != reference_row(rec) for variant in changed)
    for variant in same + changed:
        assert format_row(variant) == reference_row(variant)
        assert format_row(rec) == reference_row(rec)


def _peak_streamed_bytes(path, cycles):
    config = ScenarioConfig(climb_angle_deg=45.0, cycles=cycles, noise_kpa=0.5, seed=3)
    tracemalloc.start()
    try:
        with fileio.series_csv_sink(path) as sink:
            run_scenario(config, sink=sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_series_memory_stays_flat_in_cycles(tmp_path):
    long_peak = _peak_streamed_bytes(tmp_path / "long.csv", 20)
    assert long_peak < 2 * _peak_streamed_bytes(tmp_path / "short.csv", 2)

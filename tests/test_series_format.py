"""The streamed series file against a plain formatter with no caches.

`series_csv_sink` keeps the text after body_mm of each tick of the cycle
being computed and writes a replayed cycle from it, and formats each pose
once. These tests format every field of every tick afresh, the way the file
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
    # a noisy run writes every tick from its TickRecord, replayed ticks included
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
                        lambda cache, angles: calls.append(angles)
                        or degrees_text(cache, angles))
    # The file sink, passed directly, writes the third cycle from the text it
    # held for the second, through its cycle hook, without formatting a pose.
    replayed = []  # (ticks, _degrees_text calls) of each replayed cycle
    with fileio.series_csv_sink(tmp_path / "run.csv") as sink:
        cycle = sink.cycle

        def counted_cycle(times=(), bodies=()):
            before = len(calls)
            cycle(times, bodies)
            if times:
                replayed.append((len(times), len(calls) - before))

        sink.cycle = counted_cycle
        report = run_scenario(ScenarioConfig(climb_angle_deg=45.0, cycles=3, tick_s=0.001),
                              sink=sink)
    assert replayed == [(6800, 0)] and report.ticks == 3 * 6800
    assert len(calls) == 4 * 2 * 6800  # one per leg of each computed tick
    with open(tmp_path / "run.csv", encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 1 + report.ticks


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


def _peak_streamed_bytes(path, config):
    tracemalloc.start()
    try:
        with fileio.series_csv_sink(path) as sink:
            run_scenario(config, sink=sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_series_memory_stays_flat_in_cycles(tmp_path):
    config = ScenarioConfig(climb_angle_deg=45.0, noise_kpa=0.5, seed=3)
    long_peak = _peak_streamed_bytes(tmp_path / "long.csv", replace(config, cycles=20))
    assert long_peak < 2 * _peak_streamed_bytes(tmp_path / "short.csv", replace(config, cycles=2))


def test_replaying_sink_holds_one_cycle_of_text(tmp_path):
    # 6,800 ticks a cycle, and the third cycle replays the second: the sink
    # holds the second cycle's text by then, not the first's as well
    config = ScenarioConfig(climb_angle_deg=45.0, cycles=1, tick_s=0.001)
    one = _peak_streamed_bytes(tmp_path / "one.csv", config)
    assert _peak_streamed_bytes(tmp_path / "three.csv", replace(config, cycles=3)) <= 1.3 * one

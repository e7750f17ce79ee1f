import math
import os
import random
import re
import struct
import tempfile
from dataclasses import replace

import file_readers
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallclimber import fileio
from wallclimber.gait import LEG_IDS, GaitParams, JointTableRow, compile_joint_table
from wallclimber.kinematics import JointAngles, LegGeometry
from wallclimber.pneumatics import vent
from wallclimber.simulator import ScenarioConfig, SweepRow, run_scenario, sweep_climb_angle

GEOM = LegGeometry()


def compiled_rows():
    return compile_joint_table(GaitParams(samples_per_step=4), GEOM)


def test_joint_table_round_trip(tmp_path):
    rows = compiled_rows()
    path = tmp_path / "table.csv"
    fileio.write_joint_table(path, rows)
    back = file_readers.read_joint_table(path)
    assert len(back) == len(rows)
    for original, parsed in zip(rows, back):
        assert parsed.t_s == original.t_s
        assert parsed.leg == original.leg
        assert parsed.attached == original.attached
        # file floats reproduce the written degrees exactly (repr round-trip)
        assert parsed.theta_deg == tuple(
            math.degrees(t) for t in original.angles.as_tuple())


def test_joint_table_header_and_line_endings(tmp_path):
    path = tmp_path / "table.csv"
    fileio.write_joint_table(path, compiled_rows())
    raw = path.read_bytes()
    assert raw.startswith(b"t_s,leg,theta1_deg,theta2_deg,theta3_deg,theta4_deg,attached\n")
    assert b"\r" not in raw


def test_series_round_trip(tmp_path):
    report = run_scenario(ScenarioConfig(cycles=1))
    path = tmp_path / "series.csv"
    fileio.write_series_csv(path, report)
    rows = file_readers.read_series_csv(path)
    assert len(rows) == len(report.records)
    rec = report.records[17]
    row = rows[17]
    assert row["t_s"] == rec.t_s
    assert row["body_mm"] == rec.body_mm
    assert row["power_w"] == rec.power_w
    for leg in (1, 2, 3, 4):
        assert row[f"leg{leg}_theta2_deg"] == math.degrees(rec.angles[leg].theta2)
        assert row[f"leg{leg}_valve"] == rec.valve[leg].value
        assert row[f"leg{leg}_pressure_kpa"] == rec.pressure_kpa[leg]
        assert row[f"leg{leg}_attached"] == rec.attached[leg]


def test_summary_round_trip(tmp_path):
    report = run_scenario(ScenarioConfig(cycles=1, climb_angle_deg=30.0))
    path = tmp_path / "summary.json"
    fileio.write_summary_json(path, report)
    data = file_readers.read_summary_json(path)
    assert data["angle_deg"] == 30.0
    assert data["avg_speed_mm_s"] == report.average_speed_mm_s
    assert data["avg_power_w"] == report.average_power_w
    assert data["completed"] is True
    assert data["ticks"] == len(report.records)
    assert data["slip_count"] == report.slip_count


def test_sweep_round_trip(tmp_path):
    rows = sweep_climb_angle(ScenarioConfig(cycles=1), [0.0, 45.0, 90.0])
    path = tmp_path / "sweep.csv"
    fileio.write_sweep_csv(path, rows)
    raw = path.read_text(encoding="utf-8")
    assert raw.splitlines()[0] == "angle_deg,avg_speed_mm_s,avg_power_w,completed"
    back = file_readers.read_sweep_csv(path)
    assert len(back) == 3
    for original, (angle, speed, power, completed) in zip(rows, back):
        assert angle == original.angle_deg
        assert speed == original.avg_speed_mm_s
        assert power == original.avg_power_w
        assert completed == original.completed


def test_series_keeps_the_sign_of_zero_pressures(tmp_path):
    # each vent ends at -0.0 kPa and the swing then holds 0.0 kPa; the two
    # compare equal but must be written as they are
    report = run_scenario(ScenarioConfig(cycles=1))
    path = tmp_path / "series.csv"
    fileio.write_series_csv(path, report)
    lines = path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("leg1_pressure_kpa")
    written = [line.split(",")[column] for line in lines[1:]]
    assert written == [repr(rec.pressure_kpa[1]) for rec in report.records]
    assert "0.0" in written and "-0.0" in written


def test_joint_table_keeps_the_sign_of_zero_angles(tmp_path):
    # equal by value, so a formatting cache keyed on values would merge them
    plus = JointAngles(0.0, 0.0, 0.0, 0.0)
    minus = JointAngles(-0.0, 0.0, -0.0, 0.0)
    assert plus == minus
    rows = [JointTableRow(0.0, 1, plus, True, (0.0, 0.0, 0.0)),
            JointTableRow(0.0, 2, minus, True, (0.0, 0.0, 0.0)),
            JointTableRow(1.0, 1, plus, False, (0.0, 0.0, 0.0))]
    path = tmp_path / "table.csv"
    fileio.write_joint_table(path, rows)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        "0.0,1,0.0,0.0,0.0,0.0,1",
        "0.0,2,-0.0,0.0,-0.0,0.0,1",
        "1.0,1,0.0,0.0,0.0,0.0,0",
    ]


def test_the_degree_factor_is_math_degrees_bit_for_bit():
    # the writers turn radians into degrees as x * _DEG, without math.degrees'
    # call; random bit patterns cover every exponent, subnormals and infinities
    rng = random.Random(0)
    values = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
              for _ in range(100_000)]
    values += [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf]
    assert [(x * fileio._DEG).hex() for x in values] == [math.degrees(x).hex() for x in values]


@pytest.fixture(scope="module")
def first_tick():
    return run_scenario(ScenarioConfig(cycles=1)).records[0]


def written_lines(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read().split("\n")[1:-1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.floats(allow_nan=False), st.integers(-2**63, 2**63)))
@example(15)  # a sweep angle of 15 prints 15.0
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072e-308)
@example(1e300)
@example(-1e300)
@example(np.float64(-0.1))  # its own repr reads np.float64(-0.1)
def test_every_writer_prints_repr_of_the_float_and_of_math_degrees(first_tick, value):
    # each file writes a number as f"{float(v)!r}" and an angle in radians as
    # f"{float(v) * _DEG!r}"; they must read repr(float(v)) and repr(math.degrees(v))
    text, degrees = repr(float(value)), ",".join([repr(math.degrees(value))] * 4)
    angles = JointAngles(value, value, value, value)
    rec = replace(first_tick, t_s=value, body_mm=value, power_w=value, slip=value,
                  angles={leg: angles for leg in LEG_IDS},
                  pressure_kpa={leg: value for leg in LEG_IDS})
    with tempfile.TemporaryDirectory() as tmp:
        sweep, table, series = (os.path.join(tmp, name) for name in ("s.csv", "t.csv", "r.csv"))
        fileio.write_sweep_csv(sweep, [SweepRow(value, value, value, True)])
        with fileio.joint_table_sink(table) as sink:  # one buffer: a row follows a step's sample
            sink.step(2, {leg: (value,) * 4 for leg in LEG_IDS})(value, (value,) * 4)
            sink(JointTableRow(value, 1, angles, True, (0.0, 0.0, 0.0)))
        with fileio.series_csv_sink(series) as sink:
            sink.cycle()
            sink(rec)
            sink.cycle((value,), (value,))  # a replay writes t_s and body_mm from its own values
        assert written_lines(sweep) == [f"{text},{text},{text},true"]
        assert written_lines(table) == [f"{text},1,{degrees},1", f"{text},2,{degrees},0",
                                        f"{text},3,{degrees},1", f"{text},4,{degrees},1",
                                        f"{text},1,{degrees},1"]
        row = ",".join([text, text] + [f"{degrees},{rec.valve[leg].value},{text},"
                                       f"{'1' if rec.attached[leg] else '0'}" for leg in LEG_IDS]
                       + [text, text])
        assert written_lines(series) == [row, row]


@pytest.mark.parametrize("read", [file_readers.read_joint_table, file_readers.read_series_csv,
                                  file_readers.read_sweep_csv],
                         ids=lambda read: read.__name__)
def test_reading_an_empty_file_names_the_file(read, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*empty file"):
        read(path)


def test_a_full_vent_ends_at_signed_zero():
    # the simulator's ramp ends at -0.0, which its series file prints
    assert math.copysign(1.0, vent(-40.0, 1.0)) == -1.0


# --- every output replaces its path only on success ---------------------------

class Stop(Exception):
    pass


def stops_after_one(items):
    yield items[0]
    raise Stop


def failing_summary():
    report = run_scenario(ScenarioConfig(cycles=1))
    report.failure_reason = object()  # JSON cannot encode it, and it sorts after other keys
    return report


@pytest.mark.parametrize("write, argument, error", [
    (fileio.write_joint_table, lambda: stops_after_one(compiled_rows()), Stop),
    (fileio.write_sweep_csv, lambda: stops_after_one([SweepRow(0.0, 1.0, 2.0, True)]), Stop),
    (fileio.write_summary_json, failing_summary, TypeError),
], ids=["joint_table", "sweep", "summary"])
def test_a_write_that_fails_part_way_leaves_the_old_file(write, argument, error, tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"an earlier output\n")
    with pytest.raises(error):
        write(path, argument())
    assert path.read_bytes() == b"an earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_an_output_symlink_is_replaced_not_written_through(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"kept\n")
    link = tmp_path / "sweep.csv"
    link.symlink_to(target)
    fileio.write_sweep_csv(link, [SweepRow(0.0, 1.0, 2.0, True)])
    assert not link.is_symlink()
    assert file_readers.read_sweep_csv(link) == [(0.0, 1.0, 2.0, True)]
    assert target.read_bytes() == b"kept\n"


def test_a_write_error_names_the_temporary_file(tmp_path):
    path = tmp_path / "sweep.csv"
    blocker = tmp_path / f"sweep.csv.{os.getpid()}.tmp"
    blocker.mkdir()
    with pytest.raises(IsADirectoryError, match=re.escape(str(blocker))):
        fileio.write_sweep_csv(path, [SweepRow(0.0, 1.0, 2.0, True)])
    assert not path.exists()

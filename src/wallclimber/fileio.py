"""CSV/JSON writers and the matching parsers.

Files are bit-reproducible: floats are written with repr (shortest
round-trip form), lines end with LF, headers are mandatory, and JSON
keys are sorted. Angles are degrees in files, radians in memory. No
CSV field ever needs quoting, so the CSV writers join their fields,
write_sweep_csv in its own loop and the others in one of two sinks:
series_csv_sink takes a run's ticks from run_scenario, joint_table_sink a
gait's steps from compile_joint_table. The series sink formats a tick's
angles once per JointAngles object (_degrees_text), in a cache keyed by the
object's id that it empties at _CACHE_CAP entries.
The table sink takes whole steps through its `step` hook, which
compile_joint_table finds: it formats each stance leg's line once per step
and writes each sample's four rows as one string, and no JointTableRow is
built. Called with a JointTableRow, as write_joint_table calls it, it
formats and writes that one row.
The series sink also takes whole replayed cycles: on a noise-free run,
run_scenario hands it each cycle it replays as that cycle's t_s and body_mm
values, and the sink writes those rows from the text after body_mm that it
kept for the ticks of the cycle being replayed. It keeps that text for one
computed cycle at a time. A noisy run, or a run given a plain callable,
passes every TickRecord, and nothing is kept.

Every writer goes through _replacing: it writes `<path>.<pid>.tmp` and
renames it onto `path` only on success, so a failed write leaves `path` as
it was and no temporary file behind. An OSError while writing names the
temporary file, and a symlink at `path` is replaced, not written through.
"""

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .gait import LEG_IDS

JOINT_TABLE_HEADER = ["t_s", "leg", "theta1_deg", "theta2_deg", "theta3_deg",
                      "theta4_deg", "attached"]

SWEEP_HEADER = ["angle_deg", "avg_speed_mm_s", "avg_power_w", "completed"]

# A 30-cycle run has 1,360 poses.
_CACHE_CAP = 4096
# Rows of a replayed cycle joined into one write.
_REPLAY_CHUNK = 256


def _fmt(value):
    return repr(float(value))


@contextmanager
def _replacing(path):
    """Yield a handle on a temporary file that replaces `path` if the block succeeds."""
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


def _angles_text(thetas):
    """Joint angles in radians as CSV fields in degrees."""
    return ",".join([_fmt(math.degrees(t)) for t in thetas])


def _degrees_text(cache, angles):
    """The four joint angles as CSV fields in degrees, formatted once per
    JointAngles object: a run shares one object between every tick with the
    same pose. The cache is keyed by id; an entry serves only the object it
    was formatted from (identity, not value, because JointAngles equality
    conflates 0.0 and -0.0) and keeps that object alive, so its id cannot be
    reused while the entry exists. A full cache is emptied first."""
    entry = cache.get(id(angles))
    if entry is None:
        if len(cache) >= _CACHE_CAP:
            cache.clear()
        entry = cache[id(angles)] = (angles, _angles_text(angles.as_tuple()))
    return entry[1]


def _read_records(path, header, kind):
    """The records of a CSV file whose first row must be `header`."""
    import csv  # here, not at the top: `import wallclimber` then loads no csv

    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, "an empty file")
        if found != header:
            raise ValueError(f"{path}: expected the {kind} header, found {found}")
        return list(reader)


def write_joint_table(path, rows):
    """Write compiled gait rows through joint_table_sink; angles converted to degrees."""
    with joint_table_sink(path) as sink:
        for row in rows:
            sink(row)


@contextmanager
def joint_table_sink(path):
    """Stream a compiled gait into a joint-table CSV: yields a sink for
    compile_joint_table.

    The sink has a `step` hook, which compile_joint_table finds and calls
    once per step as step(swing_leg, angles_by_leg), each leg's angles a
    (theta1, theta2, theta3, theta4) tuple in radians. It formats the three
    stance-leg lines and returns sample(t_s, swing_angles), which writes one
    sample's four rows, legs 1..4, as one string: one t_s text and one swing
    line per sample. So it holds four line texts, and builds no
    JointTableRow. Called with a JointTableRow, as write_joint_table calls
    it, the sink formats and writes that one row.
    """
    with _replacing(path) as handle:
        handle.write(",".join(JOINT_TABLE_HEADER) + "\n")

        def write_row(row):
            handle.write(f"{_fmt(row.t_s)},{row.leg},{_angles_text(row.angles.as_tuple())},"
                         f"{'1' if row.attached else '0'}\n")

        def step(swing_leg, angles_by_leg):
            lines = [None if leg == swing_leg else f"{leg},{_angles_text(angles_by_leg[leg])},1\n"
                     for leg in LEG_IDS]
            slot = LEG_IDS.index(swing_leg)

            def sample(t_s, swing_angles):
                lines[slot] = f"{swing_leg},{_angles_text(swing_angles)},0\n"
                t_text = _fmt(t_s) + ","
                handle.write(t_text + t_text.join(lines))

            return sample

        write_row.step = step
        yield write_row


@dataclass(frozen=True)
class JointTableFileRow:
    t_s: float
    leg: int
    theta_deg: tuple
    attached: bool


def read_joint_table(path):
    return [
        JointTableFileRow(
            t_s=float(rec[0]),
            leg=int(rec[1]),
            theta_deg=(float(rec[2]), float(rec[3]), float(rec[4]), float(rec[5])),
            attached=rec[6] == "1",
        )
        for rec in _read_records(path, JOINT_TABLE_HEADER, "joint table")
    ]


def series_header():
    cols = ["t_s", "body_mm"]
    for leg in LEG_IDS:
        cols += [f"leg{leg}_theta1_deg", f"leg{leg}_theta2_deg",
                 f"leg{leg}_theta3_deg", f"leg{leg}_theta4_deg",
                 f"leg{leg}_valve", f"leg{leg}_pressure_kpa", f"leg{leg}_attached"]
    cols += ["power_w", "slip"]
    return cols


def series_row_formatter():
    """Return a function that formats one TickRecord as a series CSV line,
    newline included. Use one per file: it formats each pose once
    (_degrees_text) and every other field on each call."""
    degrees = {}

    def format_row(rec):
        angles, valves, pressures, attached = rec.angles, rec.valve, rec.pressure_kpa, rec.attached
        return ",".join([_fmt(rec.t_s), _fmt(rec.body_mm)]
                        + [f"{_degrees_text(degrees, angles[leg])},"
                           f"{valves[leg].value},{_fmt(pressures[leg])},"
                           f"{'1' if attached[leg] else '0'}"
                           for leg in LEG_IDS] + [_fmt(rec.power_w), _fmt(rec.slip)]) + "\n"

    return format_row


def write_series_csv(path, report):
    """Write the per-tick time series of a SimReport through series_csv_sink."""
    with series_csv_sink(path) as sink:
        for rec in report.records:
            sink(rec)


@contextmanager
def series_csv_sink(path):
    """Stream a run's ticks into a series CSV: yields a sink for
    run_scenario that writes each TickRecord as it arrives.

    The sink also has a `cycle` hook, which run_scenario finds on a
    noise-free run and calls at the start of each cycle. With no arguments,
    a cycle is about to be computed: the sink drops the text it holds and
    keeps the text after body_mm of each tick to come. With the t_s and
    body_mm values of one replay of that cycle, it writes the replay from
    the held text, in chunks of _REPLAY_CHUNK rows, formatting body_mm only
    when it changes. So it holds at most one cycle of text, and none for a
    run that never calls the hook: a noisy run, list mode
    (write_series_csv), or a run given a plain callable that wraps it.
    """
    with _replacing(path) as handle:
        handle.write(",".join(series_header()) + "\n")
        format_row = series_row_formatter()
        held = None

        def sink(rec):
            row = format_row(rec)
            if held is not None:
                held.append(row.split(",", 2)[2])
            handle.write(row)

        def cycle(times=(), bodies=()):
            nonlocal held
            if not times:
                held = []
            body = text = None
            for i in range(0, len(times), _REPLAY_CHUNK):
                j, chunk = i + _REPLAY_CHUNK, []
                for t_s, body_mm, tail in zip(times[i:j], bodies[i:j], held[i:j]):
                    if body_mm != body or not body_mm:  # 0.0 == -0.0 but they print apart
                        body, text = body_mm, _fmt(body_mm)
                    chunk.append(f"{_fmt(t_s)},{text},{tail}")
                handle.write("".join(chunk))

        sink.cycle = cycle
        yield sink


def read_series_csv(path):
    """Parse a series file back into a list of per-tick dicts (file units:
    degrees, mm, kPa). Valve columns stay strings, attached become bools."""
    header = series_header()
    rows = []
    for rec in _read_records(path, header, "series"):
        parsed = {}
        for name, value in zip(header, rec):
            if name.endswith("_valve"):
                parsed[name] = value
            elif name.endswith("_attached"):
                parsed[name] = value == "1"
            else:
                parsed[name] = float(value)
        rows.append(parsed)
    return rows


def summary_dict(report):
    return {
        "angle_deg": report.climb_angle_deg,
        "cycles": report.cycles,
        "tick_s": report.tick_s,
        "ticks": report.ticks,
        "duration_s": report.duration_s,
        "displacement_mm": report.displacement_mm,
        "avg_speed_mm_s": report.average_speed_mm_s,
        "avg_power_w": report.average_power_w,
        "total_energy_j": report.total_energy_j,
        "slip_count": report.slip_count,
        "completed": report.completed,
        "failure_tick": report.failure_tick,
        "failure_reason": report.failure_reason,
    }


def write_summary_json(path, report):
    import json  # here and in read_summary_json only: `import wallclimber` loads no json

    with _replacing(path) as handle:
        json.dump(summary_dict(report), handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_summary_json(path):
    import json

    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_sweep_csv(path, rows):
    with _replacing(path) as handle:
        handle.write(",".join(SWEEP_HEADER) + "\n")
        for row in rows:
            handle.write(f"{_fmt(row.angle_deg)},{_fmt(row.avg_speed_mm_s)},"
                         f"{_fmt(row.avg_power_w)},{'true' if row.completed else 'false'}\n")


def read_sweep_csv(path):
    """Parse a sweep table back into (angle, speed, power, completed) tuples."""
    return [(float(rec[0]), float(rec[1]), float(rec[2]), rec[3] == "true")
            for rec in _read_records(path, SWEEP_HEADER, "sweep")]

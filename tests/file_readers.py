"""Parsers for the files wallclimber.fileio writes, for the tests that read
them back. The package itself reads none of its output files."""

import csv
import json
from dataclasses import dataclass

from wallclimber.fileio import JOINT_TABLE_HEADER, SWEEP_HEADER, series_header


@dataclass(frozen=True)
class JointTableFileRow:
    t_s: float
    leg: int
    theta_deg: tuple
    attached: bool


def _read_records(path, header, kind):
    """The records of a CSV file whose first row must be `header`."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, "an empty file")
        if found != header:
            raise ValueError(f"{path}: expected the {kind} header, found {found}")
        return list(reader)


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


def read_summary_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_sweep_csv(path):
    """Parse a sweep table back into (angle, speed, power, completed) tuples."""
    return [(float(rec[0]), float(rec[1]), float(rec[2]), rec[3] == "true")
            for rec in _read_records(path, SWEEP_HEADER, "sweep")]

"""Checks of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest benchmarks -q

These live outside the package's ``testpaths`` so the package test suite
does not get slower.
"""

import os
import sys

import run
import traced_run

sys.path.insert(0, run.SRC)

import wallclimber.simulator as simulator  # noqa: E402
from wallclimber import ScenarioConfig  # noqa: E402
from wallclimber import kinematics  # noqa: E402


def test_seed_zero_is_the_canonical_config():
    assert run.config_text("sweep", 0) == "[scenario]\nmass_kg = 2.0\n"
    assert run.config_text("simulate_long", 0) == (
        "[scenario]\nclimb_angle_deg = 45\ncycles = 30\n")
    assert run.config_text("gait_table", 0) == (
        "[gait]\nsamples_per_step = 2000\nstep_length_mm = 40\n")


def test_golden_covers_every_variant():
    golden = run.load_golden()["workloads"]
    for workload in run.WORKLOADS:
        entries = golden[workload]
        assert len(entries) == run.variant_count(workload)
        for variant, entry in enumerate(entries):
            assert entry["config"] == run.config_text(workload, variant)
            assert set(entry["files"]) == set(run.WORKLOADS[workload]["outputs"])


def test_wrapping_reaches_direct_imports_and_is_undone():
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    original = kinematics.solve_leg
    undo = traced_run.patch_everywhere("kinematics", "solve_leg", counting)
    try:
        assert simulator.solve_leg is not original
        report = simulator.run_scenario(ScenarioConfig(cycles=1))
    finally:
        traced_run.restore(undo)
    assert len(calls) == 4 * len(report.records)
    assert simulator.solve_leg is original and kinematics.solve_leg is original


def test_self_time_subtracts_direct_children_only():
    tracer = traced_run.Tracer("t")
    tracer.spans = [
        ("root", 0.0, 10.0, -1, "t"),
        ("child", 1.0, 4.0, 0, "t"),
        ("grandchild", 2.0, 3.0, 1, "t"),
        ("child", 5.0, 6.0, 0, "t"),
    ]
    totals = tracer.layer_totals()
    assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["child"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert totals["grandchild"]["self_s"] == 1.0


def test_missing_source_tree_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", os.fspath(tmp_path))
    assert run.main(["--workload", "sweep", "--seconds", "1"]) == 2

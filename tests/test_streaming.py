"""Streaming a run's ticks to a sink instead of storing them."""

import math
import os
import tracemalloc

import pytest

from wallclimber.cli import EXIT_OK, EXIT_SIMFAIL, EXIT_VALIDATION, main
from wallclimber.config import CONFIG_ENV_VAR, load_config
from wallclimber.errors import JointLimit
from wallclimber.fileio import summary_dict, write_series_csv
from wallclimber.kinematics import JointLimits
from wallclimber.pneumatics import AdhesionModel
from wallclimber.simulator import ScenarioConfig, run_scenario

RUNS = {
    "default": ("[scenario]\n", EXIT_OK),
    # slip is active on every advance
    "slip": ("[scenario]\nclimb_angle_deg = 45\ncycles = 3\n", EXIT_OK),
    # overload after the one retry
    "overload": ("[scenario]\nclimb_angle_deg = 90\nmass_kg = 1000\n", EXIT_SIMFAIL),
}

# Tighter than the default cycle needs: generate_cycle accepts the plan, but
# a swing sample breaks the upper limit partway through the run.
TIGHT_LIMITS = JointLimits(-math.pi, math.radians(177.0))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


@pytest.mark.parametrize("case", sorted(RUNS))
def test_streamed_series_matches_list_mode_writer(case, tmp_path, capsys):
    text, exit_code = RUNS[case]
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    assert main(["--config", str(ini), "simulate", "-o", str(tmp_path / "run")]) == exit_code
    capsys.readouterr()
    report = run_scenario(load_config(str(ini)))
    assert report.ticks == len(report.records) > 0
    write_series_csv(tmp_path / "list.csv", report)
    assert (tmp_path / "run.series.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


@pytest.mark.parametrize("config", [
    ScenarioConfig(cycles=1),
    ScenarioConfig(climb_angle_deg=45.0, cycles=2, noise_kpa=0.5, seed=3),
    ScenarioConfig(climb_angle_deg=90.0, mass_kg=1000.0),
    ScenarioConfig(climb_angle_deg=30.0, adhesion=AdhesionModel(leak_kpa_per_s=200.0)),
], ids=["flat", "slip-noisy", "overload", "leaky"])
def test_sink_mode_matches_list_mode(config):
    listed = run_scenario(config)
    seen = []
    streamed = run_scenario(config, sink=seen.append)
    assert streamed.records == []
    assert streamed.ticks == listed.ticks == len(listed.records)
    assert seen == listed.records
    assert summary_dict(streamed) == summary_dict(listed)


def test_tight_limits_raise_after_ticks_were_streamed():
    seen = []
    with pytest.raises(JointLimit):
        run_scenario(ScenarioConfig(limits=TIGHT_LIMITS), sink=seen.append)
    assert seen


@pytest.mark.parametrize("text, error", [
    ("[gait]\nstep_length_mm = 200\n", "UnreachableFoothold"),
    ("[joints]\nlimit_min_deg = -180\nlimit_max_deg = 177\n", "JointLimit"),
], ids=["planning", "joint-limit"])
@pytest.mark.parametrize("existing", [None, b"an earlier series\n"], ids=["fresh", "existing"])
def test_failed_simulate_leaves_series_path_as_it_was(text, error, existing, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    series = tmp_path / "run.series.csv"
    if existing is not None:
        series.write_bytes(existing)
    assert main(["--config", str(ini), "simulate", "-o", str(tmp_path / "run")]) == (
        EXIT_VALIDATION)
    assert error in capsys.readouterr().err
    if existing is None:
        assert not series.exists()
    else:
        assert series.read_bytes() == existing
    expected = ["run.ini"] + ([] if existing is None else ["run.series.csv"])
    assert sorted(os.listdir(tmp_path)) == expected


def _peak_alloc_bytes(cycles):
    tracemalloc.start()
    try:
        run_scenario(ScenarioConfig(climb_angle_deg=45.0, cycles=cycles),
                     sink=lambda _record: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_run_memory_stays_flat_in_cycles():
    assert _peak_alloc_bytes(20) < 2 * _peak_alloc_bytes(2)

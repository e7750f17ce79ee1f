"""The streamed series file against a plain formatter with no caches.

`series_row_formatter` caches the text of repeated leg states, powers and
slips. These tests format every field of every tick afresh, the way the
file format is specified, and compare the CLI's series file byte for byte.
"""

import math
import tracemalloc
from dataclasses import replace

import pytest

from wallclimber import fileio
from wallclimber.cli import EXIT_OK, EXIT_SIMFAIL, main
from wallclimber.config import CONFIG_ENV_VAR, load_config
from wallclimber.gait import LEG_IDS
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
    # every pressure is distinct, so the formatter's caches fill and empty
    "noisy": ("[scenario]\nclimb_angle_deg = 45\ncycles = 2\nnoise_kpa = 0.5\nseed = 7\n",
              EXIT_OK),
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
def test_streamed_series_matches_plain_formatter(case, tmp_path, capsys):
    text, exit_code = RUNS[case]
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    assert main(["--config", str(ini), "simulate", "-o", str(tmp_path / "run")]) == exit_code
    capsys.readouterr()
    report = run_scenario(load_config(str(ini)))
    if case == "noisy":
        assert 4 * report.ticks > fileio._CACHE_CAP
    expected = ",".join(fileio.series_header()) + "\n"
    expected += "".join(reference_row(rec) for rec in report.records)
    assert (tmp_path / "run.series.csv").read_text(encoding="utf-8") == expected


def test_signed_zeros_print_as_given():
    rec = run_scenario(ScenarioConfig(cycles=1)).records[0]
    zeros = (0.0, -0.0, 0.0)
    variants = [replace(rec, body_mm=body, power_w=power, slip=slip)
                for body in zeros for power in zeros for slip in zeros]
    format_row = fileio.series_row_formatter()
    assert [format_row(v) for v in variants] == [reference_row(v) for v in variants]


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

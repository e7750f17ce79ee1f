import dataclasses
import errno
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from file_readers import read_joint_table, read_series_csv, read_sweep_csv
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wallclimber import cli
from wallclimber import config as config_module
from wallclimber import fileio
from wallclimber.cli import EXIT_OK, EXIT_SIMFAIL, EXIT_USAGE, EXIT_VALIDATION, main
from wallclimber.config import CONFIG_ENV_VAR, load_config
from wallclimber.errors import ConfigError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def write_config(tmp_path, text, name="robot.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- ik / fk ----------------------------------------------------------------

def test_ik_trivial(capsys):
    assert main(["ik", "200", "0", "100", "90", "plus"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.000000 0.000000 0.000000 90.000000"
    assert out[1] == "fk: x=200.000000 y=0.000000 z=100.000000 k=90.000000"


def test_ik_out_of_reach(capsys):
    assert main(["ik", "300", "0", "100", "90", "plus"]) == EXIT_VALIDATION
    assert "OutOfReach" in capsys.readouterr().err


def test_ik_degenerate(capsys):
    assert main(["ik", "0", "0", "100", "90"]) == EXIT_VALIDATION
    assert "DegenerateTarget" in capsys.readouterr().err


def test_ik_z_unreachable(capsys):
    assert main(["ik", "150", "0", "250", "90"]) == EXIT_VALIDATION
    assert "ZUnreachable" in capsys.readouterr().err


def test_ik_random_targets_echo_verifies(capsys):
    rng = np.random.default_rng(55)
    for _ in range(25):
        r = rng.uniform(10.0, 199.0)
        phi = rng.uniform(-math.pi, math.pi)
        x, y = r * math.cos(phi), r * math.sin(phi)
        k = rng.uniform(-90.0, 90.0)
        z = rng.uniform(0.0, max(0.0, 100.0 + 100.0 * math.sin(math.radians(k))))
        branch = "plus" if rng.uniform() < 0.5 else "minus"
        assert main(["ik", repr(x), repr(y), repr(z), repr(k), branch]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        echo = dict(part.split("=") for part in lines[1].removeprefix("fk: ").split())
        assert float(echo["x"]) == pytest.approx(x, abs=1e-5)
        assert float(echo["y"]) == pytest.approx(y, abs=1e-5)
        assert float(echo["z"]) == pytest.approx(z, abs=1e-5)
        assert float(echo["k"]) == pytest.approx(k, abs=1e-5)


@pytest.mark.parametrize("argv, field", [(["nan", "0", "100", "90"], "x"),
                                         (["150", "0", "100", "inf"], "k")])
def test_ik_rejects_non_finite_target(argv, field, capsys):
    assert main(["ik", *argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be finite" in captured.err


def test_ik_respects_config_limits(tmp_path, capsys):
    path = write_config(tmp_path, "[joints]\nlimit_min_deg = -90\nlimit_max_deg = 90\n")
    assert main(["--config", path, "ik", "80", "80", "100", "90"]) == EXIT_VALIDATION
    assert "JointLimit" in capsys.readouterr().err
    # same target fine without limits
    assert main(["ik", "80", "80", "100", "90"]) == EXIT_OK


def test_fk_round_trip_of_ik(capsys):
    assert main(["fk", "0", "0", "0", "90"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "200.000000 0.000000 100.000000 90.000000"


@pytest.mark.parametrize("argv, field", [(["nan", "0", "0", "0"], "theta1"),
                                         (["0", "inf", "0", "0"], "theta2"),
                                         (["0", "0", "0", "nan"], "theta4")])
def test_fk_rejects_non_finite_angle(argv, field, capsys):
    assert main(["fk", *argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be finite" in captured.err


# --- gait --------------------------------------------------------------------

def test_gait_writes_table(tmp_path, capsys):
    out = str(tmp_path / "table.csv")
    assert main(["gait", "-o", out]) == EXIT_OK
    rows = read_joint_table(out)
    # 4 steps x default 10 samples x 4 legs
    assert len(rows) == 4 * 10 * 4
    assert "160 rows" in capsys.readouterr().out


def test_gait_row_count_follows_samples(tmp_path):
    path = write_config(tmp_path, "[gait]\nsamples_per_step = 3\n")
    out = str(tmp_path / "table.csv")
    assert main(["--config", path, "gait", "-o", out]) == EXIT_OK
    assert len(read_joint_table(out)) == 4 * 3 * 4


def test_gait_bad_step_length_names_key(tmp_path, capsys):
    path = write_config(tmp_path, "[gait]\nstep_length_mm = 0\n")
    assert main(["--config", path, "gait", "-o", str(tmp_path / "t.csv")]) == EXIT_VALIDATION
    assert "step_length_mm" in capsys.readouterr().err


def test_gait_unreachable_plan(tmp_path, capsys):
    path = write_config(tmp_path, "[gait]\nstep_length_mm = 200\n")
    assert main(["--config", path, "gait", "-o", str(tmp_path / "t.csv")]) == EXIT_VALIDATION
    assert "UnreachableFoothold" in capsys.readouterr().err


def test_configured_limits_propagate_through_the_pipeline(tmp_path, capsys):
    # a half-turn window lets the whole default plan through
    wide = write_config(tmp_path, "[joints]\nlimit_min_deg = -180\nlimit_max_deg = 180\n",
                        name="wide.ini")
    assert main(["--config", wide, "gait", "-o", str(tmp_path / "w.csv")]) == EXIT_OK
    # the nominal servo window rejects the default stance at planning time
    tight = write_config(tmp_path, "[joints]\nlimit_min_deg = -90\nlimit_max_deg = 90\n",
                         name="tight.ini")
    assert main(["--config", tight, "gait", "-o", str(tmp_path / "t.csv")]) == EXIT_VALIDATION
    assert "joint_limit" in capsys.readouterr().err


# --- simulate ------------------------------------------------------------------

def test_simulate_defaults(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    assert main(["simulate", "-o", prefix]) == EXIT_OK
    out = capsys.readouterr().out
    assert "angle=0 " in out and "completed=true" in out
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["completed"] is True
    series = read_series_csv(f"{prefix}.series.csv")
    assert len(series) == summary["ticks"]


def test_simulate_deterministic_files(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "-o", a]) == EXIT_OK
    assert main(["simulate", "-o", b]) == EXIT_OK
    assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()
    assert (tmp_path / "a.series.csv").read_bytes() == (tmp_path / "b.series.csv").read_bytes()


def test_simulate_overload_exits_nonzero(tmp_path, capsys):
    path = write_config(tmp_path, "[scenario]\nclimb_angle_deg = 90\nmass_kg = 1000\n")
    prefix = str(tmp_path / "heavy")
    assert main(["--config", path, "simulate", "-o", prefix]) == EXIT_SIMFAIL
    captured = capsys.readouterr()
    assert "completed=false" in captured.out
    assert "failed at tick" in captured.err
    summary = json.loads((tmp_path / "heavy.summary.json").read_text())
    assert summary["completed"] is False
    assert summary["failure_tick"] is not None


# --- sweep ----------------------------------------------------------------------

def test_sweep_default_angles(tmp_path):
    out = str(tmp_path / "sweep.csv")
    path = write_config(tmp_path, "[scenario]\ncycles = 1\n")
    assert main(["--config", path, "sweep", "-o", out]) == EXIT_OK
    rows = read_sweep_csv(out)
    assert [row[0] for row in rows] == [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0]
    speeds = [row[1] for row in rows]
    powers = [row[2] for row in rows]
    assert all(a >= b for a, b in zip(speeds, speeds[1:]))
    assert all(a <= b for a, b in zip(powers, powers[1:]))


def test_sweep_single_angle_matches_simulate(tmp_path, capsys):
    path = write_config(tmp_path, "[scenario]\ncycles = 1\n")
    prefix = str(tmp_path / "one")
    assert main(["--config", path, "simulate", "-o", prefix]) == EXIT_OK
    summary = json.loads((tmp_path / "one.summary.json").read_text())
    out = str(tmp_path / "sweep.csv")
    assert main(["--config", path, "sweep", "0", "-o", out]) == EXIT_OK
    rows = read_sweep_csv(out)
    assert rows[0][1] == summary["avg_speed_mm_s"]
    assert rows[0][2] == summary["avg_power_w"]


def test_sweep_rejects_out_of_range_angle_before_running(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "120", "-o", str(out)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_deterministic(tmp_path):
    path = write_config(tmp_path, "[scenario]\ncycles = 1\n")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["--config", path, "sweep", "0", "45", "90", "-o", a]) == EXIT_OK
    assert main(["--config", path, "sweep", "0", "45", "90", "-o", b]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# --- validate-config ---------------------------------------------------------------

def test_validate_config_defaults(capsys):
    assert main(["validate-config"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "config ok" in out and "built-in defaults" in out


def test_validate_config_env_var(monkeypatch, tmp_path, capsys):
    path = write_config(tmp_path, "[scenario]\ncycles = 7\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, path)
    assert main(["validate-config"]) == EXIT_OK
    out = capsys.readouterr().out
    assert path in out and "cycles=7" in out


def test_validate_config_prints_the_joint_limits(tmp_path, capsys):
    path = write_config(tmp_path, "[joints]\nlimit_min_deg = -170\nlimit_max_deg = 165.5\n")
    assert main(["--config", path, "validate-config"]) == EXIT_OK
    assert "\n  joint limits: [-170, 165.5] deg\n" in capsys.readouterr().out


def test_validate_config_bad_file(tmp_path, capsys):
    path = write_config(tmp_path, "[gait]\nno_such_key = 1\n")
    assert main(["--config", path, "validate-config"]) == EXIT_VALIDATION
    assert "no_such_key" in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    ("[gait]\np1_mm = 1e308, 0\n", "stance_mm[1]"),
    ("[gait]\nstep_length_mm = -1e308\n", "step_length_mm"),
    ("[gait]\nswing_s = 1e308\n", "swing_s"),
    ("[gait]\nadvance_s = 1e308\n", "advance_s"),
    ("[adhesion]\ndwell_s = 1e308\n", "dwell_s"),
    ("[adhesion]\nvent_s = 1e308\n", "vent_s"),
    ("[scenario]\ntick_s = 5e-324\n", "tick_s"),
    ("[adhesion]\ndwell_s = 5e-324\n", "dwell_s"),
    ("[scenario]\nservo_power_w = -5\n", "servo_power_w"),
    ("[scenario]\npump_power_w = -1\n", "pump_power_w"),
    ("[scenario]\ngravity_m_s2 = -9.81\n", "gravity_m_s2"),
    ("[scenario]\ncycles = 1000000000\n", "cycles"),
    ("[gait]\nsamples_per_step = 1000000000\n", "samples_per_step"),
    ("[gait]\nswing_s = 1e16\n", "swing_s"),
    ("[scenario]\ntick_s = 1e-300\n", "tick_s"),
    ("[scenario]\ntick_s = 1e308\n", "tick_s"),
    ("[scenario]\nservo_power_w = 1e308\n", "servo_power_w"),
    ("[scenario]\npump_power_w = 1e308\n", "pump_power_w"),
    # a load m g that overflows made the load NaN at 0 deg, which ended a run
    # in a StopIteration, and a lift power m g v / efficiency that overflows
    # wrote power=inf into a sweep
    ("[scenario]\nmass_kg = 1e308\n", "mass_kg"),
    ("[scenario]\ngravity_m_s2 = 1e308\n", "mass_kg"),
    ("[scenario]\nmass_kg = 1e300\ngravity_m_s2 = 1e10\n", "mass_kg"),
    ("[scenario]\nclimb_angle_deg = 45\nlift_efficiency = 5e-324\n", "lift_efficiency"),
    # a jitter span 2 x noise_kpa that overflows wrote inf for every cup pressure
    ("[scenario]\nnoise_kpa = 1e308\n", "noise_kpa"),
    # a check that ScenarioConfig or JointLimits makes, labelled with the section set
    ("[pneumatics]\npump_a_legs = 1, 2\npump_b_legs = 2, 3\n", "pump_legs"),
    ("[joints]\nlimit_min_deg = 10\nlimit_max_deg = 10\n", "lower < upper"),
], ids=["foothold", "step", "swing", "advance", "dwell", "vent", "tick", "dwell-tiny", "servo",
        "pump", "gravity", "cycles-many", "samples-many", "swing-long", "tick-short", "tick-long",
        "servo-huge", "pump-huge", "mass-huge", "gravity-huge", "weight-huge", "lift-tiny",
        "noise-huge", "pump-partition", "limits-order"])
@pytest.mark.parametrize("argv", [["validate-config"], ["simulate", "-o", "run"],
                                  ["gait", "-o", "table.csv"], ["sweep", "0", "90", "-o", "s.csv"]],
                         ids=["validate-config", "simulate", "gait", "sweep"])
def test_a_value_the_model_cannot_run_is_a_config_error(text, field, argv, tmp_path, monkeypatch,
                                                         capsys):
    # Each of these once ended in a traceback (an OverflowError or a
    # ZeroDivisionError), ran without end (cycles, samples, a long phase or a
    # short tick), wrote Infinity or NaN into summary.json (a long tick or a
    # huge draw), or ran and reported a power or a climb that means nothing.
    # The config is refused when it is built, naming the field, under the
    # section of the key the file sets.
    path = write_config(tmp_path, text)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", path, *argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    section = text.split("\n")[0]
    assert captured.err.startswith(f"config error: {section} ") and field in captured.err
    assert os.listdir(tmp_path) == ["robot.ini"]


@pytest.mark.parametrize("argv", [["validate-config"], ["simulate", "-o", "run"],
                                  ["gait", "-o", "table.csv"], ["sweep", "0", "90", "-o", "s.csv"]],
                         ids=["validate-config", "simulate", "gait", "sweep"])
def test_a_foothold_that_is_not_a_pair_is_a_config_error(argv, tmp_path, monkeypatch, capsys):
    # refused when the file is parsed, before any object is built, so the
    # label names the key and its section, not a field
    path = write_config(tmp_path, "[gait]\np1_mm = 80\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", path, *argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: bad value for 'p1_mm' in [gait]: "
                            "expected 'x, y' pair, got '80'\n")
    assert os.listdir(tmp_path) == ["robot.ini"]


def test_a_sweep_angle_the_config_refuses_is_a_config_error(tmp_path, monkeypatch, capsys):
    # At the file's 0 deg the lift power is 0, but at 45 deg m g v / 5e-324
    # overflows. The sweep builds every angle's config before it runs one, so
    # it writes nothing, and the error is labelled with the angle's section.
    path = write_config(tmp_path, "[scenario]\nlift_efficiency = 5e-324\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", path, "sweep", "0", "45", "90", "-o", "s.csv"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: [scenario] lift_efficiency must be")
    assert os.listdir(tmp_path) == ["robot.ini"]


SCHEMA_KEYS = [(section, key) for section, keys in config_module._SCHEMA.items() for key in keys]
EXTREMES = ("1e308", "-1e308", "5e-324", "-5e-324", "1e16", "0", "-0", "1000000000",
            str(2 ** 63))


def refuse_constant(name):
    raise AssertionError(f"summary.json holds {name}, which is not JSON")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(SCHEMA_KEYS), st.sampled_from(EXTREMES)),
                min_size=1, max_size=2, unique_by=lambda entry: entry[0]))
def test_every_extreme_file_ends_in_exit_0_3_or_4(entries):
    # One or two keys of the schema, each set to an extreme value: an x, y pair
    # gets it twice, and a key whose parser refuses it (an int, a leg list, the
    # branch or the advance mode) is a config error that names a key or a field
    # the file sets. Every accepted config is bounded when it is built, so each
    # command here ends within a second, with an exit code, and what
    # summary.json holds is finite.
    lines, names = {}, set()
    for (section, key), value in entries:
        target, parse = config_module._SCHEMA[section][key]
        pair = parse is config_module._parse_pair
        lines.setdefault(section, []).append(f"{key} = {value}, {value}\n" if pair else
                                             f"{key} = {value}\n")
        names |= {key, target[0] if isinstance(target, tuple) else target}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "robot.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(f"[{section}]\n{''.join(keys)}" for section, keys in lines.items()))
        try:
            load_config(path)
        except ConfigError as exc:
            assert any(name in str(exc) for name in names), (str(exc), names)
        for argv in (["validate-config"], ["simulate", "-o", f"{tmp}/run"],
                     ["gait", "-o", f"{tmp}/table.csv"], ["sweep", "0", "90", "-o", f"{tmp}/s.csv"]):
            code = main(["--config", path, *argv])
            event(f"{argv[0]} exits {code}")
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_SIMFAIL)
        if os.path.exists(f"{tmp}/run.summary.json"):
            with open(f"{tmp}/run.summary.json", encoding="utf-8") as handle:
                json.load(handle, parse_constant=refuse_constant)


def test_a_summary_that_is_not_finite_is_not_written(tmp_path, monkeypatch, capsys):
    # ScenarioConfig now refuses every input known to make a summary that is
    # not finite, such as a lift_efficiency of 5e-324 at 90 deg, whose lift
    # power overflowed. summary.json is still written with allow_nan=False, so
    # a report with an infinite power, made here by patching the run, exits 3
    # after the series is written and leaves no summary.
    run = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario", lambda config, sink: dataclasses.replace(
        run(config, sink=sink), average_power_w=math.inf))
    path = write_config(tmp_path, "[scenario]\nclimb_angle_deg = 90\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", path, "simulate", "-o", "run"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and "not JSON compliant" in captured.err
    assert sorted(os.listdir(tmp_path)) == ["robot.ini", "run.series.csv"]


def test_validate_config_plans_the_gait(tmp_path, capsys):
    # The config loads, but leg 1's foothold lies 262.5 mm out, past the
    # 200 mm reach: validate-config refuses it as simulate and gait do.
    path = write_config(tmp_path, "[gait]\np1_mm = -250, 80\n")
    assert main(["--config", path, "validate-config"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "UnreachableFoothold" in captured.err and "leg 1" in captured.err


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_USAGE


def test_config_flag_beats_env(monkeypatch, tmp_path, capsys):
    env_cfg = write_config(tmp_path, "[scenario]\ncycles = 2\n", name="env.ini")
    flag_cfg = write_config(tmp_path, "[scenario]\ncycles = 9\n", name="flag.ini")
    monkeypatch.setenv(CONFIG_ENV_VAR, env_cfg)
    assert main(["--config", flag_cfg, "validate-config"]) == EXIT_OK
    assert "cycles=9" in capsys.readouterr().out


# --- output paths ----------------------------------------------------------------

@pytest.mark.parametrize("argv, runner", [
    (["simulate", "-o", "{missing}/run"], "run_scenario"),
    (["sweep", "0", "-o", "{missing}/sweep.csv"], "sweep_climb_angle"),
    (["gait", "-o", "{missing}/table.csv"], "compile_joint_table"),
], ids=["simulate", "sweep", "gait"])
def test_missing_output_directory_fails_before_running(argv, runner, tmp_path, monkeypatch,
                                                       capsys):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError(f"{runner} ran although the output directory is missing")

    monkeypatch.setattr(cli, runner, must_not_run)
    missing = tmp_path / "no" / "such"
    argv = [arg.format(missing=missing) for arg in argv]
    assert main(argv) == EXIT_VALIDATION
    assert argv[-1] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, runner", [
    (["sweep", "0", "-o", ""], "sweep_climb_angle"),
    (["gait", "-o", ""], "compile_joint_table"),
], ids=["sweep", "gait"])
def test_empty_output_path_fails_before_running(argv, runner, tmp_path, monkeypatch, capsys):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError(f"{runner} ran although -o is empty")

    monkeypatch.setattr(cli, runner, must_not_run)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_VALIDATION
    assert "-o must name a file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, directory, runner", [
    (["gait", "-o", "{tmp}/odir"], "odir", "compile_joint_table"),
    (["sweep", "0", "-o", "{tmp}/odir"], "odir", "sweep_climb_angle"),
    (["simulate", "-o", "{tmp}/run"], "run.series.csv", "run_scenario"),
    (["simulate", "-o", "{tmp}/run"], "run.summary.json", "run_scenario"),
], ids=["gait", "sweep", "simulate-series", "simulate-summary"])
def test_output_path_that_is_a_directory_fails_before_running(argv, directory, runner, tmp_path,
                                                              monkeypatch, capsys):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError(f"{runner} ran although an output path is a directory")

    monkeypatch.setattr(cli, runner, must_not_run)
    (tmp_path / directory).mkdir()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the output: ")
    assert "Is a directory" in err and str(tmp_path / directory) in err
    assert [p.name for p in tmp_path.iterdir()] == [directory]


def test_output_path_without_directory_writes_to_working_directory(tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gait", "-o", "table.csv"]) == EXIT_OK
    assert (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("argv, path", [
    (["gait", "-o", "{tmp}/odir"], "{tmp}/odir"),
    (["sweep", "0", "-o", "{tmp}/odir"], "{tmp}/odir"),
    # the series file is renamed onto a directory
    (["simulate", "-o", "{tmp}/odir/run"], "{tmp}/odir/run.series.csv"),
], ids=["gait", "sweep", "simulate"])
def test_output_path_that_is_a_directory_is_a_validation_error(argv, path, tmp_path, capsys):
    (tmp_path / "odir" / "run.series.csv").mkdir(parents=True)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the output: ")
    assert "Is a directory" in err and path.format(tmp=tmp_path) in err
    # nothing is left behind: no temporary series file, no summary
    assert sorted(p.name for p in (tmp_path / "odir").iterdir()) == ["run.series.csv"]


@pytest.mark.parametrize("argv, name", [
    (["gait", "-o", "table.csv"], "table.csv"),
    (["sweep", "0", "-o", "sweep.csv"], "sweep.csv"),
    (["simulate", "-o", "run"], "run.series.csv"),
], ids=["gait", "sweep", "simulate"])
def test_a_write_refused_after_the_run_is_a_validation_error(argv, name, tmp_path, monkeypatch,
                                                             capsys):
    # The pre-checks refuse an output path that is a directory, so a write
    # that fails only at its rename reaches main()'s OSError branch.
    # Permission bits would not refuse it to root, so the rename raises.
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), dst)

    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(b"an earlier output\n")
    monkeypatch.setattr(fileio.os, "replace", refuse)
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: cannot write the output: [Errno 13] Permission denied: '{name}'\n")
    assert (tmp_path / name).read_bytes() == b"an earlier output\n"
    assert os.listdir(tmp_path) == [name]  # no .tmp left


# --- the process exit --------------------------------------------------------------
# run() switches the collector off while main() runs and back on as it found
# it, then freezes the GC, so the interpreter's shutdown collections find
# nothing to free. That is safe because main() closes every file it opens: a
# frozen file object would never be flushed by the GC.

TIGHT_LIMITS_INI = "[joints]\nlimit_min_deg = -180\nlimit_max_deg = 177\n"  # fails mid-table
OVERLOAD_INI = "[scenario]\nclimb_angle_deg = 90\nmass_kg = 1000\n"


@pytest.mark.parametrize("code", [EXIT_OK, EXIT_VALIDATION, EXIT_SIMFAIL])
def test_run_freezes_once_after_main_returns(code, monkeypatch):
    # both are stand-ins, so this process itself is never frozen
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or code)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert events == ["main", "freeze"]
    assert exit_info.value.code == code


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_pauses_the_gc_while_main_runs(enabled, raises, monkeypatch):
    seen = []

    def fake_main():
        seen.append(gc.isenabled())
        if raises:
            raise KeyboardInterrupt
        return EXIT_OK

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: None)  # this process is never frozen
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(KeyboardInterrupt if raises else SystemExit):
            cli.run()
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("argv", [["validate-config"], ["simulate", "-o", "run"],
                                  ["gait", "-o", "table.csv"], ["sweep", "-o", "sweep.csv"]],
                         ids=["validate-config", "simulate", "gait", "sweep"])
def test_main_leaves_the_gc_unfrozen(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(argv) == EXIT_OK
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("config, argv, code", [
    (None, ["simulate", "-o", "run"], EXIT_OK),
    (None, ["gait", "-o", "table.csv"], EXIT_OK),
    (None, ["sweep", "-o", "sweep.csv"], EXIT_OK),
    (TIGHT_LIMITS_INI, ["gait", "-o", "table.csv"], EXIT_VALIDATION),
    (OVERLOAD_INI, ["simulate", "-o", "heavy"], EXIT_SIMFAIL),
], ids=["simulate", "gait", "sweep", "gait-fails-mid-table", "simulate-overload"])
def test_main_closes_every_file_it_opens(config, argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        argv = ["--config", write_config(tmp_path, config), *argv]
    gc.collect()  # garbage left by earlier tests is not this run's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(argv) == code
        gc.collect()  # an unclosed file in a reference cycle warns here
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("config, argv, code, outputs", [
    (None, ["simulate", "-o", "run"], EXIT_OK, ["run.series.csv", "run.summary.json"]),
    (OVERLOAD_INI, ["simulate", "-o", "heavy"], EXIT_SIMFAIL,
     ["heavy.series.csv", "heavy.summary.json"]),
], ids=["simulate", "simulate-overload"])
def test_the_cli_process_writes_what_main_writes(config, argv, code, outputs, tmp_path,
                                                 monkeypatch, capsys):
    # one process through run(), the entry point of `python -m wallclimber`,
    # against main() in this process, each in its own working directory
    if config is not None:
        argv = ["--config", write_config(tmp_path, config), *argv]
    spawned, here = tmp_path / "process", tmp_path / "in-process"
    spawned.mkdir()
    here.mkdir()
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop(CONFIG_ENV_VAR, None)
    env.pop("PYTHONUNBUFFERED", None)  # buffer stdout as into any pipe, so a lost flush shows
    process = subprocess.run([sys.executable, "-m", "wallclimber", *argv], cwd=spawned,
                             env=env, capture_output=True, timeout=120)
    monkeypatch.chdir(here)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert process.returncode == code
    assert process.stdout == captured.out.encode()
    assert process.stderr == captured.err.encode()
    for name in outputs:
        assert (spawned / name).read_bytes() == (here / name).read_bytes()

"""Streaming a run's ticks and a gait's joint-table rows to a sink instead of
storing them."""

import contextlib
import dataclasses
import math
import os
import tempfile
import tracemalloc
import unittest.mock
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from wallclimber import gait as gait_module
from wallclimber import simulator
from wallclimber.cli import EXIT_OK, EXIT_SIMFAIL, EXIT_VALIDATION, main
from wallclimber.config import CONFIG_ENV_VAR, load_config
from wallclimber.errors import GaitValidationError, JointLimit
from wallclimber.fileio import (
    JOINT_TABLE_HEADER,
    joint_table_sink,
    series_csv_sink,
    summary_dict,
    write_joint_table,
    write_series_csv,
)
from wallclimber.gait import (ADVANCE_MODES, LEG_IDS, JointTableRow, compile_joint_table,
                              generate_cycle, replay, swing_waypoint)
from wallclimber.kinematics import (CupTarget, ElbowBranch, JointAngles, JointLimits, ik_normal_zy,
                                    ik_planar_xy, solve_leg)
from wallclimber.pneumatics import AdhesionModel
from wallclimber.simulator import GaitParams, ScenarioConfig, run_scenario

RUNS = {
    "default": ("[scenario]\n", EXIT_OK),
    # slip is active on every advance
    "slip": ("[scenario]\nclimb_angle_deg = 45\ncycles = 3\n", EXIT_OK),
    # overload on the first vent tick
    "overload": ("[scenario]\nclimb_angle_deg = 90\nmass_kg = 1000\n", EXIT_SIMFAIL),
}

# Tighter than the default cycle needs: generate_cycle accepts the plan, but
# a swing sample breaks the upper limit partway through the run.
TIGHT_LIMITS = JointLimits(-math.pi, math.radians(177.0))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


@pytest.mark.parametrize("case", sorted(RUNS))
def test_streamed_series_matches_list_mode_writer(case, tmp_path, capsys, assert_same_lines):
    text, exit_code = RUNS[case]
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    assert main(["--config", str(ini), "simulate", "-o", str(tmp_path / "run")]) == exit_code
    capsys.readouterr()
    report = run_scenario(load_config(str(ini)))
    assert report.ticks == len(report.records) > 0
    write_series_csv(tmp_path / "list.csv", report)
    assert_same_lines((tmp_path / "run.series.csv").read_bytes(),
                      (tmp_path / "list.csv").read_bytes())


SINK_RUNS = {
    "flat": ScenarioConfig(cycles=1),
    "slip-noisy": ScenarioConfig(climb_angle_deg=45.0, cycles=2, noise_kpa=0.5, seed=3),
    "overload": ScenarioConfig(climb_angle_deg=90.0, mass_kg=1000.0),
    "leaky": ScenarioConfig(climb_angle_deg=30.0, adhesion=AdhesionModel(leak_kpa_per_s=200.0)),
    # the third cycle replays the second
    "replay": ScenarioConfig(climb_angle_deg=45.0, cycles=3),
    "noisy-replay": ScenarioConfig(climb_angle_deg=45.0, cycles=5, noise_kpa=0.5, seed=3),
}


@pytest.mark.parametrize("config", SINK_RUNS.values(), ids=SINK_RUNS.keys())
def test_sink_mode_matches_list_mode(config):
    listed = run_scenario(config)
    seen = []
    streamed = run_scenario(config, sink=seen.append)
    assert streamed.records == []
    assert streamed.ticks == listed.ticks == len(listed.records)
    assert seen == listed.records
    assert summary_dict(streamed) == summary_dict(listed)
    # a run that builds no TickRecord still counts and sums every tick
    dropped = simulator._run(config, keep=False)
    assert dropped.records == [] and dropped.ticks == listed.ticks
    assert summary_dict(dropped) == summary_dict(listed)


@pytest.mark.parametrize("config", SINK_RUNS.values(), ids=SINK_RUNS.keys())
def test_sink_may_overwrite_the_records_it_is_given(config):
    # the tick loop never reads an emitted record back, so a sink may change it
    listed = run_scenario(config)
    copies = []

    def overwrite(record):
        copies.append(dataclasses.replace(record))
        record.t_s, record.body_mm, record.power_w = -1.0, -2.0, -3.0

    streamed = run_scenario(config, sink=overwrite)
    assert copies == listed.records
    assert summary_dict(streamed) == summary_dict(listed)


def test_every_tick_is_its_own_record_and_what_records_share_stays_frozen():
    report = run_scenario(SINK_RUNS["replay"])
    records = report.records
    assert len({id(record.attached) for record in records}) < report.ticks  # it replays
    assert len({id(record) for record in records}) == report.ticks == len(records)
    with pytest.raises(dataclasses.FrozenInstanceError):
        records[-1].angles[1].theta1 = 0.0


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


def finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


multi_cycle_scenarios = st.builds(
    ScenarioConfig,
    climb_angle_deg=finite(0.0, 90.0),
    mass_kg=finite(0.5, 20.0),
    cycles=st.integers(3, 6),
    tick_s=st.sampled_from([0.01, 0.005]),
    adhesion=st.builds(AdhesionModel,
                       leak_kpa_per_s=st.one_of(st.just(115.0), finite(0.0, 120.0))),
    seed=st.integers(0, 2**16),
    noise_kpa=st.one_of(st.just(0.0), finite(0.01, 1.0)),
)


def _series_and_summary(path, config, sink_of):
    """Stream a run into a series file through the sink that `sink_of` makes
    of series_csv_sink's sink; return the file's bytes and the summary."""
    with series_csv_sink(path) as sink:
        report = run_scenario(config, sink=sink_of(sink))
    with open(path, "rb") as handle:
        return handle.read(), summary_dict(report)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(multi_cycle_scenarios)
# every attach needs its extension; cycles 3 to 5 replay the second
@example(ScenarioConfig(cycles=5, adhesion=AdhesionModel(leak_kpa_per_s=115.0)))
# the mid_cycle_repeat run path: the replay starts a cycle after the first
# step that repeats, and a cycle start state without the footholds would
# replay too early
@example(ScenarioConfig(climb_angle_deg=25.0, mass_kg=15.0, cycles=6, tick_s=0.05,
                        gait=GaitParams(swing_s=0.05, advance_s=0.01),
                        adhesion=AdhesionModel(dwell_s=0.3, vent_s=0.05)))
def test_replayed_cycles_write_what_every_tick_writes(config):
    # The file sink writes a replayed cycle of a noise-free run from its held
    # text; hidden behind a plain callable it gets every tick's TickRecord, and
    # list mode writes the records afterwards. All three must agree byte for
    # byte. A run whose every cycle start differs from the last (a fresh
    # object in place of the pressure bits) computes every tick, and must
    # give the records and summary of the replaying run; a record-free run the
    # summary.
    listed = run_scenario(config)
    event("completed" if listed.completed else listed.failure_code)
    computed = computed_run(config)
    assert computed.records == listed.records
    assert summary_dict(computed) == summary_dict(listed)
    assert summary_dict(simulator._run(config, keep=False)) == summary_dict(listed)
    with tempfile.TemporaryDirectory() as tmp:
        written = [_series_and_summary(os.path.join(tmp, "hook.csv"), config, lambda sink: sink),
                   _series_and_summary(os.path.join(tmp, "plain.csv"), config,
                                       lambda sink: lambda rec: sink(rec))]
        write_series_csv(os.path.join(tmp, "list.csv"), listed)
        with open(os.path.join(tmp, "list.csv"), "rb") as handle:
            written.append((handle.read(), summary_dict(listed)))
    assert written[0] == written[1] == written[2]


def computed_run(config):
    """A list-mode run of `config` that replays no cycle."""
    never_equal = SimpleNamespace(pack=lambda *args: object())
    with unittest.mock.patch.object(simulator, "struct", never_equal):
        return run_scenario(config)


def checked_pose_memo(solve, geom, k, branch, limits):
    """simulator.pose_memo without the memo: every call solves a checked CupTarget."""
    def pose(x, y, z):
        return solve(geom, CupTarget(x, y, z, k), branch, limits)
    return pose


def run_or_error(config):
    try:
        return run_scenario(config)
    except JointLimit as error:
        return str(error)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(multi_cycle_scenarios)
# a swing sample breaks the upper limit partway through the run
@example(ScenarioConfig(cycles=3, limits=TIGHT_LIMITS))
def test_unmemoised_poses_give_what_the_memo_gives(config):
    # The memo hands a run one JointAngles per distinct target, built without
    # CupTarget's check. Solving every call through a checked CupTarget must
    # give the same records, angle bits included, and the same summary, or the
    # same JointLimit.
    memoised = run_or_error(config)
    with unittest.mock.patch.object(simulator, "pose_memo", checked_pose_memo):
        unmemoised = run_or_error(config)
    if isinstance(memoised, str):
        assert unmemoised == memoised
        return
    event("completed" if memoised.completed else memoised.failure_code)
    assert len(unmemoised.records) == len(memoised.records)
    for got, want in zip(unmemoised.records, memoised.records):
        assert repr(got) == repr(want)  # one record at a time: a short diff
    assert summary_dict(unmemoised) == summary_dict(memoised)
    assert unmemoised.failure_code == memoised.failure_code


# --- the joint table -----------------------------------------------------------

GAIT_TABLES = {
    "default": "[gait]\n",
    "minus": "[gait]\nbranch = minus\n",
    "per-cycle": "[gait]\nadvance_mode = per_cycle\n",
    "two-samples": "[gait]\nsamples_per_step = 2\n",
}

TIGHT_LIMITS_INI = "[joints]\nlimit_min_deg = -180\nlimit_max_deg = 177\n"


def compile_config(config, **kwargs):
    gait = config.gait
    script = generate_cycle(config.geometry, gait, config.limits)
    return compile_joint_table(script, config.geometry, gait.samples_per_step,
                               step_duration_s=gait.swing_s + gait.advance_s,
                               limits=config.limits, **kwargs)


def reference_table(rows):
    """The joint-table file written field by field, with no formatting cache."""
    lines = [JOINT_TABLE_HEADER]
    for row in rows:
        lines.append([repr(row.t_s), str(row.leg),
                      *(repr(math.degrees(a)) for a in row.angles.as_tuple()),
                      "1" if row.attached else "0"])
    return "".join(",".join(line) + "\n" for line in lines).encode()


@pytest.mark.parametrize("case", sorted(GAIT_TABLES))
def test_streamed_joint_table_matches_list_mode_writer(case, tmp_path, capsys):
    ini = tmp_path / "gait.ini"
    ini.write_text(GAIT_TABLES[case], encoding="utf-8")
    out = tmp_path / "cli.csv"
    assert main(["--config", str(ini), "gait", "-o", str(out)]) == EXIT_OK
    config = load_config(str(ini))
    rows = compile_config(config)
    assert capsys.readouterr().out == f"wrote {out} ({len(rows)} rows)\n"
    seen = []
    assert compile_config(config, sink=seen.append) == []
    assert seen == rows
    write_joint_table(tmp_path / "list.csv", rows)
    streamed = out.read_bytes()
    assert streamed == (tmp_path / "list.csv").read_bytes() == reference_table(rows)
    assert rows[0].t_s == 0.0 and streamed.splitlines()[1].startswith(b"0.0,1,")


def test_joint_table_sink_formats_each_zero_time_with_its_sign(tmp_path):
    # 0.0 == -0.0, so a row writer that reused a time text while t_s is
    # unchanged would merge them
    angles = JointAngles(0.5, -0.25, 1.0, 0.5)
    times = [0.0, 0.0, -0.0, -0.0, 0.0, 0.25, 0.25, 0.5]
    rows = [JointTableRow(t, 1 + i % 4, angles, True, (0.0, 0.0, 0.0))
            for i, t in enumerate(times)]
    path = tmp_path / "table.csv"
    with joint_table_sink(path) as sink:
        for row in rows:
            sink(row)
    assert path.read_bytes() == reference_table(rows)
    assert [line.split(",")[0] for line in path.read_text(encoding="utf-8").splitlines()[1:]] == [
        "0.0", "0.0", "-0.0", "-0.0", "0.0", "0.25", "0.25", "0.5"]


def test_joint_table_sink_may_overwrite_the_rows_it_is_given():
    # compile_joint_table never reads an emitted row back, so a sink may change it
    rows = compile_config(ScenarioConfig())
    copies = []

    def overwrite(row):
        copies.append(dataclasses.replace(row))
        row.t_s = -1.0

    assert compile_config(ScenarioConfig(), sink=overwrite) == []
    assert copies == rows


def test_every_row_is_its_own_object_and_what_rows_share_stays_frozen():
    rows = compile_config(ScenarioConfig())
    assert len({id(row) for row in rows}) == len(rows)
    row = rows[-1]
    assert type(row.target_mm) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.angles.theta1 = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        CupTarget(*row.target_mm, math.pi / 2).x = 0.0


def test_tight_limits_raise_after_rows_were_streamed():
    # 3 steps x 10 samples x 4 legs, then 3 samples of step 3: a sample's rows
    # reach the sink once its solves succeed, so every sample before the one
    # that fails does. Limits only check angles, so the rows are the unlimited
    # table's.
    seen = []
    with pytest.raises(JointLimit, match=r"^step 3 sample 3 leg 4: "):
        compile_config(ScenarioConfig(limits=TIGHT_LIMITS), sink=seen.append)
    assert len(seen) == 3 * 10 * 4 + 3 * 4
    assert repr(seen) == repr(compile_config(ScenarioConfig())[:132])


@pytest.mark.parametrize("existing", [None, b"an earlier table\n"], ids=["fresh", "existing"])
def test_failed_gait_leaves_table_path_as_it_was(existing, tmp_path, capsys):
    ini = tmp_path / "gait.ini"
    ini.write_text(TIGHT_LIMITS_INI, encoding="utf-8")
    table = tmp_path / "table.csv"
    if existing is not None:
        table.write_bytes(existing)
    assert main(["--config", str(ini), "gait", "-o", str(table)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "JointLimit" in err and "step 3 sample 3 leg 4" in err
    if existing is None:
        assert not table.exists()
    else:
        assert table.read_bytes() == existing
    expected = ["gait.ini"] + ([] if existing is None else ["table.csv"])
    assert sorted(os.listdir(tmp_path)) == expected


def _compile_peak_alloc_bytes(samples, writer=None):
    """The tracemalloc peak of a compile into `writer`'s sink, or into a
    sink that drops each row."""
    config = ScenarioConfig()
    script = generate_cycle(config.geometry, config.gait)
    tracemalloc.start()
    try:
        with writer or contextlib.nullcontext(lambda row: None) as sink:
            compile_joint_table(script, config.geometry, samples, sink=sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_joint_table_memory_stays_flat_in_samples():
    assert _compile_peak_alloc_bytes(2000) < 2 * _compile_peak_alloc_bytes(200)


def test_joint_table_file_memory_stays_flat_in_samples(tmp_path):
    # the writer's step hook holds the stance lines and at most fileio._CHUNK
    # samples of text, not one per swing sample
    path = tmp_path / "table.csv"
    assert (_compile_peak_alloc_bytes(2000, joint_table_sink(path))
            < 2 * _compile_peak_alloc_bytes(200, joint_table_sink(path)))


# The default tables above and a pose whose z, k, lift and elbow branch all
# differ from the defaults.
TRUSTED_TARGET_TABLES = {
    **GAIT_TABLES,
    "pose": "[gait]\nz_mm = 90\nk_deg = 80\nlift_mm = 10\nbranch = minus\n",
}


def record_plane_solves(monkeypatch):
    """Patch gait's two plane solvers to record each (x, y, z, k) they are
    called with, in order; return the list they append to."""
    solves = []

    def recording_xy(geom, x, y, branch, limits):
        solves.append((x, y))
        return ik_planar_xy(geom, x, y, branch, limits)

    def recording_zy(geom, z, k, limits):
        solves[-1] += (z, k)
        return ik_normal_zy(geom, z, k, limits)

    monkeypatch.setattr(gait_module, "ik_planar_xy", recording_xy)
    monkeypatch.setattr(gait_module, "ik_normal_zy", recording_zy)
    return solves


@pytest.mark.parametrize("case", sorted(TRUSTED_TARGET_TABLES))
def test_compile_targets_equal_checked_targets(case, tmp_path, monkeypatch):
    # compile_joint_table passes bare numbers to the plane solvers, with no
    # CupTarget check; each solve must be a target that passes the check, and
    # the solves must be the rows' targets at the plan's k
    ini = tmp_path / "gait.ini"
    ini.write_text(TRUSTED_TARGET_TABLES[case], encoding="utf-8")
    config = load_config(str(ini))
    solves = record_plane_solves(monkeypatch)
    rows = compile_config(config)
    # each step solves every leg at its first sample, then the swing leg alone
    assert len(solves) == 4 * (4 + config.gait.samples_per_step - 1)
    for x, y, z, k in solves:
        CupTarget(x, y, z, k)  # a ValueError if the target fails the check
        assert k == config.gait.k_rad
    # by repr, so signed zeros count
    assert {repr(solve) for solve in solves} == {repr((*row.target_mm, config.gait.k_rad))
                                                 for row in rows}


def _with_nan_foothold(script):
    first = script.steps[0]
    nan_step = dataclasses.replace(first, new_foothold_um=(math.nan, first.new_foothold_um[1]))
    return dataclasses.replace(script, steps=[nan_step, *script.steps[1:]])


@pytest.mark.parametrize("change, error", [
    (lambda script: dataclasses.replace(script, lift_mm=script.z_mm + 1), GaitValidationError),
    (lambda script: dataclasses.replace(script, z_mm=-1.0), GaitValidationError),
    (_with_nan_foothold, ValueError),
], ids=["lift-past-wall", "negative-z", "nan-foothold"])
def test_compile_refuses_scripts_whose_targets_would_fail_the_check(change, error,
                                                                    monkeypatch):
    # the validate call at the top of the compile is what makes the unchecked
    # targets safe: these scripts are refused before any solve or row
    config = ScenarioConfig()
    script = change(generate_cycle(config.geometry, config.gait))
    solves, seen = record_plane_solves(monkeypatch), []
    with pytest.raises(error) as raised:
        compile_joint_table(script, config.geometry, 10, sink=seen.append)
    assert type(raised.value) is error
    assert solves == [] and seen == []


def test_stance_rows_of_a_step_share_one_pose():
    samples = 10
    rows = compile_config(ScenarioConfig())
    for step in range(4):
        step_rows = rows[step * samples * 4:(step + 1) * samples * 4]
        for leg in (1, 2, 3, 4):
            if leg == step + 1:  # the default order swings leg step + 1
                continue
            leg_rows = [row for row in step_rows if row.leg == leg]
            assert len(leg_rows) == samples
            assert len({id(row.angles) for row in leg_rows}) == 1
            assert len({id(row.target_mm) for row in leg_rows}) == 1


# --- the joint-table writer's step hook -----------------------------------------

# Poses whose every swing stays in reach of the default stance: z - lift >= 20
# and sin(k) >= 0.5 keep the zy solve inside [-1, 1], and a step of at most
# 60 mm keeps every foothold inside the 200 mm planar reach.
hook_gaits = st.builds(
    GaitParams,
    step_length_mm=finite(1.0, 60.0),
    order=st.permutations(LEG_IDS).map(tuple),
    advance_mode=st.sampled_from(ADVANCE_MODES),
    z_mm=finite(60.0, 140.0),
    k_rad=finite(30.0, 90.0).map(math.radians),
    lift_mm=finite(0.0, 40.0),
    branch=st.sampled_from(ElbowBranch),
    samples_per_step=st.integers(2, 60),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hook_gaits)
@example(GaitParams(order=(3, 1, 4, 2), samples_per_step=2))
@example(GaitParams(samples_per_step=300))
def test_step_hook_writes_what_every_row_writes(gait):
    # The file sink's step hook gets each step's four poses once and then one
    # swing pose per sample; list mode builds a JointTableRow per row and
    # write_joint_table writes them one at a time. Both files must match the
    # reference writer byte for byte. At 300 samples per step the sink's
    # buffer of fileio._CHUNK samples (rows, for write_joint_table) is written
    # inside a step, and a part-filled buffer at the end.
    config = ScenarioConfig(gait=gait)
    event(f"order {gait.order}")
    rows = compile_config(config)
    with tempfile.TemporaryDirectory() as tmp:
        hook, listed = os.path.join(tmp, "hook.csv"), os.path.join(tmp, "list.csv")
        with joint_table_sink(hook) as sink:
            assert compile_config(config, sink=sink) == []
        write_joint_table(listed, rows)
        with open(hook, "rb") as handle, open(listed, "rb") as other:
            assert handle.read() == other.read() == reference_table(rows)


def planned_targets(script, samples):
    """The (x, y, z, k) targets a compile of `script` into `samples` samples
    per step solves, in order: every leg in leg order at a step's first
    sample, then the swing leg alone at each later one."""
    targets = []
    for step, stance in zip(script.steps, replay(script)):
        stance_mm = {leg: (x / 1000, y / 1000) for leg, (x, y) in stance.items()}
        for j in range(samples):
            swing = swing_waypoint(stance_mm[step.swing_leg], step.new_foothold_mm,
                                   j / (samples - 1), script.z_mm, script.lift_mm)
            legs = LEG_IDS if j == 0 else (step.swing_leg,)
            targets += [(*swing, script.k_rad) if leg == step.swing_leg
                        else (*stance_mm[leg], script.z_mm, script.k_rad) for leg in legs]
    return targets


def test_step_hook_solves_the_targets_each_row_solves(monkeypatch):
    # list mode and the file sink's step hook both solve the plan's targets,
    # in the plan's order
    config = ScenarioConfig(gait=GaitParams(order=(3, 1, 4, 2), samples_per_step=5))
    expected = planned_targets(generate_cycle(config.geometry, config.gait), 5)
    assert len(expected) == 4 * (4 + 5 - 1)
    solves = record_plane_solves(monkeypatch)
    compile_config(config)
    assert repr(solves) == repr(expected)
    solves.clear()
    with joint_table_sink(os.devnull) as sink:
        compile_config(config, sink=sink)
    assert repr(solves) == repr(expected)


# Each fails at a solve that generate_cycle's validate cannot refuse, since
# the other elbow branch is inside the limits.
FAILING_TABLES = {
    # the swing leg 4 at sample 3 of step 3, after 132 rows
    "swing": (TIGHT_LIMITS_INI, r"^step 3 sample 3 leg 4: theta1="),
    # the stance leg 1 at sample 0 of step 2, before the swing leg 3 is solved
    "stance": ("[gait]\nbranch = minus\n[joints]\nlimit_min_deg = -180\nlimit_max_deg = 178\n",
               r"^step 2 sample 0 leg 1: theta1="),
}


@pytest.mark.parametrize("case", sorted(FAILING_TABLES))
def test_step_hook_raises_what_each_row_raises(case, tmp_path, capsys):
    text, message = FAILING_TABLES[case]
    ini = tmp_path / "gait.ini"
    ini.write_text(text, encoding="utf-8")
    config = load_config(str(ini))
    with pytest.raises(JointLimit, match=message) as per_row:
        compile_config(config, sink=[].append)
    with pytest.raises(JointLimit) as hooked:
        with joint_table_sink(tmp_path / "table.csv") as sink:
            compile_config(config, sink=sink)
    assert type(hooked.value) is type(per_row.value)
    assert str(hooked.value) == str(per_row.value)
    assert hooked.value.plane == per_row.value.plane == "xy"
    assert os.listdir(tmp_path) == ["gait.ini"]
    assert main(["--config", str(ini), "gait", "-o", str(tmp_path / "table.csv")]) == (
        EXIT_VALIDATION)
    assert str(per_row.value) in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["gait.ini"]

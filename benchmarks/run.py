"""Benchmark of the wallclimber CLI, end to end and per layer.

    python3 benchmarks/run.py --workload sweep --seed 0 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, every metric
    python3 benchmarks/run.py --record-golden           # rewrite benchmarks/golden.json

Run it from anywhere inside a source checkout; it imports the package from
``src/`` of the checkout that holds this file and writes only under
``.bench_work/`` there.

--trace 0 runs the CLI as separate processes, one at a time (a closed loop
with one client): rounds of one ``validate-config`` set-up invocation and one
invocation of the workload's command, each followed by a fixed reference
program that measures the shared host's speed, until --seconds have passed.
It reports the end-to-end metrics, rescaled to a nominal host speed.
--trace 1 runs the same command in-process under ``traced_run.py`` and
reports the per-layer metrics. Every invocation's exit code, stdout and
output files are checked against the SHA-256 hashes in ``golden.json``; a
mismatch counts as a failed invocation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
TRACED_RUN = os.path.join(BENCH_DIR, "traced_run.py")

CONFIG_NAME = "bench.ini"
MIN_SAMPLES = 3
MIN_TRACED_RUNS = 2
INTERPRETER_STARTS = 5
CHILD_TIMEOUT_S = 120
DEFAULT_SECONDS = 35

# Each workload is one CLI command on a generated config. The seed picks one
# variant: seed 0 is the canonical config, other seeds move one input value
# while keeping the amount of work (ticks, rows) the same, so every seed is
# comparable and every variant has a recorded golden output.
WORKLOADS = {
    # The paper's experiment: seven short scenario runs, each planned from
    # scratch, with a tiny output. Simulator, kinematics, pneumatics and
    # set-up dominate; series writing is bypassed. Seeds vary the robot mass.
    "sweep": {
        "argv": ["sweep", "0", "15", "30", "45", "60", "75", "90", "-o", "sweep.csv"],
        "outputs": ["sweep.csv"],
        "fixed": {},
        "vary": ("scenario", "mass_kg", [2.0, 1.6, 1.7, 1.8, 1.9, 2.1, 2.2, 2.3]),
    },
    # One long run at an angle where slip is active on every advance: per-tick
    # record memory, GC and write_series_csv dominate, planning and set-up are
    # a small share. Seeds vary the climb angle inside the slip range.
    "simulate_long": {
        "argv": ["simulate", "-o", "sim"],
        "outputs": ["sim.summary.json", "sim.series.csv"],
        "fixed": {("scenario", "cycles"): 30},
        "vary": ("scenario", "climb_angle_deg", [45, 30, 35, 40, 50, 55, 60, 65]),
    },
    # A dense joint table: about a quarter of the solve targets are distinct,
    # and pneumatics and the simulator are not used at all, so it bypasses
    # changes to those layers. Seeds vary the step length.
    "gait_table": {
        "argv": ["gait", "-o", "table.csv"],
        "outputs": ["table.csv"],
        "fixed": {("gait", "samples_per_step"): 2000},
        "vary": ("gait", "step_length_mm", [40, 36, 37, 38, 39, 41, 42, 43]),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kinematics.solve_leg.calls": "count",
    "kinematics.solve_leg.distinct": "count",
    "kinematics.solve_leg.repeat_frac": "ratio",
    "kinematics.solve_leg.self_s": "s",
    "pneumatics.pressure_under_suction.calls": "count",
    "pneumatics.pressure_under_suction.self_s": "s",
    "pneumatics.holding_capacity.calls": "count",
    "pneumatics.holding_capacity.self_s": "s",
    "simulator.ticks": "count",
    "simulator.run_scenario.s": "s",
    "simulator.run_scenario.self_s": "s",
    "simulator.self_us_per_tick": "us",
    "simulator.power_model.self_s": "s",
    "simulator.peak_alloc_mb": "MB",
    "gait.generate_cycle.s": "s",
    "gait.validate.calls": "count",
    "gait.compile_joint_table.self_s": "s",
    "gait.swing_waypoint.calls": "count",
    "fileio.write_series_csv.s": "s",
    "fileio.write_series_csv.bytes": "bytes",
    "fileio.write_joint_table.s": "s",
    "fileio.write_joint_table.bytes": "bytes",
    "fileio.write_sweep_csv.s": "s",
    "config.load_config.s": "s",
    "cli.import_s": "s",
    "runtime.interpreter_start_s": "s",
    "runtime.gc.collections": "count",
    "runtime.gc.pause_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly between two traced runs of the same code.
DETERMINISTIC_COUNTS = (
    "kinematics.solve_leg.calls",
    "kinematics.solve_leg.distinct",
    "pneumatics.pressure_under_suction.calls",
    "pneumatics.holding_capacity.calls",
    "simulator.ticks",
    "gait.validate.calls",
    "gait.swing_waypoint.calls",
    "fileio.write_series_csv.bytes",
    "fileio.write_joint_table.bytes",
    "runtime.gc.collections",
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no golden data)."""


def variant_count(workload):
    return len(WORKLOADS[workload]["vary"][2])


def config_text(workload, variant):
    spec = WORKLOADS[workload]
    section, key, values = spec["vary"]
    entries = dict(spec["fixed"])
    entries[(section, key)] = values[variant]
    lines = []
    for name in sorted({s for s, _ in entries}):
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for (s, k), v in sorted(entries.items()) if s == name]
    return "\n".join(lines) + "\n"


def cli_argv(workload):
    return ["--config", CONFIG_NAME, *WORKLOADS[workload]["argv"]]


SETUP_ARGV = ["--config", CONFIG_NAME, "validate-config"]

# A fixed pure-Python program that does not touch the package: function
# calls, float arithmetic, dict updates, and a list of small tuples that
# grows to about 20 MB so the garbage collector and the memory system work
# too. Its time measures how fast the shared host runs at that moment.
REFERENCE_PROGRAM = """
def step(state, i):
    x = (i % 97) * 0.5
    state[i % 512] = state.get((i * 7) % 509, 1.0) * 0.5 + x * x
    return (x, i, state[i % 512])
state, rows = {}, []
for i in range(150000):
    rows.append(step(state, i))
"""
REFERENCE_CMD = [sys.executable, "-c", REFERENCE_PROGRAM]
# Wall time of REFERENCE_CMD on a quiet 2-CPU host (Python 3.11); the
# end-to-end times are reported as if the host always ran at that speed.
REFERENCE_NOMINAL_S = 0.15


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("WALLCLIMBER_CONFIG", None)
    return env


def spawn(cmd, cwd, stdout_path):
    """Run one child to completion, alone. Returns (wall_s, exit code, peak
    RSS in MB of that child only, taken from its own rusage via wait4)."""
    env = child_env()
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall_s, proc.returncode, usage.ru_maxrss / 1024.0


def cli_cmd(argv):
    return [sys.executable, "-m", "wallclimber", *argv]


class Workdir:
    """A private directory under .bench_work/ holding the config and outputs."""

    def __init__(self, workload, variant):
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self.outputs = WORKLOADS[workload]["outputs"]
        with open(self.join(CONFIG_NAME), "w", encoding="utf-8") as handle:
            handle.write(config_text(workload, variant))

    def join(self, name):
        return os.path.join(self.path, name)

    def clear_outputs(self):
        for name in self.outputs:
            if os.path.exists(self.join(name)):
                os.remove(self.join(name))

    def hashes(self, stdout_name):
        files = {name: sha256_file(self.join(name)) if os.path.exists(self.join(name))
                 else None for name in self.outputs}
        return sha256_file(self.join(stdout_name)), files

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def load_golden():
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BenchError(f"cannot read golden outputs: {exc}") from exc


def require_source():
    if not os.path.isfile(os.path.join(SRC, "wallclimber", "__main__.py")):
        raise BenchError(f"no wallclimber package under {SRC}; run from a source checkout")


class Checker:
    """Compares each invocation against its golden record and counts failures."""

    def __init__(self, golden, workdir):
        self.golden = golden
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def count(self, label, problems):
        """Count one invocation; it failed if there is any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{label}: " + "; ".join(problems))

    def check(self, label, code, stdout_name, expect_exit, expect_stdout, expect_files):
        stdout_sha, files = self.workdir.hashes(stdout_name)
        problems = []
        if code != expect_exit:
            problems.append(f"exit {code}, expected {expect_exit}")
        if stdout_sha != expect_stdout:
            problems.append("stdout differs from golden")
        for name, digest in expect_files.items():
            if files.get(name) != digest:
                problems.append(f"{name} differs from golden")
        self.count(label, problems)

    def setup(self, code):
        g = self.golden
        self.check("validate-config", code, "setup.stdout",
                   g["setup_exit"], g["setup_stdout_sha256"], {})

    def command(self, label, code, stdout_name):
        g = self.golden
        self.check(label, code, stdout_name, g["exit"], g["stdout_sha256"], g["files"])


def another_round(deadline, round_s, min_rounds):
    """True while fewer than min_rounds rounds have run, or while one more
    round, as long as the median round so far, still ends by the deadline."""
    if len(round_s) < min_rounds:
        return True
    return time.perf_counter() + statistics.median(round_s) <= deadline


def measure_end_to_end(workload, variant, seconds, golden):
    deadline = time.perf_counter() + seconds
    work = Workdir(workload, variant)
    checker = Checker(golden, work)
    raw = {"reference_s": [], "setup_s": [], "wall_s": []}
    rss_mb, round_s = [], []

    def reference():
        t, code, _ = spawn(REFERENCE_CMD, work.path, work.join("reference.stdout"))
        checker.count("reference program", [] if code == 0 else [f"exit {code}"])
        raw["reference_s"].append(t)

    try:
        # Warm-up: validate-config imports every module, which fills the
        # bytecode cache and the OS page cache before anything is timed.
        _, code, _ = spawn(cli_cmd(SETUP_ARGV), work.path, work.join("setup.stdout"))
        checker.setup(code)
        reference()
        while another_round(deadline, round_s, MIN_SAMPLES):
            start = time.perf_counter()
            t, code, _ = spawn(cli_cmd(SETUP_ARGV), work.path, work.join("setup.stdout"))
            checker.setup(code)
            raw["setup_s"].append(t)
            reference()
            work.clear_outputs()
            t, code, rss = spawn(cli_cmd(cli_argv(workload)), work.path,
                                 work.join("cmd.stdout"))
            checker.command(workload, code, "cmd.stdout")
            raw["wall_s"].append(t)
            rss_mb.append(rss)
            reference()
            round_s.append(time.perf_counter() - start)
    finally:
        work.close()

    # Every measured process runs between two runs of the reference program.
    # Its time is rescaled by how fast those two ran against their nominal
    # time, which cancels the host's speed drift (other tenants) at that
    # moment. The references are interleaved: ref, setup, ref, command, ref, ...
    refs = raw["reference_s"]
    scale = [2.0 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    setup_s = [t * k for t, k in zip(raw["setup_s"], scale[0::2])]
    wall_s = [t * k for t, k in zip(raw["wall_s"], scale[1::2])]
    wall = statistics.median(wall_s)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall,
        "ticks_per_s": golden["ticks"] / wall,
        "rows_per_s": golden["rows"] / wall,
        "peak_rss_mb": statistics.median(rss_mb),
    }
    samples = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss_mb}
    return checker, metrics, samples, raw


def traced_child(work, mode, run_id, workload):
    result = work.join(f"{mode}-{run_id}.json")
    work.clear_outputs()
    cmd = [sys.executable, TRACED_RUN, mode, result, SRC, run_id, "--", *cli_argv(workload)]
    _, code, _ = spawn(cmd, work.path, work.join(f"{mode}-{run_id}.stdout"))
    if code != 0 or not os.path.exists(result):
        return None, f"traced_run.py {mode} exited with {code}"
    with open(result, encoding="utf-8") as handle:
        return json.load(handle), None


def layer_metrics(traced):
    """Per-layer metric values of one traced run."""
    layers = traced["layers"]

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    calls = get("kinematics.solve_leg", "calls")
    distinct = traced["solve_distinct"]
    ticks = traced["ticks"]
    scenario_self = get("simulator.run_scenario", "self_s")
    written = traced["bytes"]
    return {
        "kinematics.solve_leg.calls": calls,
        "kinematics.solve_leg.distinct": distinct,
        "kinematics.solve_leg.repeat_frac": 1.0 - distinct / calls if calls else 0.0,
        "kinematics.solve_leg.self_s": get("kinematics.solve_leg", "self_s"),
        "pneumatics.pressure_under_suction.calls": get("pneumatics.pressure_under_suction",
                                                       "calls"),
        "pneumatics.pressure_under_suction.self_s": get("pneumatics.pressure_under_suction",
                                                        "self_s"),
        "pneumatics.holding_capacity.calls": get("pneumatics.holding_capacity", "calls"),
        "pneumatics.holding_capacity.self_s": get("pneumatics.holding_capacity", "self_s"),
        "simulator.ticks": ticks,
        "simulator.run_scenario.s": get("simulator.run_scenario", "s"),
        "simulator.run_scenario.self_s": scenario_self,
        "simulator.self_us_per_tick": scenario_self / ticks * 1e6 if ticks else 0.0,
        "simulator.power_model.self_s": get("simulator.power_model", "self_s"),
        "gait.generate_cycle.s": get("gait.generate_cycle", "s"),
        "gait.validate.calls": get("gait.validate", "calls"),
        "gait.compile_joint_table.self_s": get("gait.compile_joint_table", "self_s"),
        "gait.swing_waypoint.calls": get("gait.swing_waypoint", "calls"),
        "fileio.write_series_csv.s": get("fileio.write_series_csv", "s"),
        "fileio.write_series_csv.bytes": written.get("fileio.write_series_csv", 0),
        "fileio.write_joint_table.s": get("fileio.write_joint_table", "s"),
        "fileio.write_joint_table.bytes": written.get("fileio.write_joint_table", 0),
        "fileio.write_sweep_csv.s": get("fileio.write_sweep_csv", "s"),
        "config.load_config.s": get("config.load_config", "s"),
        "cli.import_s": traced["import_s"],
        "runtime.gc.collections": traced["gc_collections"],
        "runtime.gc.pause_s": traced["gc_pause_s"],
        "trace.wall_s": traced["wall_s"],
    }


def measure_layers(workload, variant, seconds, golden):
    deadline = time.perf_counter() + seconds
    work = Workdir(workload, variant)
    checker = Checker(golden, work)
    traced_runs, plain_s, round_s, starts = [], [], [], []
    try:
        for _ in range(INTERPRETER_STARTS):
            t, _, _ = spawn([sys.executable, "-c", "pass"], work.path, work.join("start.stdout"))
            starts.append(t)

        alloc, error = traced_child(work, "alloc", "alloc", workload)
        if error:
            checker.count("alloc run", [error])
            alloc = {"peak_alloc_bytes": 0}
        else:
            checker.command("alloc run", alloc["exit"], "alloc-alloc.stdout")

        while another_round(deadline, round_s, MIN_TRACED_RUNS):
            start = time.perf_counter()
            run_id = f"{workload}-{variant}-{len(round_s) + 1}"
            for mode in ("plain", "trace"):
                result, error = traced_child(work, mode, run_id, workload)
                if error:
                    checker.count(f"{mode} run {run_id}", [error])
                    continue
                checker.command(f"{mode} run {run_id}", result["exit"],
                                f"{mode}-{run_id}.stdout")
                if mode == "plain":
                    plain_s.append(result["wall_s"])
                else:
                    traced_runs.append(layer_metrics(result))
            round_s.append(time.perf_counter() - start)
    finally:
        work.close()

    if not traced_runs or not plain_s:
        return checker, {}
    metrics = {}
    for name in traced_runs[0]:
        values = [run[name] for run in traced_runs]
        metrics[name] = values[0] if name in DETERMINISTIC_COUNTS else statistics.median(values)
    # The determinism check: every traced run repeats every count exactly.
    checker.count("determinism", [
        f"{name} differs between traced runs: {sorted(values)}"
        for name in DETERMINISTIC_COUNTS
        if len(values := {run[name] for run in traced_runs}) != 1])
    metrics["simulator.peak_alloc_mb"] = alloc["peak_alloc_bytes"] / (1 << 20)
    metrics["runtime.interpreter_start_s"] = statistics.median(starts)
    metrics["trace.untraced_wall_s"] = statistics.median(plain_s)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
    return checker, {name: metrics[name] for name in PER_LAYER_UNITS}


def spread(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  (n={len(values)}, q1={q1:.6g}, q3={q3:.6g}, max={max(values):.6g})"


def run_workload(workload, seed, seconds, trace):
    golden_all = load_golden()
    variant = seed % variant_count(workload)
    golden = golden_all["workloads"][workload][variant]
    if golden["config"] != config_text(workload, variant):
        raise BenchError(f"golden.json does not match the {workload} variant {variant} config;"
                         " rerun with --record-golden on the reference code")
    if trace:
        checker, values = measure_layers(workload, variant, seconds, golden)
        units, samples, raw = PER_LAYER_UNITS, {}, {}
    else:
        checker, values, samples, raw = measure_end_to_end(workload, variant, seconds, golden)
        units = END_TO_END_UNITS

    print(f"# workload={workload} seed={seed} variant={variant} trace={trace}")
    for name in units:
        if name in values:
            print(f"{name:42s} {values[name]:<14.6g} {units[name]}{spread(samples.get(name, []))}")
    for name, values_s in raw.items():
        print(f"{'raw ' + name:42s} {statistics.median(values_s):<14.6g} s{spread(values_s)}")
    print(f"{'failed_frac':42s} {checker.failed / max(checker.attempted, 1):<14.6g} ratio"
          f"  ({checker.failed} of {checker.attempted} invocations)")
    for message in checker.messages:
        print(f"FAILED {message}")
    correct = checker.failed == 0 and len(values) == len(units)
    return {
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }


def record_golden():
    """Run every variant of every workload once and store what it produced."""
    data = {"python": sys.version.split()[0], "workloads": {}}
    for workload in WORKLOADS:
        entries = []
        for variant in range(variant_count(workload)):
            work = Workdir(workload, variant)
            try:
                _, setup_code, _ = spawn(cli_cmd(SETUP_ARGV), work.path, work.join("setup.stdout"))
                traced, error = traced_child(work, "trace", "golden", workload)
                if error:
                    raise BenchError(f"{workload} variant {variant}: {error}")
                work.clear_outputs()
                _, code, _ = spawn(cli_cmd(cli_argv(workload)), work.path,
                                   work.join("cmd.stdout"))
                stdout_sha, files = work.hashes("cmd.stdout")
                rows, instants = 0, set()
                for name in work.outputs:
                    if name.endswith(".csv"):
                        with open(work.join(name), encoding="utf-8") as handle:
                            lines = handle.read().splitlines()[1:]
                        rows += len(lines)
                        instants.update(line.split(",", 1)[0] for line in lines)
                entries.append({
                    "config": config_text(workload, variant),
                    "setup_exit": setup_code,
                    "setup_stdout_sha256": work.hashes("setup.stdout")[0],
                    "exit": code,
                    "stdout_sha256": stdout_sha,
                    "files": files,
                    # Simulated ticks; a joint table has no simulator, so its
                    # ticks are the sample instants (four rows each).
                    "ticks": traced["ticks"] or len(instants),
                    "rows": rows,
                })
                print(f"{workload} variant {variant}: exit {code}, "
                      f"ticks {entries[-1]['ticks']}, rows {rows}")
            finally:
                work.close()
        data["workloads"][workload] = entries
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="run every variant once and rewrite golden.json")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def on_alarm(_signum, _frame):
    raise BenchError(f"a child process ran longer than {CHILD_TIMEOUT_S} s")


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, on_alarm)
    try:
        require_source()
        if args.record_golden:
            record_golden()
            return 0
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            results = {(w, trace): run_workload(w, args.seed, args.seconds, trace)
                       for trace in (0, 1) for w in WORKLOADS}
            result = {"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}.{name}": value
                                  for (w, _), r in results.items()
                                  for name, value in r["metrics"].items()}}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

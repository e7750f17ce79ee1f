"""Run one wallclimber CLI command in this process, with or without tracing.

    python3 benchmarks/traced_run.py MODE RESULT_JSON SRC_DIR RUN_ID -- CLI_ARGS...

MODE is one of
  plain  run the command with nothing wrapped (the tracing-overhead baseline);
  trace  wrap the public functions of every layer, record one span per call,
         count GC collections, write the spans to RESULT_JSON's sibling
         ``.spans.csv`` once at the end, and report per-layer aggregates;
  alloc  measure the tracemalloc peak inside each ``run_scenario`` call.

The parent (``run.py``) starts one fresh process per run, so the import
time and the GC counts do not depend on earlier runs. Nothing under ``src/``
is touched: the wrappers are installed at run time and removed afterwards.
"""

import gc
import os
import sys
import time

# (module, function) pairs wrapped in trace mode. A function is wrapped at
# every module attribute that refers to it, because the simulator, gait and
# cli modules import these names directly and would otherwise call the
# unwrapped original.
TARGETS = (
    ("kinematics", "solve_leg"),
    ("gait", "generate_cycle"),
    ("gait", "validate"),
    ("gait", "compile_joint_table"),
    ("gait", "swing_waypoint"),
    ("pneumatics", "pressure_under_suction"),
    ("pneumatics", "holding_capacity"),
    ("simulator", "run_scenario"),
    ("simulator", "power_model"),
    ("simulator", "sweep_climb_angle"),
    ("fileio", "write_series_csv"),
    ("fileio", "write_joint_table"),
    ("fileio", "write_sweep_csv"),
    ("config", "load_config"),
)

ROOT_SPAN = "cli.main"


def patch_everywhere(module_name, func_name, make_wrapper):
    """Replace a function at every ``wallclimber`` module binding.

    Returns the list of (module, attribute, original) needed to undo it.
    """
    original = getattr(sys.modules[f"wallclimber.{module_name}"], func_name)
    wrapper = make_wrapper(original)
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "wallclimber" and not name.startswith("wallclimber."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
    return undo


def restore(undo):
    for module, attr, original in undo:
        setattr(module, attr, original)


class Tracer:
    """In-memory span recorder plus the per-layer counters.

    A span is (name, start, end, parent index, run id); the parent index
    points into ``spans`` and is -1 for the root.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.solve_keys = set()
        self.bytes_written = {}
        self.ticks = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0

    def span(self, name, fn, after=None):
        spans = self.spans
        stack = self.stack
        run_id = self.run_id
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def after_hooks(self):
        def solve(args, _result):
            self.solve_keys.add(args)

        def scenario(_args, report):
            self.ticks += len(report.records)

        def writer(name):
            def hook(args, _result):
                self.bytes_written[name] = (self.bytes_written.get(name, 0)
                                            + os.path.getsize(args[0]))
            return hook

        return {
            "kinematics.solve_leg": solve,
            "simulator.run_scenario": scenario,
            "fileio.write_series_csv": writer("fileio.write_series_csv"),
            "fileio.write_joint_table": writer("fileio.write_joint_table"),
            "fileio.write_sweep_csv": writer("fileio.write_sweep_csv"),
        }

    def on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self):
        hooks = self.after_hooks()
        undo = []
        for module_name, func_name in TARGETS:
            name = f"{module_name}.{func_name}"
            undo += patch_everywhere(
                module_name, func_name,
                lambda fn, name=name: self.span(name, fn, hooks.get(name)))
        return undo

    def layer_totals(self):
        """Per span name: calls, inclusive seconds, and self seconds (the
        span minus the time its direct child spans cover)."""
        child_s = [0.0] * len(self.spans)
        for _name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = {}
        for index, (name, start, end, _parent, _run) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s[index]
        return totals

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent,run_id\n")
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                handle.write(f"{index},{name},{start!r},{end!r},{parent},{run_id}\n")


def run_plain(cli, argv):
    start = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - start, {}


def run_traced(cli, argv, run_id, spans_path):
    tracer = Tracer(run_id)
    main = tracer.span(ROOT_SPAN, cli.main)
    undo = tracer.install()
    gc.callbacks.append(tracer.on_gc)
    try:
        start = time.perf_counter()
        code = main(argv)
        wall_s = time.perf_counter() - start
    finally:
        gc.callbacks.remove(tracer.on_gc)
        restore(undo)
    tracer.write_spans(spans_path)
    return code, wall_s, {
        "layers": tracer.layer_totals(),
        "solve_distinct": len(tracer.solve_keys),
        "bytes": tracer.bytes_written,
        "ticks": tracer.ticks,
        "gc_collections": tracer.gc_collections,
        "gc_pause_s": tracer.gc_pause_s,
    }


def run_alloc(cli, argv):
    import tracemalloc

    peak = [0]

    def measure(fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
        return wrapper

    undo = patch_everywhere("simulator", "run_scenario", measure)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - start
    finally:
        tracemalloc.stop()
        restore(undo)
    return code, wall_s, {"peak_alloc_bytes": peak[0]}


def main():
    mode, result_path, src_dir, run_id, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "alloc"):
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)
    start = time.perf_counter()
    import wallclimber.cli as cli
    import_s = time.perf_counter() - start

    if mode == "plain":
        code, wall_s, extra = run_plain(cli, argv)
    elif mode == "trace":
        code, wall_s, extra = run_traced(cli, argv, run_id,
                                         result_path[:-len(".json")] + ".spans.csv")
    else:
        code, wall_s, extra = run_alloc(cli, argv)

    import json  # only now: the package imports json itself, so cli.import_s includes it

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"mode": mode, "exit": code, "import_s": import_s,
                   "wall_s": wall_s, **extra}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ik, fk, gait, simulate, sweep, validate-config. Angles on
the command line and in files are degrees; lengths are mm. The config
file is taken from --config, then the WALLCLIMBER_CONFIG environment
variable, then built-in defaults.

Exit codes: 0 success, 2 usage error, 3 validation error (bad config,
unreachable target, non-finite fk angle, invalid gait, an empty -o, no
-o directory or an output path that is a directory, all checked before
the run, or an output file that cannot be written), 4 simulation
failure.
"""

import argparse
import errno
import gc
import math
import os
import sys

from . import fileio
from .config import CONFIG_ENV_VAR, load_config, resolve_config_path
from .errors import ClimberError, ConfigError, require_finite
from .gait import LEG_IDS, compile_joint_table, generate_cycle
from .kinematics import CupTarget, ElbowBranch, fk_leg, fk_normal_z, fk_planar_xy, solve_leg
from .simulator import run_scenario, sweep_climb_angle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_SIMFAIL = 4


def _fail(message, code):
    print(message, file=sys.stderr)
    return code


def _load(args):
    return load_config(resolve_config_path(args.config))


def _cmd_ik(args):
    config = _load(args)
    branch = ElbowBranch[args.branch.upper()]
    target = CupTarget(args.x, args.y, args.z, math.radians(args.k))
    angles = solve_leg(config.geometry, target, branch, config.limits)
    print(" ".join(f"{math.degrees(t):.6f}" for t in angles.as_tuple()))
    echo = fk_leg(config.geometry, angles)
    print(f"fk: x={echo.x:.6f} y={echo.y:.6f} z={echo.z:.6f} k={math.degrees(echo.k):.6f}")
    return EXIT_OK


def _cmd_fk(args):
    require_finite(args, "theta1", "theta2", "theta3", "theta4")
    config = _load(args)
    t1, t2, t3, t4 = (math.radians(v) for v in (args.theta1, args.theta2,
                                                args.theta3, args.theta4))
    x, y = fk_planar_xy(config.geometry, t1, t2)
    z, k = fk_normal_z(config.geometry, t3, t4)
    print(f"{x:.6f} {y:.6f} {z:.6f} {math.degrees(k):.6f}")
    return EXIT_OK


def _cmd_gait(args):
    config = _load(args)
    gait = config.gait
    with fileio.joint_table_sink(args.out) as sink:
        compile_joint_table(gait, config.geometry, limits=config.limits, sink=sink)
    rows = gait.samples_per_step * len(LEG_IDS) * len(gait.order)
    print(f"wrote {args.out} ({rows} rows)")
    return EXIT_OK


def _result_line(angle_deg, speed_mm_s, power_w, completed):
    return (f"angle={angle_deg:g} speed={speed_mm_s:.6f} power={power_w:.6f} "
            f"completed={'true' if completed else 'false'}")


def _cmd_simulate(args):
    config = _load(args)
    with fileio.series_csv_sink(f"{args.out}.series.csv") as sink:
        report = run_scenario(config, sink=sink)
    fileio.write_summary_json(f"{args.out}.summary.json", report)
    print(_result_line(report.climb_angle_deg, report.average_speed_mm_s,
                       report.average_power_w, report.completed))
    if not report.completed:
        return _fail(f"simulation failed at tick {report.failure_tick}: "
                     f"{report.failure_reason}", EXIT_SIMFAIL)
    return EXIT_OK


def _cmd_sweep(args):
    for angle in args.angles:
        if not 0.0 <= angle <= 90.0:
            return _fail(f"usage error: climb angle {angle:g} outside [0, 90] deg",
                         EXIT_USAGE)
    config = _load(args)
    try:  # each angle's config is the file's with its climb_angle_deg replaced
        rows = sweep_climb_angle(config, args.angles)
    except ValueError as exc:  # such as a lift power that overflows at that angle
        raise ConfigError(f"[scenario] {exc}") from exc
    fileio.write_sweep_csv(args.out, rows)
    for row in rows:
        print(_result_line(row.angle_deg, row.avg_speed_mm_s, row.avg_power_w, row.completed))
    print(f"wrote {args.out}")
    if not any(row.completed for row in rows):
        return _fail("no climb angle completed", EXIT_SIMFAIL)
    return EXIT_OK


def _cmd_validate_config(args):
    path = resolve_config_path(args.config)
    config = load_config(path)
    generate_cycle(config.geometry, config.gait, config.limits)  # refuses a gait that cannot plan
    source = path if path is not None else "built-in defaults"
    print(f"config ok ({source})")
    geom = config.geometry
    print(f"  geometry: a1={geom.a1} a2={geom.a2} a3={geom.a3} a4={geom.a4} mm")
    if config.limits is not None:
        print(f"  joint limits: [{math.degrees(config.limits.lower):g}, "
              f"{math.degrees(config.limits.upper):g}] deg")
    else:
        print("  joint limits: unset (not enforced)")
    gait = config.gait
    print(f"  gait: step={gait.step_length_mm} mm order={gait.order} "
          f"lift={gait.lift_mm} mm z={gait.z_mm} mm k={math.degrees(gait.k_rad):g} deg "
          f"mode={gait.advance_mode}")
    print(f"  adhesion: vacuum={config.adhesion.vacuum_kpa} kPa "
          f"threshold={config.adhesion.attach_threshold_kpa} kPa "
          f"area={config.adhesion.cup_area_mm2} mm^2 mu={config.adhesion.friction}")
    print(f"  scenario: angle={config.climb_angle_deg:g} deg mass={config.mass_kg} kg "
          f"cycles={config.cycles} tick={config.tick_s} s seed={config.seed}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wallclimber",
        description="Simulation toolkit for a four-legged suction-cup wall climber.",
    )
    parser.add_argument("--config", metavar="PATH", default=None,
                        help=f"config file (default: ${CONFIG_ENV_VAR} or built-in defaults)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ik", help="solve one leg for a cup target")
    p.add_argument("x", type=float, help="contact point x, mm")
    p.add_argument("y", type=float, help="contact point y, mm")
    p.add_argument("z", type=float, help="wall clearance, mm")
    p.add_argument("k", type=float, help="cup approach angle, deg")
    p.add_argument("branch", nargs="?", choices=("plus", "minus"), default="plus",
                   help="elbow branch (default plus)")
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("fk", help="forward kinematics for four joint angles (deg)")
    for name in ("theta1", "theta2", "theta3", "theta4"):
        p.add_argument(name, type=float)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("gait", help="compile the climbing cycle to a joint-angle CSV")
    p.add_argument("-o", "--out", default="joint_table.csv", help="output CSV path")
    p.set_defaults(func=_cmd_gait)

    p = sub.add_parser("simulate", help="run one scenario; writes summary JSON and series CSV")
    p.add_argument("-o", "--out", default="sim", help="output path prefix")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the scenario across climb angles")
    p.add_argument("angles", nargs="*", type=float,
                   default=[0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0],
                   help="climb angles in degrees (default 0..90 by 15)")
    p.add_argument("-o", "--out", default="sweep.csv", help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate-config", help="load and validate the config, print a summary")
    p.set_defaults(func=_cmd_validate_config)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    if out is not None:
        if not os.path.isdir(os.path.dirname(out) or "."):
            return _fail(f"error: the directory of -o {out!r} does not exist", EXIT_VALIDATION)
        simulate = args.command == "simulate"
        for path in (f"{out}.series.csv", f"{out}.summary.json") if simulate else (out,):
            if not path:
                return _fail("error: -o must name a file, got ''", EXIT_VALIDATION)
            if os.path.isdir(path):
                error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                return _fail(f"error: cannot write the output: {error}", EXIT_VALIDATION)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(f"config error: {exc}", EXIT_VALIDATION)
    except ClimberError as exc:
        return _fail(f"error: {type(exc).__name__}: {exc}", EXIT_VALIDATION)
    except ValueError as exc:
        return _fail(f"error: {exc}", EXIT_VALIDATION)
    except OSError as exc:  # e.g. an output directory that cannot be written
        return _fail(f"error: cannot write the output: {exc}", EXIT_VALIDATION)


def run():
    """Entry point of `python -m wallclimber` and the console script. The
    collector is off while main() runs: reference counting frees what a
    command drops (a 30-cycle simulate peaks at the same RSS either way), and
    main() closes every file it opens rather than leaving one to a
    collection. It is switched back on as it was found, then gc.freeze()
    moves every live object into the permanent generation, so the shutdown
    collections have nothing to scan. main() leaves the GC alone, because
    tests and tools call it in-process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = main()
    finally:
        if enabled:
            gc.enable()
    gc.freeze()
    sys.exit(code)

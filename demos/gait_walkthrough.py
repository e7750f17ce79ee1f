#!/usr/bin/env python3
"""Plan one climbing cycle from a GaitParams, validate it, show the exact
closure bookkeeping, and compile it into a joint-angle table.

Usage: python demos/gait_walkthrough.py
"""

import math

from wallclimber import (FootholdMap, GaitParams, LegGeometry, compile_joint_table,
                         generate_cycle, validate)
from wallclimber.fileio import write_joint_table


def main():
    geom = LegGeometry()
    gait = GaitParams(step_length_mm=40.0)  # every other knob at its default
    stance = FootholdMap.from_mm(gait.stance_mm)
    print("=" * 60)
    print("Initial stance (body frame, mm):")
    for leg in (1, 2, 3, 4):
        print(f"  leg {leg}: {stance.point_mm(leg)}")

    script = generate_cycle(geom, gait)
    print(f"\nCycle of {len(script.steps)} steps, step length "
          f"{gait.step_length_mm} mm, advance mode '{gait.advance_mode}':")
    for i, step in enumerate(script.steps):
        print(f"  step {i}: leg {step.swing_leg} swings to "
              f"{step.new_foothold_mm} mm, then body +{step.body_advance_mm} mm")

    report = validate(script, geom)
    print("\nValidation:", "clean" if report.ok else report.violations)

    print("\nExact closure over 5 cycles (integer micrometres):")
    wall = dict(stance.points_um)
    body = 0
    for _ in range(5):
        for step in script.steps:
            wall[step.swing_leg] = (step.new_foothold_um[0],
                                    step.new_foothold_um[1] + body)
            body += step.body_advance_um
    print(f"  body advanced {body} um = 5 x {script.step_length_um} um:",
          body == 5 * script.step_length_um)
    back = {leg: (wall[leg][0], wall[leg][1] - body) for leg in (1, 2, 3, 4)}
    print("  stance pattern identical to start:", back == stance.points_um)

    print(f"\nThe plan's own pose, which the compile reads: z={script.z_mm} mm, "
          f"k={math.degrees(script.k_rad):g} deg, lift={script.lift_mm} mm, "
          f"branch={script.branch.name}")
    rows = compile_joint_table(script, geom, samples_per_step=5, step_duration_s=1.0)
    print(f"\nCompiled table: {len(rows)} rows (first 8):")
    for row in rows[:8]:
        angles = ", ".join(f"{math.degrees(t):8.3f}" for t in row.angles.as_tuple())
        flag = "attached" if row.attached else "swing"
        print(f"  t={row.t_s:5.2f}s leg {row.leg} [{angles}] {flag}")

    out = "joint_table_demo.csv"
    write_joint_table(out, rows)
    print(f"\nwrote {out}")
    print("=" * 60)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Narrate the pneumatic side of a run: gripping a cup, the pressure
curve, holding forces with four cups and with three, a leaky cup that
needs its extension dwell, and a surface too porous to grip.

Usage: python demos/suction_cycle.py
"""

from wallclimber import (
    AdhesionModel,
    PneumaticState,
    ScenarioConfig,
    holding_capacity,
    run_scenario,
)
from wallclimber.fileio import write_series_csv

# A one-cycle run swings leg 1 first: 20 vent ticks, then 60 swing ticks,
# then its attach dwell of 50 ticks (records 80-129), then leg 2 vents.
DWELL_START, DWELL_END, LEG2_VENTS = 80, 129, 170


def capacity(record, model):
    """Holding capacity of the cups as a tick record left them."""
    state = PneumaticState.initial()
    state.valve.update(record.valve)
    state.pressure_kpa.update(record.pressure_kpa)
    return holding_capacity(state, model)


def main():
    model = AdhesionModel()
    print("=" * 60)
    print(f"Cup model: {model.cup_area_mm2} mm^2, vacuum {model.vacuum_kpa} kPa, "
          f"grip below {model.attach_threshold_kpa} kPa, mu={model.friction}")
    print("Pumps A (legs 1,2) and B (legs 3,4) run; each step vents, swings "
          "and re-grips one cup.")

    report = run_scenario(ScenarioConfig(cycles=1, adhesion=model))
    records = report.records

    print("\n--- pressure during leg 1's first attach dwell ---")
    for i in range(DWELL_START - 1, DWELL_END + 1, 10):
        rec = records[i]
        p = rec.pressure_kpa[1]
        print(f"  t={rec.t_s:4.2f}s  {p:8.3f} kPa {'#' * round(-p):50s} "
              f"{'attached' if rec.attached[1] else 'not attached'}")

    normal, tangential = capacity(records[DWELL_END], model)
    print(f"\nAll four cups attached: {normal:.2f} N normal, {tangential:.2f} N tangential")
    normal, tangential = capacity(records[LEG2_VENTS], model)
    print(f"Leg 2 venting for its step: {normal:.2f} N normal, "
          f"{tangential:.2f} N tangential (3 cups hold while one swings)")

    out = "suction_series_demo.csv"
    write_series_csv(out, report)
    print(f"wrote {out} ({report.ticks} ticks)")

    print("\n--- a leaky surface: the cup grips on its extension dwell ---")
    slow = AdhesionModel(leak_kpa_per_s=115.0)
    print(f"  equilibrium {slow.equilibrium_kpa:.2f} kPa: one dwell ends short of the threshold")
    leaky_run = run_scenario(ScenarioConfig(cycles=1, adhesion=slow))
    for i, label in ((DWELL_END, "after the dwell"), (DWELL_END + 50, "after the extension")):
        rec = leaky_run.records[i]
        print(f"  t={rec.t_s:4.2f}s  {rec.pressure_kpa[1]:8.3f} kPa  "
              f"{'attached' if rec.attached[1] else 'not attached'} {label}")
    print(f"  the cycle takes {leaky_run.ticks} ticks instead of {report.ticks}")

    print("\n--- a surface too porous to grip ---")
    porous = AdhesionModel(leak_kpa_per_s=200.0)
    print(f"  leak shifts the reachable equilibrium to "
          f"{porous.equilibrium_kpa:.2f} kPa (threshold {porous.attach_threshold_kpa})")
    failed = run_scenario(ScenarioConfig(cycles=1, adhesion=porous))
    print(f"  {failed.failure_code}: {failed.failure_reason}")
    print("=" * 60)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Narrate the pneumatic side: gripping a cup, the pressure curve,
holding forces, releasing, a leaky cup that needs its extension dwell,
and a surface too porous to grip.

Usage: python demos/suction_cycle.py
"""

from wallclimber import (
    AdhesionModel,
    PneumaticState,
    attach_sequence,
    detach_sequence,
    holding_capacity,
)
from wallclimber.errors import AttachTimeout
from wallclimber.fileio import write_events_csv
from wallclimber.pneumatics import pressure_under_suction


def main():
    model = AdhesionModel()
    print("=" * 60)
    print(f"Cup model: {model.cup_area_mm2} mm^2, vacuum {model.vacuum_kpa} kPa, "
          f"grip below {model.attach_threshold_kpa} kPa, mu={model.friction}")

    state = PneumaticState.initial()
    print("\nAll cups vented; pumps A (legs 1,2) and B (legs 3,4) running.")

    print("\n--- pressure during one attach dwell (leg 1) ---")
    for i in range(7):
        t = model.dwell_s * i / 6
        p = pressure_under_suction(model, 0.0, t)
        bar = "#" * round(-p)
        print(f"  t={t:4.2f}s  {p:8.3f} kPa {bar}")

    trace = []
    for leg in (1, 2, 3, 4):
        events, state = attach_sequence(state, leg, model)
        trace += events
    print(f"\nAll four cups attached: {state.attached_legs(model)}")
    normal, tangential = holding_capacity(state, model)
    print(f"Holding capacity: {normal:.2f} N normal, {tangential:.2f} N tangential")

    events, state = detach_sequence(state, 3, model)
    trace += events
    normal, tangential = holding_capacity(state, model)
    print(f"After releasing leg 3: {normal:.2f} N normal, "
          f"{tangential:.2f} N tangential (3 cups hold while one swings)")

    out = "pneumatic_events_demo.csv"
    write_events_csv(out, trace)
    print(f"wrote {out} ({len(trace)} events)")

    print("\n--- a leaky surface: the cup grips on its extension dwell ---")
    slow = AdhesionModel(leak_kpa_per_s=115.0)
    print(f"  equilibrium {slow.equilibrium_kpa:.2f} kPa: one dwell ends short of the threshold")
    events, _ = attach_sequence(PneumaticState.initial(), 1, slow)
    for event in events:
        print(f"  t={event.t_s:4.2f}s  {event.pressure_kpa:8.3f} kPa  "
              f"{'attached' if event.attached else 'not attached'}")

    print("\n--- a surface too porous to grip ---")
    leaky = AdhesionModel(leak_kpa_per_s=200.0)
    print(f"  leak shifts the reachable equilibrium to "
          f"{leaky.equilibrium_kpa:.2f} kPa (threshold {leaky.attach_threshold_kpa})")
    try:
        attach_sequence(PneumaticState.initial(), 1, leaky)
    except AttachTimeout as exc:
        print("  AttachTimeout:", exc)
    print("=" * 60)


if __name__ == "__main__":
    main()

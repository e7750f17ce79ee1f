"""A plain per-tick model of one run, for the tests to hold run_scenario and
sweep_climb_angle against.

It is written from the model's rules, not from the simulator: it steps every
tick of every phase of every cycle in turn (vent, swing, one attach dwell and
at most one extension, advance), with no cycle replay, no pneumatic pass
shared between runs, no pose memo and no split into passes. It takes the plan
from generate_cycle and uses only the unit-tested primitives relax, vent,
grip, slip_model, power_model and split_um; it builds no pose, so it has no
joint limits to check.
"""

import math
import random
from dataclasses import dataclass

from wallclimber.gait import generate_cycle, split_um
from wallclimber.pneumatics import Valve, grip, relax, vent
from wallclimber.simulator import power_model, slip_model

LEGS = (1, 2, 3, 4)


@dataclass
class ReferenceTick:
    """What a TickRecord holds at the end of one tick, angles aside."""

    t_s: float
    body_mm: float
    valve: dict
    pressure_kpa: dict
    attached: dict
    power_w: float
    slip: float


class _Ended(Exception):
    """The run ends before its last cycle: (failure_tick, failure_code, reason)."""


class _Run:
    def __init__(self, config):
        self.config = config
        self.model = config.adhesion
        self.decay = math.exp(-config.tick_s / self.model.time_constant_s)
        self.valve = {leg: Valve.SUCTION for leg in LEGS}
        self.pressure = {leg: self.model.equilibrium_kpa for leg in LEGS}
        self.rng = random.Random(config.seed)
        self.ticks = 0
        self.body_um = 0
        self.energy_j = 0.0
        self.slip_count = 0
        self.capacity_n = 0.0
        self.attached = {}
        self.records = []

    def tick(self, vent_leg=None, vent_from=None, fraction=None, share=0, slip=0.0):
        """One tick: every cup under suction relaxes, a venting cup follows its
        ramp, the cups grip, the body moves `share` um, and the tick is billed."""
        config, model = self.config, self.model
        suction = [leg for leg in LEGS if self.valve[leg] is Valve.SUCTION]
        for leg in suction:
            self.pressure[leg] = relax(self.pressure[leg], model.equilibrium_kpa, self.decay)
        if vent_leg is not None:
            self.pressure[vent_leg] = vent(vent_from, fraction)
        self.attached, _, self.capacity_n = grip(self.pressure, suction, model)
        self.body_um += share
        power = power_model(config, share / 1000 / config.tick_s, len(config.pump_legs))
        self.energy_j += power * config.tick_s
        self.ticks += 1
        pressures = dict(self.pressure)
        if config.noise_kpa > 0.0:
            pressures = {leg: p + self.rng.uniform(-config.noise_kpa, config.noise_kpa)
                         for leg, p in pressures.items()}
        self.records.append(ReferenceTick(self.ticks * config.tick_s, self.body_um / 1000,
                                          dict(self.valve), pressures, self.attached, power,
                                          slip))
        load = config.tangential_load_n
        if load > self.capacity_n:
            raise _Ended(self.ticks - 1, "adhesion_overload",
                         f"adhesion overload: tangential load {load:.3f} N > holding "
                         f"capacity {self.capacity_n:.3f} N")

    def step(self, step, ticks_of):
        config, leg = self.config, step.swing_leg
        self.valve[leg] = Valve.VENT
        vent_from, n = self.pressure[leg], ticks_of(self.model.vent_s)
        for j in range(n):
            self.tick(leg, vent_from, (j + 1) / n)
        self.pressure[leg] = 0.0
        for _ in range(ticks_of(config.gait.swing_s)):
            self.tick()
        self.valve[leg] = Valve.SUCTION
        for _ in range(2):  # one dwell, and one extension if the cup has not gripped
            for _ in range(ticks_of(self.model.dwell_s)):
                self.tick()
            if self.attached[leg]:
                break
        else:
            raise _Ended(self.ticks - 1, "attach_timeout",
                         f"attach timeout on leg {leg}: {self.pressure[leg]:.3f} kPa above "
                         f"threshold {self.model.attach_threshold_kpa} kPa")
        slip = slip_model(config.tangential_load_n, self.capacity_n, config.c_slip, config.s_max)
        if slip > 0.0 and step.body_advance_um > 0:
            self.slip_count += 1
        n = ticks_of(config.gait.advance_s)
        for share in split_um(round(step.body_advance_um * (1.0 - slip)), n):
            self.tick(share=share, slip=slip)


def reference_run(config):
    """Run `config` tick by tick. Return (ticks, summary): a ReferenceTick per
    tick, and a dict of fileio.summary_dict's fields plus failure_code."""
    script = generate_cycle(config.geometry, config.gait, config.limits)
    run = _Run(config)

    def ticks_of(duration_s):
        return max(1, round(duration_s / config.tick_s))

    failure = None, None, None
    try:
        if not all(grip(run.pressure, LEGS, run.model)[0].values()):
            raise _Ended(0, "attach_timeout", (
                f"attach timeout before the first step: the suction equilibrium "
                f"{run.model.equilibrium_kpa:.3f} kPa is above the attach threshold "
                f"{run.model.attach_threshold_kpa} kPa, so no cup grips"))
        for _ in range(config.cycles):
            for step in script.steps:
                run.step(step, ticks_of)
    except _Ended as ended:
        failure = ended.args
    duration_s = run.ticks * config.tick_s
    displacement_mm = run.body_um / 1000
    summary = {
        "angle_deg": config.climb_angle_deg,
        "cycles": config.cycles,
        "tick_s": config.tick_s,
        "ticks": run.ticks,
        "duration_s": duration_s,
        "displacement_mm": displacement_mm,
        "avg_speed_mm_s": displacement_mm / duration_s if duration_s > 0.0 else 0.0,
        "avg_power_w": run.energy_j / duration_s if duration_s > 0.0 else 0.0,
        "total_energy_j": run.energy_j,
        "slip_count": run.slip_count,
        "completed": failure[0] is None,
        "failure_tick": failure[0],
        "failure_reason": failure[2],
        "failure_code": failure[1],
    }
    return run.records, summary

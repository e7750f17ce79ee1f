"""Fixed-tick scenario runner: the full robot on an inclined platform.

A run executes the climbing cycle tick by tick. Every step goes
through four phases -- vent the swing cup, swing it to the next
foothold, pull vacuum until it grips (at most pneumatics.ATTACH_DWELLS
dwells, or the run ends with attach_timeout), then advance the body --
with phase durations taken from the config and rounded to whole ticks.

Gravity along the wall loads the attached cups tangentially. When the
load approaches the friction-limited holding capacity part of each
commanded body advance is lost to slip; when it exceeds capacity the
run ends on that tick (the report is marked incomplete rather than
raising).

Runs are bit-for-bit deterministic: no wall clock, fixed iteration
order, and the seed only feeds the optional pressure-trace jitter,
which is off by default.
"""

import math
import random
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .errors import ClimberError, ZeroCapacity, require_finite, require_int
from .gait import (
    LEG_IDS,
    GaitParams,
    generate_cycle,
    split_um,
    swing_waypoint,
    um_to_mm,
)
from .kinematics import JointLimits, LegGeometry, pose_memo, solve_leg
from .pneumatics import (
    ATTACH_DWELLS,
    DEFAULT_PUMP_LEGS,
    AdhesionModel,
    PneumaticState,
    Valve,
    assign_pumps,
    grip,
    relax,
    suction_decay,
    vent,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one deterministic run needs.

    The power/slip calibration values (servo and pump draw, lift
    efficiency, slip gain and cap, robot mass) are desk-scale defaults,
    not measurements; they reproduce the qualitative speed/power trends
    against climb angle, not absolute numbers. It is frozen, so no field
    changes past its check, and `pump_legs` is stored as a read-only
    mapping, so neither do its entries.
    """

    climb_angle_deg: float = 0.0
    mass_kg: float = 2.0
    gravity_m_s2: float = 9.81
    cycles: int = 3
    tick_s: float = 0.01
    geometry: LegGeometry = field(default_factory=LegGeometry)
    gait: GaitParams = field(default_factory=GaitParams)
    adhesion: AdhesionModel = field(default_factory=AdhesionModel)
    pump_legs: Mapping = field(default_factory=lambda: dict(DEFAULT_PUMP_LEGS))
    limits: JointLimits = None
    servo_power_w: float = 6.0
    pump_power_w: float = 5.0
    lift_efficiency: float = 0.25
    c_slip: float = 0.3
    s_max: float = 0.9
    seed: int = 0
    noise_kpa: float = 0.0

    def __post_init__(self):
        require_finite(self, "climb_angle_deg", "mass_kg", "gravity_m_s2", "tick_s",
                       "servo_power_w", "pump_power_w", "lift_efficiency", "c_slip", "s_max",
                       "noise_kpa")
        require_int(self, "cycles", "seed")
        for name, kind in (("geometry", LegGeometry), ("gait", GaitParams),
                           ("adhesion", AdhesionModel)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be an instance of {kind.__name__}, got {value!r}")
        if not isinstance(self.limits, (JointLimits, type(None))):
            raise ValueError(f"limits must be None or a JointLimits, got {self.limits!r}")
        try:  # a wrong assignment of legs raises its own ValueError
            pump_of_leg = isinstance(self.pump_legs, Mapping) and assign_pumps(self.pump_legs)
        except TypeError:  # a pump whose legs are not a collection of leg ids
            pump_of_leg = None
        if not pump_of_leg:
            raise ValueError(f"pump_legs must be a mapping of pump -> legs, "
                             f"got {self.pump_legs!r}")
        object.__setattr__(self, "pump_legs", MappingProxyType(dict(self.pump_legs)))
        if not 0.0 <= self.climb_angle_deg <= 90.0:
            raise ValueError(f"climb_angle_deg must be in [0, 90], got {self.climb_angle_deg}")
        if self.mass_kg <= 0.0:
            raise ValueError(f"mass_kg must be > 0, got {self.mass_kg}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.tick_s <= 0.0:
            raise ValueError(f"tick_s must be > 0, got {self.tick_s}")
        if not 0.0 < self.lift_efficiency <= 1.0:
            raise ValueError(f"lift_efficiency must be in (0, 1], got {self.lift_efficiency}")
        if self.c_slip < 0.0 or not 0.0 <= self.s_max < 1.0:
            raise ValueError("need c_slip >= 0 and 0 <= s_max < 1")
        if self.noise_kpa < 0.0:
            raise ValueError(f"noise_kpa must be >= 0, got {self.noise_kpa}")

    @property
    def climb_angle_rad(self):
        return math.radians(self.climb_angle_deg)

    @property
    def tangential_load_n(self):
        """Gravity component along the wall, carried by the attached cups."""
        return self.mass_kg * self.gravity_m_s2 * math.sin(self.climb_angle_rad)


def slip_model(load_tangential_n, capacity_tangential_n, c_slip=0.3, s_max=0.9):
    """Fraction of commanded body advance lost to cup slip.

    Linear in load/capacity with gain c_slip, clamped to [0, s_max).
    Zero load slips nothing; zero capacity under load is an error.
    """
    if load_tangential_n <= 0.0:
        return 0.0
    if capacity_tangential_n <= 0.0:
        raise ZeroCapacity(
            f"tangential load {load_tangential_n:.3f} N with zero holding capacity"
        )
    return min(c_slip * (load_tangential_n / capacity_tangential_n), s_max)


def power_model(config, speed_mm_s, active_pumps):
    """Instantaneous electrical draw in watts.

    Servo idle draw, plus the running pumps, plus the mechanical lift
    rate m*g*sin(angle)*v scaled by the drivetrain efficiency.
    """
    lift_w = (config.mass_kg * config.gravity_m_s2
              * math.sin(config.climb_angle_rad)
              * (speed_mm_s / 1000.0)) / config.lift_efficiency
    return config.servo_power_w + active_pumps * config.pump_power_w + lift_w


@dataclass
class TickRecord:
    """State snapshot at the end of one tick.

    Not frozen: a run builds a new record for every tick, replayed ticks
    included, and never reads one back once emitted, so a sink may keep or
    change the ones it is given. Records share only frozen JointAngles and
    the read-only dicts below.

    Consecutive ticks of one phase in which no leg moved share one `angles`
    dict, and the ticks of one phase share one `valve` dict. Once per cycle
    the run compares the cycle's start state (cup pressure bits and
    body-frame footholds) with the previous cycle's; on a match it replays
    the previous cycle, at most one cycle of ticks, to the end of the run,
    so a replay can start a cycle after the first step that repeats.
    Replayed ticks share the `angles`, `valve`, `pressure_kpa` and
    `attached` dicts of the ticks they repeat. Treat all four as read-only.
    A sink with fileio.series_csv_sink's `cycle` hook gets no record for a
    replayed tick of a noise-free run (see run_scenario).
    """

    t_s: float
    body_mm: float
    angles: dict       # leg -> JointAngles
    valve: dict        # leg -> Valve
    pressure_kpa: dict
    attached: dict     # leg -> bool
    power_w: float
    slip: float


@dataclass
class SimReport:
    """Per-tick series plus run summary.

    `records` holds the ticks only when the run had no sink; `ticks`
    counts them either way. `failure_code` is None on success, else
    `attach_timeout` or `adhesion_overload`; it tells apart two runs that
    both fail at tick 0, and `summary.json` leaves it out.
    """

    climb_angle_deg: float
    cycles: int
    tick_s: float
    records: list
    displacement_mm: float
    duration_s: float
    average_speed_mm_s: float
    average_power_w: float
    total_energy_j: float
    slip_count: int
    completed: bool
    failure_tick: int = None
    failure_code: str = None
    failure_reason: str = None
    ticks: int = 0


def run_scenario(config, sink=None):
    """Run one scenario and return its SimReport. The run follows the
    GaitScript that generate_cycle plans from the config's gait, geometry
    and joint limits, and reads z, k, lift and elbow branch from it.

    Each tick's TickRecord is passed to `sink` when one is given, and the
    report's `records` stays empty; without a sink the records are
    collected in `records`. A noise-free run whose sink has a `cycle` hook
    (fileio.series_csv_sink's sink) calls `sink.cycle()` before each cycle
    it computes, and instead of the records of each cycle it replays calls
    `sink.cycle(times, bodies)` with that cycle's t_s and body_mm values,
    computed as for the records; every other sink, and every sink of a
    noisy run, gets each tick's TickRecord. A run whose sink is `_drop`
    builds no TickRecord and draws no pressure jitter; its `ticks` and
    energy are counted as before, so its summary is the same. Such a run
    without joint limits reads no joint angle and cannot fail on reach
    (validate checks every pose the plan commands), so it neither solves,
    checks nor builds a pose: no stance dict, swing waypoint or angles
    dict; every other run solves its poses through pose_memo. Each computed
    tick grips once, through pneumatics.grip, from the legs that the
    phase keeps under suction and that tick's pressures.
    Deterministic for a given config. Overload and attach timeouts mark
    the report completed=False (with failing tick, code and reason)
    instead of raising; planning errors (bad stance, unreachable
    footholds) raise.
    """
    gait = config.gait
    model = config.adhesion
    tick = config.tick_s
    load_n = config.tangential_load_n
    script = generate_cycle(config.geometry, gait, config.limits)
    z_mm = script.z_mm
    n_ticks = {phase: max(1, round(duration_s / tick)) for phase, duration_s in (
        ("vent", model.vent_s), ("swing", gait.swing_s), ("attach", model.dwell_s),
        ("advance", gait.advance_s))}

    p_eq = model.equilibrium_kpa
    decay = suction_decay(model, tick)
    pstate = PneumaticState.initial(config.pump_legs)
    pressure = pstate.pressure_kpa
    for leg in LEG_IDS:
        pstate.valve[leg] = Valve.SUCTION
        pressure[leg] = p_eq
    active_pumps = sum(1 for on in pstate.pump_on.values() if on)
    idle_power = power_model(config, 0.0, active_pumps)

    rng = random.Random(config.seed)
    jitter = config.noise_kpa

    wall_um = dict(script.initial.points_um)
    body_um = 0
    records = []
    emit = records.append if sink is None else sink
    keep = sink is not _drop  # whether anything reads the TickRecords
    # A sink that writes replayed cycles whole (fileio.series_csv_sink's); a
    # noisy run draws jitter for each replayed tick, so it emits them all.
    cycle_hook = None if jitter > 0.0 else getattr(sink, "cycle", None)
    ticks = 0
    energy_j = 0.0
    slip_count = 0

    # Without records or joint limits nothing reads the angles, and the plan has
    # checked every pose's reach, so such a run builds no pose: its angles are None.
    posed = keep or config.limits is not None
    if posed:  # the gait revisits the same few poses every cycle, so ticks share them
        pose = pose_memo(solve_leg, config.geometry, script.k_rad, script.branch, config.limits)

    def stance_pose():
        """Every leg on its foothold; None in a run that builds no pose."""
        return {leg: pose(um_to_mm(wall_um[leg][0]), um_to_mm(wall_um[leg][1] - body_um), z_mm)
                for leg in LEG_IDS} if posed else None

    # What a cycle reads that can differ from one cycle to the next: the exact
    # bits of the cup pressures (0.0 and -0.0 stay apart) and the footholds in
    # the body frame. Every valve is on suction between steps, the rest is
    # fixed for the run (n_ticks, p_eq, decay, idle_power, load_n, the pumps),
    # and `cap` does not carry over: each phase grips before it reads it.
    def cycle_state():
        return (struct.pack("<4d", *(pressure[leg] for leg in LEG_IDS)),
                tuple((wall_um[leg][0], wall_um[leg][1] - body_um) for leg in LEG_IDS))

    def record(frame):
        """Emit a computed or replayed tick from its frame: the body share in um (already
        applied), then the TickRecord fields after body_mm, with noiseless pressures
        (None when nothing reads the records)."""
        nonlocal energy_j, ticks
        _, angles, valves, pressures, attached, power, slip = frame
        energy_j += power * tick
        ticks += 1
        if not keep:
            return
        if jitter > 0.0:
            pressures = {leg: p + rng.uniform(-jitter, jitter) for leg, p in pressures.items()}
        emit(TickRecord(ticks * tick, um_to_mm(body_um), angles, valves, pressures, attached,
                        power, slip))

    def climb():
        """Run the ticks. Return (failure_tick, failure_code, reason) where the
        run fails, or (None, None, None) when every cycle completes."""
        nonlocal body_um, slip_count, energy_j, ticks
        # Every cup starts under suction at the suction equilibrium; if that
        # does not pass the attach threshold, no cup can ever grip.
        if not all(grip(pressure, LEG_IDS, model)[0].values()):
            return 0, "attach_timeout", (
                f"attach timeout before the first step: the suction equilibrium "
                f"{p_eq:.3f} kPa is above the attach threshold "
                f"{model.attach_threshold_kpa} kPa, so no cup grips")

        cap = 0.0  # tangential capacity at the end of the last tick
        # Once the cup pressures settle, each cycle repeats the one before it tick
        # for tick. A cycle that starts in the state the previous cycle started in
        # ends in it too, so the remaining cycles replay the previous one's frames.
        start = None
        per_cycle = len(script.steps)
        for count, step in enumerate(script.steps * config.cycles):
            if count % per_cycle == 0:
                previous, start = start, cycle_state()
                if start == previous:
                    cycles_left = config.cycles - count // per_cycle
                    for _ in range(cycles_left):
                        if cycle_hook is None:
                            for frame in frames:
                                body_um += frame[0]
                                record(frame)
                            continue
                        times, bodies = [], []
                        for frame in frames:  # record()'s sums and fields, in its order
                            body_um += frame[0]
                            energy_j += frame[5] * tick
                            ticks += 1
                            times.append(ticks * tick)
                            bodies.append(um_to_mm(body_um))
                        cycle_hook(times, bodies)
                    slip_count += (slip_count - slips) * cycles_left
                    break
                frames, slips = [], slip_count
                if cycle_hook is not None:
                    cycle_hook()
            leg = step.swing_leg
            old_bf = (um_to_mm(wall_um[leg][0]), um_to_mm(wall_um[leg][1] - body_um))
            new_bf = step.new_foothold_mm

            plan = ["vent", "swing", *["attach"] * ATTACH_DWELLS, "advance"]
            while plan:
                phase = plan.pop(0)
                n = n_ticks[phase]
                speed = slip = 0.0
                stance = stance_pose()
                if phase == "advance":  # the pneumatics have not changed since the last tick
                    slip = slip_model(load_n, cap, config.c_slip, config.s_max)
                    shares = split_um(round(step.body_advance_um * (1.0 - slip)), n)
                    if slip > 0.0 and step.body_advance_um > 0:
                        slip_count += 1
                else:
                    pstate.valve[leg] = Valve.SUCTION if phase == "attach" else Valve.VENT
                    foothold = new_bf if phase == "attach" else old_bf
                    angles = {**stance, leg: pose(*foothold, z_mm)} if posed else None
                    if phase == "vent":
                        vent_p0 = pressure[leg]
                    elif phase == "swing":
                        pressure[leg] = 0.0
                valves = dict(pstate.valve)
                relaxing = [other for other in LEG_IDS if pstate.under_suction(other)]

                for j in range(n):
                    share = 0
                    for other in relaxing:
                        pressure[other] = relax(pressure[other], p_eq, decay)
                    if phase == "vent":
                        pressure[leg] = vent(vent_p0, (j + 1) / n)
                    elif phase == "swing" and posed:
                        waypoint = swing_waypoint(old_bf, new_bf, (j + 1) / n, z_mm, script.lift_mm)
                        angles = {**stance, leg: pose(*waypoint)}
                    elif phase == "advance":
                        share = shares[j]
                        body_um += share
                        if share and posed:
                            stance = stance_pose()
                        angles = stance
                        speed = um_to_mm(share) / tick

                    attached, _, cap = grip(pressure, relaxing, model)
                    power = power_model(config, speed, active_pumps) if speed else idle_power
                    pressures = {other: pressure[other] for other in LEG_IDS} if keep else None
                    frames.append((share, angles, valves, pressures, attached, power, slip))
                    record(frames[-1])

                    if load_n > cap:
                        return ticks - 1, "adhesion_overload", (
                            f"adhesion overload: tangential load "
                            f"{load_n:.3f} N > holding capacity {cap:.3f} N")

                if phase == "attach":
                    if attached[leg]:  # the grip of the attach's last tick
                        wall_um[leg] = (step.new_foothold_um[0], step.new_foothold_um[1] + body_um)
                        del plan[:plan.count("attach")]  # the dwells left
                    elif plan[0] != "attach":
                        return ticks - 1, "attach_timeout", (
                            f"attach timeout on leg {leg}: "
                            f"{pressure[leg]:.3f} kPa above threshold "
                            f"{model.attach_threshold_kpa} kPa")
        return None, None, None

    failure_tick, failure_code, failure_reason = climb()
    duration_s = ticks * tick
    displacement_mm = um_to_mm(body_um)
    avg_speed = displacement_mm / duration_s if duration_s > 0.0 else 0.0
    avg_power = energy_j / duration_s if duration_s > 0.0 else 0.0
    return SimReport(
        climb_angle_deg=config.climb_angle_deg,
        cycles=config.cycles,
        tick_s=tick,
        records=records,
        displacement_mm=displacement_mm,
        duration_s=duration_s,
        average_speed_mm_s=avg_speed,
        average_power_w=avg_power,
        total_energy_j=energy_j,
        slip_count=slip_count,
        completed=failure_tick is None,
        failure_tick=failure_tick,
        failure_code=failure_code,
        failure_reason=failure_reason,
        ticks=ticks,
    )


@dataclass(frozen=True)
class SweepRow:
    angle_deg: float
    avg_speed_mm_s: float
    avg_power_w: float
    completed: bool


def _drop(_record):
    """Sink for runs whose ticks nobody reads. run_scenario never calls it: a
    run given this sink builds no TickRecord, and still counts its ticks and
    energy."""


def sweep_climb_angle(base, angles_deg):
    """Run the base scenario once per climb angle.

    Returns rows sorted by angle. A failed angle (incomplete run or a
    planning error) is flagged in its row instead of aborting the sweep.
    """
    if not angles_deg:
        raise ValueError("at least one climb angle is required")
    for angle in angles_deg:
        if not 0.0 <= angle <= 90.0:
            raise ValueError(f"climb angle {angle} outside [0, 90] deg")

    rows = []
    for angle in angles_deg:
        config = replace(base, climb_angle_deg=angle)
        try:
            report = run_scenario(config, sink=_drop)
            rows.append(SweepRow(angle, report.average_speed_mm_s,
                                 report.average_power_w, report.completed))
        except ClimberError:
            rows.append(SweepRow(angle, float("nan"), float("nan"), False))
    rows.sort(key=lambda row: row.angle_deg)
    return rows

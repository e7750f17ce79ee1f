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
from functools import reduce
from itertools import accumulate
from operator import add
from types import MappingProxyType

from .errors import ClimberError, ZeroCapacity, check_fields
from .gait import (
    ADVANCE_PER_CYCLE,
    LEG_IDS,
    GaitParams,
    generate_cycle,
    mm_to_um,
    split_um,
    swing_waypoint,
    um_to_mm,
)
from .kinematics import JointLimits, LegGeometry, pose_memo, solve_leg
from .pneumatics import (
    ATTACH_DWELLS,
    DEFAULT_PUMP_LEGS,
    AdhesionModel,
    Valve,
    assign_pumps,
    grip,
    relax,
    suction_decay,
    vent,
)

# The most ticks a ScenarioConfig's run may take: cycles x steps x the ticks
# of a step's vent, swing, ATTACH_DWELLS dwells and advance. A run that keeps
# records holds up to about 1.6 KB a tick, a sweep about 0.35 KB.
MAX_RUN_TICKS = 1_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one deterministic run needs.

    The power/slip calibration values (servo and pump draw, lift
    efficiency, slip gain and cap, robot mass) are desk-scale defaults,
    not measurements; they reproduce the qualitative speed/power trends
    against climb angle, not absolute numbers. Building one checks each
    field against its type first (errors.check_fields: `limits` may be
    None), then `pump_legs` and the ranges. It is frozen, so no field
    changes past its check, and `pump_legs` is stored as a read-only
    mapping, so neither do its entries.

    Building it also turns each phase duration into whole ticks,
    max(1, round(duration / tick_s)), once for the run: the read-only
    `_phase_ticks` maps "vent", "swing", "attach" (one dwell) and "advance"
    to their counts, and the pneumatic pass reads them from there.
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
        check_fields(self)
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
        if not (self.mass_kg > 0.0 and math.isfinite(self.mass_kg * self.gravity_m_s2)):
            raise ValueError(f"mass_kg must be > 0 and keep mass_kg x gravity_m_s2 finite, got "
                             f"{self.mass_kg} x {self.gravity_m_s2}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.tick_s <= 0.0:
            raise ValueError(f"tick_s must be > 0, got {self.tick_s}")
        phase_ticks = {}
        for phase, owner, name in (
                ("vent", self.adhesion, "vent_s"), ("swing", self.gait, "swing_s"),
                ("attach", self.adhesion, "dwell_s"), ("advance", self.gait, "advance_s")):
            ratio = getattr(owner, name) / self.tick_s
            if not math.isfinite(ratio):
                raise ValueError(f"{name} / tick_s must be finite, got {getattr(owner, name)} / "
                                 f"{self.tick_s}")
            phase_ticks[phase] = max(1, round(ratio))
        object.__setattr__(self, "_phase_ticks", MappingProxyType(phase_ticks))
        run_ticks = self.cycles * len(self.gait.order) * (  # at most, if every attach dwells twice
            sum(phase_ticks.values()) + (ATTACH_DWELLS - 1) * phase_ticks["attach"])
        if run_ticks > MAX_RUN_TICKS:
            raise ValueError(f"cycles x ticks per cycle must be at most {MAX_RUN_TICKS}, got "
                             f"{self.cycles} cycles of {len(self.gait.order)} x (vent_s + swing_s "
                             f"+ {ATTACH_DWELLS} x dwell_s + advance_s) / tick_s ticks, tick_s = "
                             f"{self.tick_s}")
        run_s = run_ticks * self.tick_s  # the longest the run lasts
        if not math.isfinite(run_s):
            raise ValueError(f"tick_s must be short enough that {run_ticks} ticks last a finite "
                             f"time, got {self.tick_s}")
        if self.gravity_m_s2 <= 0.0:
            raise ValueError(f"gravity_m_s2 must be > 0, got {self.gravity_m_s2}")
        if not 0.0 < self.lift_efficiency <= 1.0:
            raise ValueError(f"lift_efficiency must be in (0, 1], got {self.lift_efficiency}")
        # the most the body advances in one tick, in um: the largest advance of a
        # step (a whole step length per cycle, else its share) split over the
        # advance ticks, rounded up as split_um rounds its largest share
        steps = 1 if self.gait.advance_mode == ADVANCE_PER_CYCLE else len(self.gait.order)
        share_um = -(-mm_to_um(self.gait.step_length_mm) // (steps * phase_ticks["advance"]))
        energy_j = 0.0  # the most the run can draw: each draw's energy over the longest run
        for name, watts in (("servo_power_w", self.servo_power_w),
                            ("pump_power_w", len(self.pump_legs) * self.pump_power_w),
                            ("lift_efficiency", self.tangential_load_n * (  # as power_model
                                um_to_mm(share_um) / self.tick_s / 1000.0) / self.lift_efficiency)):
            energy_j += watts * run_s
            if not (watts >= 0.0 and energy_j < math.inf):
                raise ValueError(f"{name} must be set so draws are >= 0 and the energy finite, got "
                                 f"{getattr(self, name)}: {watts} W over at most {run_s} s")
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
    `attached` dicts of the ticks they repeat. The pneumatic pass replays on
    its own once the pressure bits repeat, so the ticks of a cycle computed
    after that share the `valve`, `pressure_kpa` and `attached` dicts of the
    cycle before it. Treat all four as read-only.
    A sink with fileio.series_csv_sink's `cycle` hook gets no record for a
    replayed tick of a noise-free run (see run_scenario). The `valve`,
    `pressure_kpa` and `attached` dicts list the legs 1..4 in order.
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


def _pneumatics(config, script, keep):
    """Yield the cup pneumatics of a run phase by phase, then how the pass ends.

    Nothing here reads the climb angle, the mass, the body position or the
    jitter, so the angles of a sweep share one pass. Each phase comes as
    (start, step, phase, valves, grips, low): `start` holds the exact bits of
    the cup pressures (0.0 and -0.0 apart) when the phase's cycle started,
    `grips` each tick's (attached, tangential capacity, pressures), the
    pressures dict only when `keep`, and `low` the phase's lowest capacity,
    which tells every angle of a sweep whether its load overloads the phase.
    Every valve is on suction between steps, so a cycle that starts in the
    bits the previous cycle started in repeats it: the pass yields that
    cycle's phases again, the same tuples, once for every cycle left. It
    holds one cycle of phases. The last item is (failure_tick,
    "attach_timeout", reason) for a cup that never grips, else (None, None,
    None).

    Each phase runs the ticks that the config counted for it when it was
    built (ScenarioConfig._phase_ticks); the pass rounds no duration itself.
    The pass keeps the valves and the cup pressures in two dicts keyed by
    leg, 1..4 in order, whatever order `pump_legs` lists them in. Every pump
    runs for the whole run, so the legs under suction, whose cups relax and
    may grip, are those whose valve is on suction.
    """
    model = config.adhesion
    p_eq = model.equilibrium_kpa
    decay = suction_decay(model, config.tick_s)
    # Every cup starts under suction at the suction equilibrium; if that
    # does not pass the attach threshold, no cup can ever grip.
    valve = {leg: Valve.SUCTION for leg in LEG_IDS}
    pressure = {leg: p_eq for leg in LEG_IDS}
    if not all(grip(pressure, LEG_IDS, model)[0].values()):
        yield 0, "attach_timeout", (
            f"attach timeout before the first step: the suction equilibrium "
            f"{p_eq:.3f} kPa is above the attach threshold "
            f"{model.attach_threshold_kpa} kPa, so no cup grips")
        return

    ticks = 0
    start = None
    for count in range(config.cycles):
        previous, start = start, struct.pack("<4d", *(pressure[leg] for leg in LEG_IDS))
        if start == previous:
            for _ in range(config.cycles - count):
                yield from held
            break
        held = []
        for step in script.steps:
            leg = step.swing_leg
            plan = ["vent", "swing", *["attach"] * ATTACH_DWELLS, "advance"]
            while plan:
                phase = plan.pop(0)
                n = config._phase_ticks[phase]
                if phase != "advance":
                    valve[leg] = Valve.SUCTION if phase == "attach" else Valve.VENT
                    if phase == "vent":
                        vent_p0 = pressure[leg]
                    elif phase == "swing":
                        pressure[leg] = 0.0
                valves = dict(valve)
                relaxing = [other for other in LEG_IDS if valve[other] is Valve.SUCTION]
                grips = []
                for j in range(n):
                    for other in relaxing:
                        pressure[other] = relax(pressure[other], p_eq, decay)
                    if phase == "vent":
                        pressure[leg] = vent(vent_p0, (j + 1) / n)
                    attached, _, cap = grip(pressure, relaxing, model)
                    pressures = dict(pressure) if keep else None
                    grips.append((attached, cap, pressures))
                held.append((start, step, phase, valves, grips, min(g[1] for g in grips)))
                yield held[-1]
                ticks += n

                if phase == "attach":
                    if attached[leg]:  # the grip of the attach's last tick
                        del plan[:plan.count("attach")]  # the dwells left
                    elif plan[0] != "attach":
                        yield ticks - 1, "attach_timeout", (
                            f"attach timeout on leg {leg}: "
                            f"{pressure[leg]:.3f} kPa above threshold "
                            f"{model.attach_threshold_kpa} kPa")
                        return
    yield None, None, None


def run_scenario(config, sink=None):
    """Run one scenario and return its SimReport. The run follows the
    GaitScript that generate_cycle plans from the config's gait, geometry
    and joint limits, and reads z, k, lift and elbow branch from it.

    A run makes two passes, phase by phase. The pneumatic pass
    (_pneumatics) switches the valves, moves the cup pressures and grips
    once per tick, through pneumatics.grip, from the legs that the phase
    keeps under suction; it reads no angle, mass or body position. The
    motion pass (_run) works a phase at a time: it splits the phase's
    advance into per-tick shares once, computes the energy term power x tick
    once per distinct share and still adds it once per tick, in tick order,
    and finds an overload as the first tick whose holding capacity is below
    the load, which only a phase whose lowest capacity is below it has. A
    sweep runs the pneumatic pass once for all its angles and each angle's
    motion pass on its own (see sweep_climb_angle).

    Each tick's TickRecord, built from its phase's shares and energy terms,
    is passed to `sink` when one is given, and the report's `records` stays
    empty; without a sink the records are collected in `records`. A
    noise-free run whose sink has a `cycle` hook (fileio.series_csv_sink's
    sink) calls `sink.cycle()` before each cycle it computes, and instead of
    the records of each cycle it replays calls `sink.cycle(times, bodies)`
    with that cycle's t_s and body_mm values, computed as for the records;
    every other sink, and every sink of a noisy run, gets each tick's
    TickRecord. The run solves the poses of a phase through pose_memo
    before it passes on that phase's records, so a sink gets no record of
    the phase in which a pose fails its joint limits. Deterministic for a
    given config. Overload and attach timeouts mark the report
    completed=False (with failing tick, code and reason) instead of raising;
    planning errors (bad stance, unreachable footholds) raise.
    """
    return _run(config, sink)


def _run(config, sink=None, shared=None, keep=True):
    """Run one scenario as run_scenario does. A run that does not `keep` its
    records (a sweep's angle) builds no TickRecord and draws no pressure
    jitter, and its summary is the same; without joint limits as well it
    reads no joint angle and cannot fail on reach (validate checks every
    pose the plan commands), so it builds no pose. `shared` is a sweep's
    plan and the items of its pneumatic pass, listed once for all angles.
    """
    if shared is None:
        script = generate_cycle(config.geometry, config.gait, config.limits)
        shared = script, _pneumatics(config, script, keep)
    script, pneumatics = shared
    tick = config.tick_s
    load_n = config.tangential_load_n
    z_mm = script.z_mm
    pumps = len(config.pump_legs)  # every pump runs the whole run
    idle = {0: power_model(config, 0.0, pumps)}  # a still tick's power

    rng = random.Random(config.seed)
    jitter = config.noise_kpa

    wall_um = dict(script.initial.points_um)
    body_um = 0
    records = []
    emit = records.append if sink is None else sink
    # A sink that writes replayed cycles whole (fileio.series_csv_sink's); a
    # noisy run draws jitter for each replayed tick, so it emits them all.
    cycle_hook = None if jitter > 0.0 else getattr(sink, "cycle", None)
    ticks = 0
    energy_j = 0.0
    slip_count = 0

    # Without records or joint limits nothing reads the angles, and the plan has
    # checked every pose's reach, so such a run builds no pose.
    posed = keep or config.limits is not None
    # the gait revisits the same few poses every cycle, so ticks share them
    pose = pose_memo(solve_leg, config.geometry, script.k_rad, script.branch, config.limits)

    def stance_pose(body):
        """Every leg on its foothold with the body at `body` um."""
        return {leg: pose(um_to_mm(wall_um[leg][0]), um_to_mm(wall_um[leg][1] - body), z_mm)
                for leg in LEG_IDS}

    def poses(step, phase, shares, n):
        """The angles of the first len(shares) ticks of an n-tick phase. Ticks in
        which no leg moved share one dict."""
        leg, stance = step.swing_leg, stance_pose(body_um)
        if phase == "swing":
            old_bf = (um_to_mm(wall_um[leg][0]), um_to_mm(wall_um[leg][1] - body_um))
            return [{**stance, leg: pose(*swing_waypoint(old_bf, step.new_foothold_mm,
                                                         (j + 1) / n, z_mm, script.lift_mm))}
                    for j in range(len(shares))]
        if phase == "attach":  # the swing leg's cup on its new foothold
            stance = {**stance, leg: pose(*step.new_foothold_mm, z_mm)}
        angles, body = [], body_um
        for share in shares:  # only an advance moves the body, and the stance with it
            body += share
            if share:
                stance = stance_pose(body)
            angles.append(stance)
        return angles

    def apply(moved, terms, frame):
        """Add a phase's ticks to the run: the body moves `moved` um, and the
        energy adds each tick's term in tick order, in C. `frame`, (shares,
        angles, valves, grips, slip, power), gives each tick's TickRecord."""
        nonlocal body_um, energy_j, ticks
        if frame is not None:
            shares, angles, valves, grips, slip, power = frame
            body, t = body_um, ticks
            for share, angles_now, (attached, _, kpa) in zip(shares, angles, grips):
                body, t = body + share, t + 1
                if jitter > 0.0:
                    kpa = {leg: p + rng.uniform(-jitter, jitter) for leg, p in kpa.items()}
                emit(TickRecord(t * tick, um_to_mm(body), angles_now, valves, kpa, attached,
                                power[share], slip))
        body_um += moved
        energy_j = reduce(add, terms, energy_j)
        ticks += len(terms)

    def climb():
        """Run the phases. Return (failure_tick, failure_code, reason) where the
        run fails, or (None, None, None) when every cycle completes."""
        nonlocal slip_count
        # What a cycle reads that can differ from one cycle to the next: the
        # pressure bits at its start and the footholds in the body frame. The
        # rest is fixed for the run (the phases' valves, idle, load_n), and
        # `cap` does not carry over: each phase grips before it reads it. A cycle
        # that starts in the state the previous cycle started in ends in it too,
        # so the remaining cycles replay the previous one's phases.
        state = None
        cycles_left = config.cycles
        for item in pneumatics:
            if len(item) == 3:  # the end of the pneumatic pass
                return item
            start, step, phase, valves, grips, low = item
            if phase == "vent" and step is script.steps[0]:  # a cycle starts
                previous, state = state, (start, tuple(
                    (wall_um[other][0], wall_um[other][1] - body_um) for other in LEG_IDS))
                if state == previous:
                    if cycle_hook is not None:  # the body's offset at each tick of the cycle
                        rises = list(accumulate(share for *_, frame in held for share in frame[0]))
                    for _ in range(cycles_left):
                        if cycle_hook is not None:
                            cycle_hook([t * tick for t in range(ticks + 1, ticks + len(rises) + 1)],
                                       [um_to_mm(body_um + rise) for rise in rises])
                        for moved, terms, frame in held:
                            apply(moved, terms, None if cycle_hook else frame)
                    slip_count += (slip_count - slips) * cycles_left
                    return None, None, None
                cycles_left -= 1
                held, slips = [], slip_count
                if cycle_hook is not None:
                    cycle_hook()

            n = len(grips)
            # the ticks the phase runs: up to the first whose capacity is below the load
            stop = n if load_n <= low else 1 + next(j for j, g in enumerate(grips) if load_n > g[1])
            slip, shares, power, terms = 0.0, [0] * stop, idle, [idle[0] * tick] * stop
            if phase == "advance":  # the pneumatics have not changed since the last tick
                slip = slip_model(load_n, cap, config.c_slip, config.s_max)
                shares = split_um(round(step.body_advance_um * (1.0 - slip)), n)[:stop]
                if slip > 0.0 and step.body_advance_um > 0:
                    slip_count += 1
                power = {s: power_model(config, um_to_mm(s) / tick, pumps) for s in {*shares}}
                term = {share: watts * tick for share, watts in power.items()}
                terms = [term[share] for share in shares]
            angles = poses(step, phase, shares, n) if posed else None
            held.append((sum(shares), terms,
                         (shares, angles, valves, grips, slip, power) if keep else None))
            apply(*held[-1])
            if load_n > low:
                return ticks - 1, "adhesion_overload", (
                    f"adhesion overload: tangential load "
                    f"{load_n:.3f} N > holding capacity {grips[stop - 1][1]:.3f} N")

            # the grip of the phase's last tick; the next advance reads its capacity
            leg, (attached, cap, _) = step.swing_leg, grips[-1]
            if phase == "attach" and attached[leg]:
                wall_um[leg] = (step.new_foothold_um[0], step.new_foothold_um[1] + body_um)

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


def sweep_climb_angle(base, angles_deg):
    """Run the base scenario once per climb angle, each through run_scenario.

    Neither the plan nor the cup pneumatics read the angle, so the sweep
    plans and runs the pneumatic pass once, with each phase's lowest holding
    capacity, and hands the plan and the listed pass to every angle's motion
    pass (_run), which keeps no record. An angle then costs a few sums per
    phase: its slip, body motion, power, energy and overload check, and its
    row equals that of a run made on its own. Returns rows sorted by angle.
    A failed angle (incomplete run or a planning error) is flagged in its
    row instead of aborting the sweep. Every angle's ScenarioConfig is built
    before any angle runs, so an angle that config refuses (outside [0, 90],
    not a finite number, or one at which the lift power's energy overflows)
    raises its ValueError and no angle runs.
    """
    if not angles_deg:
        raise ValueError("at least one climb angle is required")
    configs = [replace(base, climb_angle_deg=angle) for angle in angles_deg]

    try:
        script = generate_cycle(base.geometry, base.gait, base.limits)
    except ClimberError:  # a planning error, the same at every angle
        shared = None
    else:
        shared = script, list(_pneumatics(base, script, keep=False))
    rows = []
    for angle, config in zip(angles_deg, configs):
        try:
            report = shared and _run(config, shared=shared, keep=False)
        except ClimberError:
            report = None
        rows.append(SweepRow(angle, report.average_speed_mm_s, report.average_power_w,
                             report.completed) if report else
                    SweepRow(angle, float("nan"), float("nan"), False))
    rows.sort(key=lambda row: row.angle_deg)
    return rows

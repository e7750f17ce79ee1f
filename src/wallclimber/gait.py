"""Climbing gait: one leg swings to a higher foothold while the other
three stay attached and carry the body.

A cycle is four steps, one swing per leg. Each step detaches the swing
leg, moves its cup one step length up the wall, re-attaches, and then
advances the body (either a quarter step after every swing, the
default crawl, or the whole step once per cycle).

All foothold and body positions are kept in integer micrometres so the
cycle-closure invariant -- after a full cycle the body has advanced
exactly one step length and the body-frame stance pattern is identical
to where it started -- holds exactly, with no float drift. Millimetre
floats appear only at the kinematics boundary.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (Fields, FrozenFields, KinematicsError, UnreachableFoothold, check_fields,
                     is_finite_real, is_int)
from .kinematics import (CupTarget, ElbowBranch, JointAngles, ik_normal_zy, ik_planar_xy,
                         reachable)

LEG_IDS = (1, 2, 3, 4)
UM_PER_MM = 1000

ADVANCE_PER_STEP = "per_step"
ADVANCE_PER_CYCLE = "per_cycle"
ADVANCE_MODES = (ADVANCE_PER_STEP, ADVANCE_PER_CYCLE)

# The most rows a GaitParams' joint table may have (samples_per_step x 4
# steps x 4 legs). The file writer streams them; a list-mode compile holds
# about 230 B a row.
MAX_TABLE_ROWS = 1_000_000


def mm_to_um(value_mm):
    return round(value_mm * UM_PER_MM)


def um_to_mm(value_um):
    return value_um / UM_PER_MM


def split_um(total_um, parts):
    """Split an integer micrometre distance into `parts` near-equal integer
    shares that sum exactly to the total."""
    q, r = divmod(total_um, parts)
    return [q + 1] * r + [q] * (parts - r)


@dataclass(eq=False, repr=False)
class FootholdMap(Fields):
    """A stance: each leg's cup contact point in the body frame.

    Every cup of a stance is on the wall; a plan detaches only its swing
    leg, one step at a time. Positions are integer micrometres; use
    from_mm()/point_mm() at the millimetre boundary.
    """

    points_um: dict

    def __post_init__(self):
        if sorted(self.points_um) != list(LEG_IDS):
            raise ValueError(f"foothold map must cover exactly legs {LEG_IDS}")
        self.points_um = {leg: (int(p[0]), int(p[1])) for leg, p in self.points_um.items()}

    @classmethod
    def from_mm(cls, points_mm):
        return cls({leg: (mm_to_um(p[0]), mm_to_um(p[1])) for leg, p in points_mm.items()})

    @classmethod
    def square_stance(cls, half_x_mm=80.0, half_y_mm=80.0):
        """Default symmetric stance: legs 1..4 at the corners of a rectangle,
        numbered counter-clockwise from front-left (+y is the climb direction)."""
        return cls.from_mm({
            1: (-half_x_mm, half_y_mm),
            2: (half_x_mm, half_y_mm),
            3: (half_x_mm, -half_y_mm),
            4: (-half_x_mm, -half_y_mm),
        })

    def point_mm(self, leg):
        x, y = self.points_um[leg]
        return um_to_mm(x), um_to_mm(y)

    def points_mm(self):
        return {leg: self.point_mm(leg) for leg in LEG_IDS}


@dataclass(frozen=True, eq=False, repr=False)
class GaitParams(FrozenFields):
    """Gait planning knobs for a scenario (mm, radians, seconds).

    The one place the gait's defaults and checks are written: generate_cycle
    and compile_joint_table plan from it as it is. Building one checks each
    field against its type first (errors.check_fields), then the stance, the
    ranges and the joint table's sampling (at most MAX_TABLE_ROWS rows, and
    a finite time at the last sample). It is
    frozen, so no field changes past its check, and `stance_mm` is stored as
    a read-only mapping of (x, y) tuples, so neither do its entries.
    """

    stance_mm: Mapping = field(default_factory=lambda: FootholdMap.square_stance().points_mm())
    step_length_mm: float = 40.0
    order: tuple = LEG_IDS
    lift_mm: float = 20.0
    z_mm: float = 100.0
    k_rad: float = math.pi / 2
    branch: ElbowBranch = ElbowBranch.PLUS
    samples_per_step: int = 10
    advance_mode: str = ADVANCE_PER_STEP
    swing_s: float = 0.6
    advance_s: float = 0.4

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.stance_mm, Mapping) or set(self.stance_mm) != set(LEG_IDS):
            raise ValueError(f"stance_mm must be a mapping keyed by {LEG_IDS}, "
                             f"got {self.stance_mm!r}")
        for leg, point in self.stance_mm.items():
            if not isinstance(point, (tuple, list)) or len(point) != 2:
                raise ValueError(f"stance_mm[{leg}] must be an (x, y) pair, got {point!r}")
            if not all(is_finite_real(c) for c in point):
                raise ValueError(f"stance_mm[{leg}] must be finite, got {point}")
            if not all(math.isfinite(c * UM_PER_MM) for c in point):  # mm_to_um would overflow
                raise ValueError(f"stance_mm[{leg}] must be finite in micrometres, got {point}")
        object.__setattr__(self, "stance_mm", MappingProxyType(
            {leg: tuple(point) for leg, point in self.stance_mm.items()}))
        if not math.isfinite(self.step_length_mm * UM_PER_MM):  # mm_to_um would overflow
            raise ValueError(f"step_length_mm must be finite in micrometres, "
                             f"got {self.step_length_mm}")
        if mm_to_um(self.step_length_mm) <= 0:  # plans keep whole micrometres
            raise ValueError(f"step_length_mm must be > 0 and round to at least 1 um, "
                             f"got {self.step_length_mm}")
        if self.advance_mode not in ADVANCE_MODES:
            raise ValueError(f"advance_mode must be one of {ADVANCE_MODES}")
        try:  # 4.0 sorts as 4, but a table would print it as 4.0
            permutation = sorted(self.order) == list(LEG_IDS) and all(map(is_int, self.order))
        except TypeError:  # not iterable, or legs that do not compare
            permutation = False
        if not permutation:
            raise ValueError(f"order must be a permutation of the int leg ids {LEG_IDS}, "
                             f"got {self.order}")
        samples, steps = self.samples_per_step, len(self.order)
        if samples < 2:
            raise ValueError(f"samples_per_step must be an integer >= 2, got {samples!r}")
        if samples * steps * len(LEG_IDS) > MAX_TABLE_ROWS:
            raise ValueError(f"samples_per_step x {steps} steps x {len(LEG_IDS)} legs must be at "
                             f"most {MAX_TABLE_ROWS} rows, got {samples}")
        if self.swing_s <= 0.0 or self.advance_s <= 0.0:
            raise ValueError("swing_s and advance_s must be > 0")
        if not math.isfinite((steps - 1 + (samples - 1) / samples)  # the table's last t_s
                             * (self.swing_s + self.advance_s)):
            raise ValueError(f"swing_s + advance_s must keep the joint table's last t_s finite, "
                             f"got {self.swing_s} + {self.advance_s}")
        if not 0.0 <= self.lift_mm <= self.z_mm:
            raise ValueError(
                f"lift_mm must lie in [0, z_mm], got lift={self.lift_mm} z={self.z_mm}"
            )


@dataclass(frozen=True, eq=False, repr=False)
class GaitStep(FrozenFields):
    """One swing: which leg moves, where its cup lands (body frame at the
    moment of re-attachment), and how far the body advances afterwards."""

    swing_leg: int
    new_foothold_um: tuple
    body_advance_um: int

    @property
    def new_foothold_mm(self):
        return um_to_mm(self.new_foothold_um[0]), um_to_mm(self.new_foothold_um[1])

    @property
    def body_advance_mm(self):
        return um_to_mm(self.body_advance_um)


@dataclass(frozen=True, eq=False, repr=False)
class GaitScript(FrozenFields):
    """A one-cycle plan with its start stance and its pose: the wall
    clearance z, the approach angle k, the swing lift and the elbow branch.

    generate_cycle returns one, and validate, replay, compile_joint_table
    and run_scenario read the stance and the pose only from it, so what they
    check, replay, compile and run is one plan. No field has a default: a
    plan names its whole pose. It is frozen, and building one checks each
    field against its type (errors.check_fields): z_mm, k_rad and lift_mm
    finite, step_length_um an int, initial a FootholdMap and branch an
    ElbowBranch. What else a plan needs, generate_cycle builds in: each leg
    swings once, no advance is negative, the advances sum to one step, the
    stance returns to `initial` and 0 <= lift_mm <= z_mm.
    """

    steps: list
    step_length_um: int
    initial: FootholdMap
    z_mm: float
    k_rad: float
    lift_mm: float
    branch: ElbowBranch

    def __post_init__(self):
        check_fields(self)


def generate_cycle(geom, gait, limits=None):
    """Build one climbing cycle from a GaitParams: from `gait.stance_mm`,
    each leg in `gait.order` swings one step length up the wall (+y), with
    the body advance split per `gait.advance_mode`. The script carries the
    gait's z, k, lift and elbow branch; the GaitParams checked all of these
    when it was built.

    So each leg swings once, no advance is negative and the cycle closes
    exactly, by construction. What is left to check is reach: the script
    goes through validate before it is returned, which raises
    UnreachableFoothold naming the leg and step of the first point out of
    reach.
    """
    footholds, order = FootholdMap.from_mm(gait.stance_mm), gait.order
    length_um = mm_to_um(gait.step_length_mm)
    if gait.advance_mode == ADVANCE_PER_STEP:
        advances = split_um(length_um, len(order))
    else:
        advances = [0] * (len(order) - 1) + [length_um]

    # Each leg swings once, from its starting foothold to one step length
    # further up the wall, less the body advance made before its swing.
    advanced_um = 0
    steps = []
    for leg, advance in zip(order, advances):
        x, y = footholds.points_um[leg]
        steps.append(GaitStep(leg, (x, y + length_um - advanced_um), advance))
        advanced_um += advance

    script = GaitScript(steps=steps, step_length_um=length_um, initial=footholds,
                        z_mm=gait.z_mm, k_rad=gait.k_rad, lift_mm=gait.lift_mm,
                        branch=gait.branch)

    validate(script, geom, limits=limits)
    return script


def validate(script, geom, limits=None):
    """Replay a script symbolically from its own start stance,
    `script.initial`, at its own z, k and lift, and raise
    UnreachableFoothold at the first commanded point outside the reachable
    workspace; return None when every point is inside.

    The points, in this order: each leg's initial foothold, then for each
    step the lifted mid-swing point, the swing end, where the swing crosses
    y = 0 its start's x at y = 0, and every leg's stance point after the
    advance. A swing starts at a stance point already checked. The error
    reads `[step S, leg L] unreachable: <point> (x, y) mm at z=Z mm:
    <reason>`, with no step for an initial foothold, and carries `leg` and
    `step` (-1 for an initial foothold).

    Every pose a run of a generate_cycle plan commands lies on a swing
    segment (a leg keeps its x; slip only shortens advances) at a clearance
    from z - lift to z. Its radius is largest at an end and smallest at
    y = 0, so a plan that passes here cannot fail on reach mid-run.
    """
    z, k_rad = script.z_mm, script.k_rad

    def check_reach(point_um, z_mm, step, leg, label):
        x, y = um_to_mm(point_um[0]), um_to_mm(point_um[1])
        ok, reason = reachable(geom, CupTarget(x, y, z_mm, k_rad), limits)
        if not ok:
            where = f"leg {leg}" if step < 0 else f"step {step}, leg {leg}"
            raise UnreachableFoothold(f"[{where}] unreachable: {label} ({x}, {y}) mm at "
                                      f"z={z_mm} mm: {reason}", leg=leg, step=step)

    for leg in LEG_IDS:
        check_reach(script.initial.points_um[leg], z, -1, leg, "initial foothold")

    stances = list(replay(script))
    for index, (step, before, after) in enumerate(zip(script.steps, stances, stances[1:])):
        leg = step.swing_leg
        old_bf = before[leg]
        new_bf = step.new_foothold_um
        mid_bf = ((old_bf[0] + new_bf[0]) // 2, (old_bf[1] + new_bf[1]) // 2)
        check_reach(mid_bf, z - script.lift_mm, index, leg, "lifted mid-swing point")
        check_reach(new_bf, z, index, leg, "swing end")
        if min(old_bf[1], new_bf[1]) < 0 < max(old_bf[1], new_bf[1]):
            check_reach((old_bf[0], 0), z, index, leg, "swing point nearest the shoulder")
        for other in LEG_IDS:
            check_reach(after[other], z, index, other, "stance point after advance")


def replay(script):
    """Walk a script from its start stance, `script.initial`. Yield the
    body-frame stance, leg -> (x, y) in integer micrometres, before each step
    and once more after the cycle; a closed cycle yields the start stance last."""
    wall_um = dict(script.initial.points_um)
    body_um = 0
    for step in script.steps:
        yield {leg: (wall_um[leg][0], wall_um[leg][1] - body_um) for leg in LEG_IDS}
        wall_um[step.swing_leg] = (step.new_foothold_um[0], step.new_foothold_um[1] + body_um)
        body_um += step.body_advance_um
    yield {leg: (wall_um[leg][0], wall_um[leg][1] - body_um) for leg in LEG_IDS}


def swing_waypoint(old_mm, new_mm, progress, z_mm, lift_mm):
    """Cup pose along a swing: straight line in the wall plane with a
    triangular lift toward the body, peaking at mid-swing."""
    x = old_mm[0] + (new_mm[0] - old_mm[0]) * progress
    y = old_mm[1] + (new_mm[1] - old_mm[1]) * progress
    z = z_mm - lift_mm * (1.0 - abs(2.0 * progress - 1.0))
    return x, y, z


@dataclass(eq=False, repr=False)
class JointTableRow(Fields):
    """One compiled sample: commanded pose and solved angles for one leg.

    Not frozen, so not hashable: compile_joint_table builds a new row for
    every sample and leg and never reads one back once emitted. The frozen
    JointAngles and the `target_mm` tuple may be shared between rows.
    """

    t_s: float
    leg: int
    angles: JointAngles
    attached: bool
    target_mm: tuple  # (x, y, z) the row was solved for


def compile_joint_table(gait, geom, *, limits=None, sink=None):
    """Plan a GaitParams with generate_cycle and sample the plan into per-leg
    joint angles at its own pose: z, k, lift and elbow branch all come from
    the plan, which generate_cycle has checked for reach (an
    UnreachableFoothold before any row is made).

    Each step contributes `gait.samples_per_step` uniformly spaced samples
    over `gait.swing_s + gait.advance_s` seconds; the swing runs over the
    whole step and the body advance lands between the last sample of a step
    and the first of the next. Rows come out in time order, legs 1..4 within
    each sample. GaitParams bounds the rows and keeps the last t_s finite.

    Every leg is solved at a step's first sample, in leg order, and only the
    swing leg is solved again at each later sample. Each solve calls the two
    plane solvers, ik_planar_xy and ik_normal_zy, as solve_leg calls them, so
    the errors are the same, each named `step {i} sample {j} leg {L}: ...`.
    The solves are written out in the loop, with no frame of their own, and
    go through the module's names at call time, as swing_waypoint (once per
    sample) does, so a patch of either is seen. No memo spans steps: it
    would hold one entry per swing sample.

    The compile drives one protocol. Once every leg is solved at a step's
    first sample, it calls sample = sink.step(swing_leg, angles_by_leg), and
    then sample(t_s, swing_angles) for each sample of the step, each angles
    value a (theta1, theta2, theta3, theta4) tuple. A sink with a `step`
    hook, such as the one fileio.joint_table_sink yields, gets just that,
    and no JointTableRow, JointAngles or CupTarget is built. Otherwise a
    local hook builds the JointTableRows and hands each to sink(row) as it
    is made, or, with no sink, returns them all in a list (with a sink the
    returned list stays empty). A stance leg's rows in one step share one
    JointAngles and one target_mm tuple; the swing leg gets a new pair per
    sample. A sample's rows are made only once its solves have succeeded.
    """
    script = generate_cycle(geom, gait, limits)
    samples_per_step, step_duration_s = gait.samples_per_step, gait.swing_s + gait.advance_s
    last = samples_per_step - 1
    z_mm, k_rad, lift_mm, branch = script.z_mm, script.k_rad, script.lift_mm, script.branch
    rows = []
    step_hook = getattr(sink, "step", None)
    if step_hook is None:
        emit = rows.append if sink is None else sink

        def step_hook(swing_leg, angles_by_leg):  # reads the loop's stance_mm and swing
            poses = {leg: (JointAngles(*angles_by_leg[leg]), (*stance_mm[leg], z_mm))
                     for leg in LEG_IDS if leg != swing_leg}

            def sample(t_s, swing_angles):
                poses[swing_leg] = JointAngles(*swing_angles), swing
                for leg in LEG_IDS:
                    angles, target = poses[leg]
                    emit(JointTableRow(t_s, leg, angles, leg != swing_leg, target))

            return sample

    def named(exc, index, j, leg):  # a plane solver's error, named by where it was raised
        return type(exc)(f"step {index} sample {j} leg {leg}: {exc}", plane=exc.plane)

    for index, (step, stance) in enumerate(zip(script.steps, replay(script))):
        swing_leg, new_bf = step.swing_leg, step.new_foothold_mm
        stance_mm = {leg: (um_to_mm(x), um_to_mm(y)) for leg, (x, y) in stance.items()}
        start = stance_mm[swing_leg]
        swing = swing_waypoint(start, new_bf, 0.0, z_mm, lift_mm)
        first = {}
        for leg in LEG_IDS:  # every leg at the step's first sample, in leg order
            x, y, z = swing if leg == swing_leg else (*stance_mm[leg], z_mm)
            try:  # solve_leg's two plane solves, in its order
                first[leg] = (*ik_planar_xy(geom, x, y, branch, limits),
                              *ik_normal_zy(geom, z, k_rad, limits))
            except KinematicsError as exc:
                raise named(exc, index, 0, leg) from exc
        sample = step_hook(swing_leg, first)
        sample((index + 0 / samples_per_step) * step_duration_s, first[swing_leg])
        for j in range(1, samples_per_step):  # the swing leg alone
            x, y, z = swing = swing_waypoint(start, new_bf, j / last, z_mm, lift_mm)
            try:
                angles = (*ik_planar_xy(geom, x, y, branch, limits),
                          *ik_normal_zy(geom, z, k_rad, limits))
            except KinematicsError as exc:
                raise named(exc, index, j, swing_leg) from exc
            sample((index + j / samples_per_step) * step_duration_s, angles)
    return rows

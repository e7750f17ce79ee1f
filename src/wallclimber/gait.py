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

from .errors import (Fields, FrozenFields, GaitValidationError, KinematicsError,
                     UnreachableFoothold, check_fields, is_finite_real, is_int)
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


def _check_samples(samples_per_step, steps):
    """The joint table's sampling rule, which GaitParams and
    compile_joint_table both apply: samples_per_step is an int of at least 2,
    and a table of `steps` steps has at most MAX_TABLE_ROWS rows."""
    if not is_int(samples_per_step) or samples_per_step < 2:
        raise ValueError(f"samples_per_step must be an integer >= 2, got {samples_per_step!r}")
    if samples_per_step * steps * len(LEG_IDS) > MAX_TABLE_ROWS:
        raise ValueError(f"samples_per_step x {steps} steps x {len(LEG_IDS)} legs must be at "
                         f"most {MAX_TABLE_ROWS} rows, got {samples_per_step}")


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
    plans from it as it is. Building one checks each field against its type
    first (errors.check_fields), then the stance and the ranges. It is
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
        _check_samples(self.samples_per_step, len(self.order))
        if self.swing_s <= 0.0 or self.advance_s <= 0.0:
            raise ValueError("swing_s and advance_s must be > 0")
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

    validate, replay, compile_joint_table and run_scenario read the stance
    and the pose only from here, so what they check, replay, compile and
    run is one plan. No field has a default: a plan names its whole pose.
    It is frozen, and building one checks each field against its type
    (errors.check_fields): z_mm, k_rad and lift_mm finite, step_length_um an
    int, initial a FootholdMap and branch an ElbowBranch; validate checks the
    rest.
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


@dataclass(frozen=True, eq=False, repr=False)
class Violation(FrozenFields):
    """One rule a gait script breaks: its kind (unreachable, coverage,
    advance or closure), a message, and the step and leg it
    concerns, -1 where none."""

    kind: str
    detail: str
    step: int = -1
    leg: int = -1

    def __str__(self):
        where = []
        if self.step >= 0:
            where.append(f"step {self.step}")
        if self.leg >= 0:
            where.append(f"leg {self.leg}")
        prefix = f"[{', '.join(where)}] " if where else ""
        return f"{prefix}{self.kind}: {self.detail}"


@dataclass(eq=False, repr=False)
class GaitValidationReport(Fields):
    """What validate found: every Violation, in the order met. ok when none."""

    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, detail, step=-1, leg=-1):
        self.violations.append(Violation(kind, detail, step, leg))


def generate_cycle(geom, gait, limits=None):
    """Build one climbing cycle from a GaitParams: from `gait.stance_mm`,
    each leg in `gait.order` swings one step length up the wall (+y), with
    the body advance split per `gait.advance_mode`. The script carries the
    gait's z, k, lift and elbow branch; the GaitParams checked all of these
    when it was built.

    The result is validated before it is returned; reach problems raise
    UnreachableFoothold naming the leg and step.
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

    report = validate(script, geom, limits=limits)
    for violation in report.violations:
        if violation.kind == "unreachable":
            raise UnreachableFoothold(str(violation), leg=violation.leg, step=violation.step)
    if not report.ok:
        raise GaitValidationError(report)
    return script


def validate(script, geom, limits=None):
    """Replay a script symbolically from its own start stance,
    `script.initial`, at its own z, k and lift, and report every violated
    invariant (no exceptions; the report carries them).

    Checks: swing coverage (each leg exactly once), no negative body
    advance, every commanded foothold inside the reachable workspace
    (stance points, swing endpoints, the lifted mid-swing point and, where
    a swing crosses y = 0, its start's x at y = 0), and exact cycle closure
    in integer micrometres. A stance has every cup on the wall and a step
    detaches only its swing leg, so three cups are placed whenever a leg
    swings; whether they grip is the run's pneumatics, which no plan models.

    Every pose a run of a generate_cycle plan commands lies on a swing
    segment (a leg keeps its x; slip only shortens advances) at a clearance
    from z - lift to z. Its radius is largest at an end and smallest at
    y = 0, so a plan that passes here cannot fail on reach mid-run.
    """
    report = GaitValidationReport()

    def check_reach(point_um, z_mm, step, leg, label):
        x, y = um_to_mm(point_um[0]), um_to_mm(point_um[1])
        if z_mm < 0.0:
            report.add("unreachable",
                       f"{label} ({x}, {y}) mm: clearance {z_mm} mm is negative "
                       "(lift exceeds the wall distance)",
                       step=step, leg=leg)
            return
        ok, reason = reachable(geom, CupTarget(x, y, z_mm, script.k_rad), limits)
        if not ok:
            report.add("unreachable", f"{label} ({x}, {y}) mm at z={z_mm} mm: {reason}",
                       step=step, leg=leg)

    swings = [s.swing_leg for s in script.steps]
    if sorted(swings) != list(LEG_IDS):
        report.add("coverage", f"swing legs {swings} do not cover each of {LEG_IDS} exactly once")

    z, initial = script.z_mm, script.initial
    for leg in LEG_IDS:
        check_reach(initial.points_um[leg], z, -1, leg, "initial foothold")

    stances = list(replay(script))
    for index, (step, before, after) in enumerate(zip(script.steps, stances, stances[1:])):
        leg = step.swing_leg
        old_bf = before[leg]
        new_bf = step.new_foothold_um

        if step.body_advance_um < 0:
            report.add("advance", f"negative body advance {step.body_advance_um} um",
                       step=index, leg=leg)

        check_reach(old_bf, z, index, leg, "swing start")
        mid_bf = ((old_bf[0] + new_bf[0]) // 2, (old_bf[1] + new_bf[1]) // 2)
        check_reach(mid_bf, z - script.lift_mm, index, leg, "lifted mid-swing point")
        check_reach(new_bf, z, index, leg, "swing end")
        if min(old_bf[1], new_bf[1]) < 0 < max(old_bf[1], new_bf[1]):
            check_reach((old_bf[0], 0), z, index, leg, "swing point nearest the shoulder")
        for other in LEG_IDS:
            check_reach(after[other], z, index, other, "stance point after advance")

    advanced_um = sum(step.body_advance_um for step in script.steps)
    if advanced_um != script.step_length_um:
        report.add("closure",
                   f"body advanced {advanced_um} um over the cycle, "
                   f"expected {script.step_length_um}")
    if stances[-1] != initial.points_um:
        report.add("closure",
                   f"body-frame stance {stances[-1]} does not return to initial "
                   f"{initial.points_um}")
    return report


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


def compile_joint_table(script, geom, samples_per_step, *, step_duration_s=1.0, limits=None,
                        sink=None):
    """Sample a script into per-leg joint angles at its own pose: z, k, lift
    and elbow branch all come from the script, which is validated first (a
    GaitValidationError before any row is made).

    Each step contributes `samples_per_step` uniformly spaced samples;
    the swing runs over the whole step and the body advance lands
    between the last sample of a step and the first of the next. Rows
    come out in time order, legs 1..4 within each sample.

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
    _check_samples(samples_per_step, len(script.steps))
    last = samples_per_step - 1
    if not (is_finite_real(step_duration_s) and step_duration_s > 0.0 and math.isfinite(
            (len(script.steps) - 1 + last / samples_per_step) * step_duration_s)):  # the last t_s
        raise ValueError(f"step_duration_s must be finite and > 0 and keep the last sample's "
                         f"t_s finite, got {step_duration_s!r}")
    report = validate(script, geom, limits=limits)
    if not report.ok:
        raise GaitValidationError(report)
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

"""Deterministic simulation toolkit for a four-legged suction-adhesion
wall-climbing robot: closed-form leg kinematics, a 3-of-4 attachment
climbing gait, a first-order suction-cup pressure and grip model, and
an inclined-platform scenario runner."""

from .config import load_config
from .gait import (
    FootholdMap,
    GaitParams,
    GaitScript,
    GaitStep,
    compile_joint_table,
    generate_cycle,
    validate,
)
from .kinematics import (
    CupTarget,
    ElbowBranch,
    JointAngles,
    JointLimits,
    LegGeometry,
    fk_leg,
    fk_normal_z,
    fk_planar_xy,
    ik_normal_zy,
    ik_planar_xy,
    reachable,
    solve_leg,
)
from .pneumatics import AdhesionModel, Valve
from .simulator import (
    ScenarioConfig,
    SimReport,
    power_model,
    run_scenario,
    slip_model,
    sweep_climb_angle,
)

__version__ = "0.1.0"

__all__ = [
    "AdhesionModel",
    "CupTarget",
    "ElbowBranch",
    "FootholdMap",
    "GaitParams",
    "GaitScript",
    "GaitStep",
    "JointAngles",
    "JointLimits",
    "LegGeometry",
    "ScenarioConfig",
    "SimReport",
    "Valve",
    "compile_joint_table",
    "fk_leg",
    "fk_normal_z",
    "fk_planar_xy",
    "generate_cycle",
    "ik_normal_zy",
    "ik_planar_xy",
    "load_config",
    "power_model",
    "reachable",
    "run_scenario",
    "slip_model",
    "solve_leg",
    "sweep_climb_angle",
    "validate",
]

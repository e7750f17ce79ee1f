"""INI config loading with a strict schema.

Every key is optional and falls back to the built-in default, so an
empty (or absent) file yields a complete runnable scenario. Unknown
sections or keys are rejected by name rather than silently ignored,
and every value is validated by the owning type at load time.

Units in the file are human-facing: millimetres, degrees, seconds,
kilograms, kPa, watts. Angles are converted to radians at this
boundary and nowhere else.
"""

import configparser
import math
import os

from .errors import ConfigError
from .kinematics import ElbowBranch, JointLimits, LegGeometry
from .pneumatics import AdhesionModel, assign_pumps
from .simulator import GaitParams, ScenarioConfig

CONFIG_ENV_VAR = "WALLCLIMBER_CONFIG"


def _parse_float(text):
    return float(text)


def _parse_int(text):
    return int(text)


def _parse_pair(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'x, y' pair, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_int_list(text):
    return tuple(int(p.strip()) for p in text.split(","))


def _parse_branch(text):
    name = text.strip().upper()
    if name not in ("PLUS", "MINUS"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {text!r}")
    return ElbowBranch[name]


def _parse_mode(text):
    return text.strip()


# section -> key -> parser. This is the whole schema; anything else in a
# file is an error.
_SCHEMA = {
    "geometry": {
        "a1_mm": _parse_float,
        "a2_mm": _parse_float,
        "a3_mm": _parse_float,
        "a4_mm": _parse_float,
    },
    "joints": {
        "limit_min_deg": _parse_float,
        "limit_max_deg": _parse_float,
    },
    "gait": {
        "p1_mm": _parse_pair,
        "p2_mm": _parse_pair,
        "p3_mm": _parse_pair,
        "p4_mm": _parse_pair,
        "step_length_mm": _parse_float,
        "order": _parse_int_list,
        "lift_mm": _parse_float,
        "z_mm": _parse_float,
        "k_deg": _parse_float,
        "branch": _parse_branch,
        "samples_per_step": _parse_int,
        "advance_mode": _parse_mode,
        "swing_s": _parse_float,
        "advance_s": _parse_float,
    },
    "adhesion": {
        "cup_area_mm2": _parse_float,
        "vacuum_kpa": _parse_float,
        "threshold_kpa": _parse_float,
        "dwell_s": _parse_float,
        "vent_s": _parse_float,
        "mu": _parse_float,
        "leak_kpa_s": _parse_float,
    },
    "pneumatics": {
        "pump_a_legs": _parse_int_list,
        "pump_b_legs": _parse_int_list,
    },
    "scenario": {
        "climb_angle_deg": _parse_float,
        "mass_kg": _parse_float,
        "gravity_m_s2": _parse_float,
        "cycles": _parse_int,
        "tick_s": _parse_float,
        "servo_power_w": _parse_float,
        "pump_power_w": _parse_float,
        "lift_efficiency": _parse_float,
        "c_slip": _parse_float,
        "s_max": _parse_float,
        "seed": _parse_int,
        "noise_kpa": _parse_float,
    },
}


def _read_values(path):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section '[{section}]' in {path}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}] of {path}")
            try:
                values[(section, key)] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from exc
    return values


def load_config(path=None):
    """Build a ScenarioConfig from an INI file, or pure defaults when
    path is None. Raises ConfigError naming the offending section/key."""
    values = _read_values(path) if path is not None else {}
    get = values.get

    defaults = ScenarioConfig()

    try:
        geometry = LegGeometry(
            a1=get(("geometry", "a1_mm"), defaults.geometry.a1),
            a2=get(("geometry", "a2_mm"), defaults.geometry.a2),
            a3=get(("geometry", "a3_mm"), defaults.geometry.a3),
            a4=get(("geometry", "a4_mm"), defaults.geometry.a4),
        )
    except ValueError as exc:
        raise ConfigError(f"[geometry] {exc}") from exc

    limits = None
    has_min = ("joints", "limit_min_deg") in values
    has_max = ("joints", "limit_max_deg") in values
    if has_min != has_max:
        raise ConfigError("[joints] needs both limit_min_deg and limit_max_deg")
    if has_min:
        try:
            limits = JointLimits(
                lower=math.radians(values[("joints", "limit_min_deg")]),
                upper=math.radians(values[("joints", "limit_max_deg")]),
            )
        except ValueError as exc:
            raise ConfigError(f"[joints] {exc}") from exc

    gd = defaults.gait
    stance = {
        1: get(("gait", "p1_mm"), gd.stance_mm[1]),
        2: get(("gait", "p2_mm"), gd.stance_mm[2]),
        3: get(("gait", "p3_mm"), gd.stance_mm[3]),
        4: get(("gait", "p4_mm"), gd.stance_mm[4]),
    }
    try:
        gait = GaitParams(
            stance_mm=stance,
            step_length_mm=get(("gait", "step_length_mm"), gd.step_length_mm),
            order=tuple(get(("gait", "order"), gd.order)),
            lift_mm=get(("gait", "lift_mm"), gd.lift_mm),
            z_mm=get(("gait", "z_mm"), gd.z_mm),
            k_rad=math.radians(get(("gait", "k_deg"), math.degrees(gd.k_rad))),
            branch=get(("gait", "branch"), gd.branch),
            samples_per_step=get(("gait", "samples_per_step"), gd.samples_per_step),
            advance_mode=get(("gait", "advance_mode"), gd.advance_mode),
            swing_s=get(("gait", "swing_s"), gd.swing_s),
            advance_s=get(("gait", "advance_s"), gd.advance_s),
        )
    except ValueError as exc:
        raise ConfigError(f"[gait] {exc}") from exc

    ad = defaults.adhesion
    try:
        adhesion = AdhesionModel(
            cup_area_mm2=get(("adhesion", "cup_area_mm2"), ad.cup_area_mm2),
            vacuum_kpa=get(("adhesion", "vacuum_kpa"), ad.vacuum_kpa),
            attach_threshold_kpa=get(("adhesion", "threshold_kpa"), ad.attach_threshold_kpa),
            dwell_s=get(("adhesion", "dwell_s"), ad.dwell_s),
            vent_s=get(("adhesion", "vent_s"), ad.vent_s),
            friction=get(("adhesion", "mu"), ad.friction),
            leak_kpa_per_s=get(("adhesion", "leak_kpa_s"), ad.leak_kpa_per_s),
        )
    except ValueError as exc:
        raise ConfigError(f"[adhesion] {exc}") from exc

    pump_legs = {
        "A": tuple(get(("pneumatics", "pump_a_legs"), defaults.pump_legs["A"])),
        "B": tuple(get(("pneumatics", "pump_b_legs"), defaults.pump_legs["B"])),
    }
    try:
        assign_pumps(pump_legs)
    except ValueError as exc:
        raise ConfigError(f"[pneumatics] {exc}") from exc

    try:
        return ScenarioConfig(
            climb_angle_deg=get(("scenario", "climb_angle_deg"), defaults.climb_angle_deg),
            mass_kg=get(("scenario", "mass_kg"), defaults.mass_kg),
            gravity_m_s2=get(("scenario", "gravity_m_s2"), defaults.gravity_m_s2),
            cycles=get(("scenario", "cycles"), defaults.cycles),
            tick_s=get(("scenario", "tick_s"), defaults.tick_s),
            geometry=geometry,
            gait=gait,
            adhesion=adhesion,
            pump_legs=pump_legs,
            limits=limits,
            servo_power_w=get(("scenario", "servo_power_w"), defaults.servo_power_w),
            pump_power_w=get(("scenario", "pump_power_w"), defaults.pump_power_w),
            lift_efficiency=get(("scenario", "lift_efficiency"), defaults.lift_efficiency),
            c_slip=get(("scenario", "c_slip"), defaults.c_slip),
            s_max=get(("scenario", "s_max"), defaults.s_max),
            seed=get(("scenario", "seed"), defaults.seed),
            noise_kpa=get(("scenario", "noise_kpa"), defaults.noise_kpa),
        )
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc


def resolve_config_path(cli_path=None):
    """CLI flag wins, then the environment variable, then built-in defaults."""
    if cli_path is not None:
        return cli_path
    return os.environ.get(CONFIG_ENV_VAR) or None

"""INI config loading with a strict schema.

Every key is optional and falls back to the default of its field in the
config dataclasses, so an empty (or absent) file yields a complete
runnable scenario. Unknown sections or keys are rejected by name rather
than silently ignored, and every value is validated by the owning type
at load time.

Units in the file are human-facing: millimetres, degrees, seconds,
kilograms, kPa, watts. Angles are converted to radians at this
boundary and nowhere else.
"""

import configparser
import math
import os
import re
from dataclasses import replace

from .errors import ConfigError
from .kinematics import ElbowBranch, JointLimits
from .simulator import ScenarioConfig

CONFIG_ENV_VAR = "WALLCLIMBER_CONFIG"


def _parse_deg(text):
    return math.radians(float(text))


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


# section -> key -> (field, parser). This is the whole schema; anything else
# in a file is an error. A (field, item) target sets one entry of a dict
# field. The sections are built in this order, so of two bad sections the
# first is reported; pneumatics and scenario are built together, as the
# ScenarioConfig, whose own check order decides between them.
_SCHEMA = {
    "geometry": {
        "a1_mm": ("a1", float),
        "a2_mm": ("a2", float),
        "a3_mm": ("a3", float),
        "a4_mm": ("a4", float),
    },
    "joints": {
        "limit_min_deg": ("lower", _parse_deg),
        "limit_max_deg": ("upper", _parse_deg),
    },
    "gait": {
        "p1_mm": (("stance_mm", 1), _parse_pair),
        "p2_mm": (("stance_mm", 2), _parse_pair),
        "p3_mm": (("stance_mm", 3), _parse_pair),
        "p4_mm": (("stance_mm", 4), _parse_pair),
        "step_length_mm": ("step_length_mm", float),
        "order": ("order", _parse_int_list),
        "lift_mm": ("lift_mm", float),
        "z_mm": ("z_mm", float),
        "k_deg": ("k_rad", _parse_deg),
        "branch": ("branch", _parse_branch),
        "samples_per_step": ("samples_per_step", int),
        "advance_mode": ("advance_mode", str.strip),
        "swing_s": ("swing_s", float),
        "advance_s": ("advance_s", float),
    },
    "adhesion": {
        "cup_area_mm2": ("cup_area_mm2", float),
        "vacuum_kpa": ("vacuum_kpa", float),
        "threshold_kpa": ("attach_threshold_kpa", float),
        "dwell_s": ("dwell_s", float),
        "vent_s": ("vent_s", float),
        "mu": ("friction", float),
        "leak_kpa_s": ("leak_kpa_per_s", float),
    },
    "pneumatics": {
        "pump_a_legs": (("pump_legs", "A"), _parse_int_list),
        "pump_b_legs": (("pump_legs", "B"), _parse_int_list),
    },
    "scenario": {
        "climb_angle_deg": ("climb_angle_deg", float),
        "mass_kg": ("mass_kg", float),
        "gravity_m_s2": ("gravity_m_s2", float),
        "cycles": ("cycles", int),
        "tick_s": ("tick_s", float),
        "servo_power_w": ("servo_power_w", float),
        "pump_power_w": ("pump_power_w", float),
        "lift_efficiency": ("lift_efficiency", float),
        "c_slip": ("c_slip", float),
        "s_max": ("s_max", float),
        "seed": ("seed", int),
        "noise_kpa": ("noise_kpa", float),
    },
}


def _read_values(path):
    """Parse a file into section -> {field: value}; a (field, item) target
    stays a key of its own until _fields merges it."""
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
            target, parse = _SCHEMA[section][key]
            try:
                values.setdefault(section, {})[target] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from exc
    return values


def _fields(values, section, base):
    """The fields a file sets in one section, as keyword arguments for
    replace(base, ...): a dict field keeps the base's other entries."""
    fields = {}
    for target, value in values.get(section, {}).items():
        if isinstance(target, tuple):
            target, item = target
            value = {**fields.get(target, getattr(base, target)), item: value}
        fields[target] = value
    return fields


def load_config(path=None):
    """Build a ScenarioConfig from an INI file, or pure defaults when
    path is None. Every value a file leaves out comes from the dataclass
    defaults. Raises ConfigError naming the offending section/key.

    The sections are built in _SCHEMA's order: geometry, joints, gait and
    adhesion as their dataclasses, then pneumatics and scenario together as
    the ScenarioConfig. One rule labels every ValueError a build raises: the
    section that sets the first field the message names (a (field, item)
    target counts as its field), else the section being built. So a check
    that reads fields of several sections (a phase duration over tick_s, the
    run's tick count) names a section the file sets.
    """
    values = _read_values(path) if path is not None else {}
    if len(values.get("joints", {})) == 1:
        raise ConfigError("[joints] needs both limit_min_deg and limit_max_deg")
    defaults, parts, named = ScenarioConfig(), {}, {}
    try:
        for section in _SCHEMA:
            part = "limits" if section == "joints" else section
            # pneumatics and scenario set fields of the ScenarioConfig itself, and
            # joints builds the limits, which are None by default
            base = getattr(defaults, part, defaults) or JointLimits()
            named[section] = fields = _fields(values, section, base)
            if base is defaults:
                parts.update(fields)
            elif fields:
                parts[part] = replace(base, **fields)
        return replace(defaults, **parts)
    except ValueError as exc:
        label = next((name for word in re.findall(r"\w+", str(exc))
                      for name, fields in named.items() if word in fields), section)
        raise ConfigError(f"[{label}] {exc}") from exc


def resolve_config_path(cli_path=None):
    """CLI flag wins, then the environment variable, then built-in defaults."""
    if cli_path is not None:
        return cli_path
    return os.environ.get(CONFIG_ENV_VAR) or None

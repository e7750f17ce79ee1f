import configparser
import dataclasses
import math
import re
from collections.abc import Mapping
from pathlib import Path

import pytest

from wallclimber import config as config_module
from wallclimber.config import CONFIG_ENV_VAR, load_config, resolve_config_path
from wallclimber.errors import ConfigError
from wallclimber.gait import ADVANCE_PER_CYCLE
from wallclimber.kinematics import ElbowBranch, JointLimits
from wallclimber.simulator import ScenarioConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, text):
    path = tmp_path / "robot.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_without_file():
    config = load_config(None)
    assert config == ScenarioConfig()
    assert config.limits is None


def test_empty_file_equals_defaults(tmp_path):
    assert load_config(write(tmp_path, "")) == ScenarioConfig()


def test_full_override(tmp_path):
    path = write(tmp_path, """
[geometry]
a1_mm = 110
a2_mm = 90
a3_mm = 120
a4_mm = 80

[joints]
limit_min_deg = -120
limit_max_deg = 120

[gait]
p1_mm = -70, 70
p2_mm = 70, 70
p3_mm = 70, -70
p4_mm = -70, -70
step_length_mm = 30
order = 2, 4, 1, 3
lift_mm = 15
z_mm = 90
k_deg = 80
branch = minus
samples_per_step = 6
advance_mode = per_cycle
swing_s = 0.5
advance_s = 0.3

[adhesion]
cup_area_mm2 = 1500
vacuum_kpa = -60
threshold_kpa = -35
dwell_s = 0.4
vent_s = 0.1
mu = 0.6
leak_kpa_s = 5

[pneumatics]
pump_a_legs = 1, 3
pump_b_legs = 2, 4

[scenario]
climb_angle_deg = 25
mass_kg = 3.5
gravity_m_s2 = 9.8
cycles = 5
tick_s = 0.02
servo_power_w = 7
pump_power_w = 4
lift_efficiency = 0.5
c_slip = 0.2
s_max = 0.8
seed = 99
noise_kpa = 0.1
""")
    config = load_config(path)
    assert config.geometry.a1 == 110.0 and config.geometry.a4 == 80.0
    assert config.limits.lower == pytest.approx(math.radians(-120))
    assert config.gait.stance_mm[3] == (70.0, -70.0)
    assert config.gait.order == (2, 4, 1, 3)
    assert config.gait.k_rad == pytest.approx(math.radians(80))
    assert config.gait.branch is ElbowBranch.MINUS
    assert config.gait.advance_mode == ADVANCE_PER_CYCLE
    assert config.adhesion.friction == 0.6
    assert config.pump_legs == {"A": (1, 3), "B": (2, 4)}
    assert config.climb_angle_deg == 25.0
    assert config.seed == 99


def test_unknown_key_named(tmp_path):
    path = write(tmp_path, "[gait]\nstep_lenght_mm = 40\n")
    with pytest.raises(ConfigError, match="step_lenght_mm"):
        load_config(path)


def test_unknown_section_named(tmp_path):
    path = write(tmp_path, "[pneumatix]\npump_a_legs = 1, 2\n")
    with pytest.raises(ConfigError, match="pneumatix"):
        load_config(path)


def test_invalid_value_reports_section(tmp_path):
    path = write(tmp_path, "[gait]\nstep_length_mm = 0\n")
    with pytest.raises(ConfigError, match=r"\[gait\].*step_length_mm"):
        load_config(path)


def test_unparseable_value(tmp_path):
    path = write(tmp_path, "[scenario]\nmass_kg = heavy\n")
    with pytest.raises(ConfigError, match="mass_kg"):
        load_config(path)


def test_joint_limits_need_both_keys(tmp_path):
    path = write(tmp_path, "[joints]\nlimit_min_deg = -90\n")
    with pytest.raises(ConfigError, match="limit_max_deg"):
        load_config(path)


def test_bad_pump_partition(tmp_path):
    path = write(tmp_path, "[pneumatics]\npump_a_legs = 1, 2\npump_b_legs = 2, 3\n")
    with pytest.raises(ConfigError, match=r"\[pneumatics\]"):
        load_config(path)


@pytest.mark.parametrize("section, key, field", [
    ("scenario", "mass_kg", "mass_kg"),
    ("scenario", "tick_s", "tick_s"),
    ("geometry", "a1_mm", "a1"),
    ("adhesion", "cup_area_mm2", "cup_area_mm2"),
    ("gait", "step_length_mm", "step_length_mm"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_value_is_config_error(tmp_path, section, key, field, value):
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {field} must be finite"):
        load_config(path)


@pytest.mark.parametrize("order", ["1, 1, 2, 3", "1, 2, 3"])
def test_swing_order_that_is_not_a_permutation_is_config_error(tmp_path, order):
    path = write(tmp_path, f"[gait]\norder = {order}\n")
    with pytest.raises(ConfigError, match=r"^\[gait\] order must be a permutation"):
        load_config(path)


def test_a_fractional_leg_id_is_refused_when_parsed(tmp_path):
    # GaitParams refuses a float leg id itself; the loader's int() parse
    # already refuses "4.0" before any object is built
    path = write(tmp_path, "[gait]\norder = 1, 2, 3, 4.0\n")
    with pytest.raises(ConfigError, match=r"^bad value for 'order' in \[gait\]: .*'4\.0'"):
        load_config(path)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/robot.ini")


def test_malformed_ini(tmp_path):
    path = write(tmp_path, "step_length_mm = 40\n")  # key before any section
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


def test_scenario_range_validation(tmp_path):
    path = write(tmp_path, "[scenario]\nclimb_angle_deg = 120\n")
    with pytest.raises(ConfigError, match=r"\[scenario\]"):
        load_config(path)


def test_resolve_path_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert resolve_config_path(None) is None
    assert resolve_config_path("explicit.ini") == "explicit.ini"
    monkeypatch.setenv(CONFIG_ENV_VAR, str(tmp_path / "env.ini"))
    assert resolve_config_path(None) == str(tmp_path / "env.ini")
    assert resolve_config_path("flag.ini") == "flag.ini"  # flag still wins


def test_comments_and_inline_comments(tmp_path):
    path = write(tmp_path, """
# full-line comment
[scenario]
cycles = 4  ; inline comment
""")
    assert load_config(path).cycles == 4


# --- one table of keys --------------------------------------------------------

def flat(obj, path=()):
    """Every leaf field of a config: path -> value, through nested
    dataclasses and mappings (the configs store their dicts read-only)."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, Mapping):
        items = obj.items()
    else:
        return {path: obj}
    leaves = {}
    for name, value in items:
        leaves.update(flat(value, path + (name,)))
    return leaves


# section, key, text, the field it sets, the value it sets it to
ONE_KEY = [
    ("geometry", "a1_mm", "110", ("geometry", "a1"), 110.0),
    ("geometry", "a2_mm", "90", ("geometry", "a2"), 90.0),
    ("geometry", "a3_mm", "120", ("geometry", "a3"), 120.0),
    ("geometry", "a4_mm", "80", ("geometry", "a4"), 80.0),
    ("gait", "p1_mm", "-70, 75", ("gait", "stance_mm", 1), (-70.0, 75.0)),
    ("gait", "p2_mm", "70, 75", ("gait", "stance_mm", 2), (70.0, 75.0)),
    ("gait", "p3_mm", "70, -75", ("gait", "stance_mm", 3), (70.0, -75.0)),
    ("gait", "p4_mm", "-70, -75", ("gait", "stance_mm", 4), (-70.0, -75.0)),
    ("gait", "step_length_mm", "30", ("gait", "step_length_mm"), 30.0),
    ("gait", "order", "2, 4, 1, 3", ("gait", "order"), (2, 4, 1, 3)),
    ("gait", "lift_mm", "15", ("gait", "lift_mm"), 15.0),
    ("gait", "z_mm", "90", ("gait", "z_mm"), 90.0),
    ("gait", "k_deg", "80", ("gait", "k_rad"), math.radians(80.0)),
    ("gait", "branch", "minus", ("gait", "branch"), ElbowBranch.MINUS),
    ("gait", "samples_per_step", "6", ("gait", "samples_per_step"), 6),
    ("gait", "advance_mode", "per_cycle", ("gait", "advance_mode"), ADVANCE_PER_CYCLE),
    ("gait", "swing_s", "0.5", ("gait", "swing_s"), 0.5),
    ("gait", "advance_s", "0.3", ("gait", "advance_s"), 0.3),
    ("adhesion", "cup_area_mm2", "1500", ("adhesion", "cup_area_mm2"), 1500.0),
    ("adhesion", "vacuum_kpa", "-60", ("adhesion", "vacuum_kpa"), -60.0),
    ("adhesion", "threshold_kpa", "-35", ("adhesion", "attach_threshold_kpa"), -35.0),
    ("adhesion", "dwell_s", "0.4", ("adhesion", "dwell_s"), 0.4),
    ("adhesion", "vent_s", "0.1", ("adhesion", "vent_s"), 0.1),
    ("adhesion", "mu", "0.6", ("adhesion", "friction"), 0.6),
    ("adhesion", "leak_kpa_s", "5", ("adhesion", "leak_kpa_per_s"), 5.0),
    ("pneumatics", "pump_a_legs", "2, 1", ("pump_legs", "A"), (2, 1)),
    ("pneumatics", "pump_b_legs", "4, 3", ("pump_legs", "B"), (4, 3)),
    ("scenario", "climb_angle_deg", "25", ("climb_angle_deg",), 25.0),
    ("scenario", "mass_kg", "3.5", ("mass_kg",), 3.5),
    ("scenario", "gravity_m_s2", "9.8", ("gravity_m_s2",), 9.8),
    ("scenario", "cycles", "5", ("cycles",), 5),
    ("scenario", "tick_s", "0.02", ("tick_s",), 0.02),
    ("scenario", "servo_power_w", "7", ("servo_power_w",), 7.0),
    ("scenario", "pump_power_w", "4", ("pump_power_w",), 4.0),
    ("scenario", "lift_efficiency", "0.5", ("lift_efficiency",), 0.5),
    ("scenario", "c_slip", "0.2", ("c_slip",), 0.2),
    ("scenario", "s_max", "0.8", ("s_max",), 0.8),
    ("scenario", "seed", "99", ("seed",), 99),
    ("scenario", "noise_kpa", "0.1", ("noise_kpa",), 0.1),
]


def schema_keys():
    return {(section, key) for section, keys in config_module._SCHEMA.items() for key in keys}


def test_one_key_table_covers_the_schema():
    covered = {(section, key) for section, key, *_ in ONE_KEY}
    joints = {("joints", "limit_min_deg"), ("joints", "limit_max_deg")}
    assert len(schema_keys()) == 41
    assert covered | joints == schema_keys() and not covered & joints


@pytest.mark.parametrize("section, key, text, path, value", ONE_KEY,
                         ids=[f"{section}.{key}" for section, key, *_ in ONE_KEY])
def test_each_key_sets_exactly_its_own_field(tmp_path, section, key, text, path, value):
    loaded = flat(load_config(write(tmp_path, f"[{section}]\n{key} = {text}\n")))
    default = flat(ScenarioConfig())
    assert loaded.keys() == default.keys()
    assert {p for p in default if loaded[p] != default[p]} == {path}
    assert loaded[path] == value and type(loaded[path]) is type(value)


def test_joint_keys_set_only_the_limits_in_radians(tmp_path):
    config = load_config(write(tmp_path, "[joints]\nlimit_min_deg = -100\nlimit_max_deg = 95\n"))
    assert config.limits == JointLimits(math.radians(-100.0), math.radians(95.0))
    assert dataclasses.replace(config, limits=None) == ScenarioConfig()


def readme_ini():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read_string(blocks[0])
    return parser


def test_readme_config_block_names_exactly_the_schema_keys():
    parser = readme_ini()
    assert list(parser.sections()) == list(config_module._SCHEMA)
    assert {(s, k) for s in parser.sections() for k in parser[s]} == schema_keys()


def test_readme_config_block_without_joints_is_the_default(tmp_path):
    parser = readme_ini()
    parser.remove_section("joints")
    path = tmp_path / "readme.ini"
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    assert load_config(str(path)) == ScenarioConfig()

"""The package's dataclasses are declared with eq=False, repr=False and take
__eq__, __repr__ and __hash__ from errors.Fields and errors.FrozenFields.
Each class must behave as the methods @dataclass would have generated, here
those of a reference class that dataclasses.make_dataclass builds with the
same fields and frozen flag."""

import copy
import dataclasses
import inspect
import math

import pytest

from wallclimber import gait, kinematics, pneumatics, simulator
from wallclimber.errors import Fields, FrozenFields
from wallclimber.gait import FootholdMap, GaitParams, GaitValidationReport, Violation
from wallclimber.kinematics import CupTarget, JointAngles, JointLimits, LegGeometry
from wallclimber.pneumatics import AdhesionModel
from wallclimber.simulator import ScenarioConfig, run_scenario, sweep_climb_angle

PACKAGE_DATACLASSES = sorted(
    (cls for module in (gait, kinematics, pneumatics, simulator)
     for _, cls in inspect.getmembers(module, inspect.isclass)
     if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__),
    key=lambda cls: cls.__name__)


def samples():
    """One instance of each package dataclass, keyed by class."""
    config = ScenarioConfig(cycles=1)
    script = gait.generate_cycle(config.geometry, config.gait)
    report = run_scenario(config)
    rows = []
    gait.compile_joint_table(script, config.geometry, 2, sink=rows.append)
    violation = Violation("closure", "attachment flags changed over the cycle", 2, 3)
    instances = [
        FootholdMap.square_stance(), GaitParams(), script.steps[0], script, violation,
        GaitValidationReport([violation]), rows[5], LegGeometry(),
        JointAngles(0.1, -0.2, 0.3, 1.4), JointLimits(), CupTarget(150.0, 20.0, 90.0, 1.2),
        AdhesionModel(), config, report.records[7], report,
        sweep_climb_angle(config, [30.0])[0],
    ]
    return {type(obj): obj for obj in instances}


SAMPLES = samples()


def reference_class(cls):
    """What @dataclass makes of cls's fields, with its generated eq and repr."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)],
        frozen=cls.__dataclass_params__.frozen, eq=True, repr=True)


def as_reference(obj):
    return reference_class(type(obj))(**{f.name: getattr(obj, f.name)
                                         for f in dataclasses.fields(obj)})


def with_field(obj, name, value):
    """A shallow copy of obj with one field set, past any check or freeze."""
    changed = copy.copy(obj)
    object.__setattr__(changed, name, value)
    return changed


def outcome(call, *args):
    try:
        return "returns", call(*args)
    except TypeError as exc:
        return "raises", type(exc)


def test_every_package_dataclass_has_a_sample_and_a_shared_base():
    assert len(PACKAGE_DATACLASSES) == 16
    assert sorted(SAMPLES, key=lambda cls: cls.__name__) == PACKAGE_DATACLASSES
    for cls in PACKAGE_DATACLASSES:
        params = cls.__dataclass_params__
        assert (params.eq, params.repr) == (False, False), cls
        assert issubclass(cls, FrozenFields if params.frozen else Fields), cls
        assert not {"__eq__", "__repr__", "__hash__"} & set(vars(cls)), cls


@pytest.mark.parametrize("cls", PACKAGE_DATACLASSES, ids=lambda cls: cls.__name__)
def test_every_package_dataclass_has_its_own_docstring(cls):
    # without one, @dataclass writes `Name(field: type, ...)` from inspect.signature
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", PACKAGE_DATACLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_the_generated_one(cls):
    obj = SAMPLES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    zero, nan = with_field(obj, names[0], -0.0), with_field(obj, names[-1], math.nan)
    for case in (obj, zero, nan):
        assert repr(case) == repr(as_reference(case))
    assert repr(zero).startswith(f"{cls.__qualname__}({names[0]}=-0.0")
    assert repr(nan).endswith(f"{names[-1]}=nan)")


@pytest.mark.parametrize("cls", PACKAGE_DATACLASSES, ids=lambda cls: cls.__name__)
def test_eq_and_ne_are_the_generated_ones(cls):
    obj = SAMPLES[cls]
    ref = as_reference(obj)
    names = [f.name for f in dataclasses.fields(cls)]
    nan = with_field(obj, names[-1], math.nan)
    nan_ref = as_reference(nan)
    # the same object, NaN field included: the tuple's identity check finds it equal
    assert (obj == obj, obj != obj) == (ref == ref, ref != ref) == (True, False)
    assert (nan == nan, nan != nan) == (nan_ref == nan_ref, nan_ref != nan_ref) == (True, False)
    # an equal copy
    twin = copy.copy(obj)
    assert (obj == twin, obj != twin) == (ref == copy.copy(ref), ref != copy.copy(ref))
    assert obj == twin
    # a copy with one field changed
    for name in names:
        other, other_ref = with_field(obj, name, object()), with_field(ref, name, object())
        assert (obj == other, obj != other) == (ref == other_ref, ref != other_ref) == (False, True)
    # another class, even one with the same fields and values, or a subclass
    alias = copy.copy(obj)
    object.__setattr__(alias, "__class__", type(cls.__name__, (cls,), {}))
    for stranger in (ref, alias, 1.0, None):
        assert obj.__eq__(stranger) is NotImplemented
        assert (obj == stranger, obj != stranger) == (False, True)


@pytest.mark.parametrize("cls", PACKAGE_DATACLASSES, ids=lambda cls: cls.__name__)
def test_hash_is_the_generated_one(cls):
    obj = SAMPLES[cls]
    ref = as_reference(obj)
    assert outcome(hash, obj) == outcome(hash, ref)
    if cls.__dataclass_params__.frozen:
        assert cls.__hash__ is not None and type(ref).__hash__ is not None
    else:
        assert cls.__hash__ is None and type(ref).__hash__ is None
        assert outcome(hash, obj) == ("raises", TypeError)


def test_the_hashable_frozen_classes_hash_their_field_tuple():
    # the frozen classes whose fields all hash; the others raise TypeError, as
    # the generated __hash__ does
    for obj in (LegGeometry(), JointAngles(0.1, -0.2, 0.3, 1.4), JointLimits(),
                CupTarget(150.0, 20.0, 90.0, 1.2), AdhesionModel(), SAMPLES[Violation],
                SAMPLES[simulator.SweepRow]):
        assert hash(obj) == hash(dataclasses.astuple(obj)) == hash(as_reference(obj))


def test_repr_of_a_foothold_map_that_holds_itself():
    loop = FootholdMap.square_stance()
    loop.points_um[1] = loop
    ref = as_reference(loop)
    ref.points_um = {**loop.points_um, 1: ref}
    assert repr(loop) == repr(ref)
    assert repr(loop).startswith("FootholdMap(points_um={1: ..., 2: (80000, 80000)")

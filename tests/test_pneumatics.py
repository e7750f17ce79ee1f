import math
import random

import pytest

from wallclimber.pneumatics import (
    ATTACH_DWELLS,
    DEFAULT_PUMP_LEGS,
    AdhesionModel,
    Valve,
    assign_pumps,
    grip,
    holding_capacity,
    pressure_under_suction,
    relax,
    suction_decay,
    vent,
)
from wallclimber.simulator import ScenarioConfig, run_scenario

MODEL = AdhesionModel()
LEGS = (1, 2, 3, 4)
PUMP_OF_LEG = assign_pumps(DEFAULT_PUMP_LEGS)


def cups(model=MODEL, legs=LEGS, pressure=None):
    """(valve, pressure_kpa) dicts: the cups of `legs` on suction at
    `pressure` (the vacuum level by default), the others vented at 0 kPa."""
    pressure = model.vacuum_kpa if pressure is None else pressure
    valve = {leg: Valve.SUCTION if leg in legs else Valve.VENT for leg in LEGS}
    return valve, {leg: pressure if leg in legs else 0.0 for leg in LEGS}


def suction_legs(valve, pump_on=None, pump_of_leg=PUMP_OF_LEG):
    """The legs whose valve is on suction and whose pump runs; `pump_on`
    maps each pump to whether it runs, and by default every pump does."""
    return [leg for leg in sorted(valve) if valve[leg] is Valve.SUCTION
            and (pump_on is None or pump_on[pump_of_leg[leg]])]


def held_legs(valve, pressure, model=MODEL, pump_on=None):
    attached = grip(pressure, suction_legs(valve, pump_on), model)[0]
    return [leg for leg, held in attached.items() if held]


# --- attach ---------------------------------------------------------------

# A default one-cycle run swings leg 1 first: 20 vent ticks, 60 swing ticks,
# then a 50-tick attach dwell that starts from 0.0 kPa and ends at record 129.
FIRST_DWELL_END = 129


def test_attach_reaches_near_vacuum_after_one_dwell():
    records = run_scenario(ScenarioConfig(cycles=1)).records
    swung, first, end = (records[FIRST_DWELL_END - 50], records[FIRST_DWELL_END - 49],
                         records[FIRST_DWELL_END])
    assert swung.valve[1] is Valve.VENT and swung.pressure_kpa[1] == 0.0
    # closed-form oracle: exponential decay from 0 toward the vacuum level
    # over one dwell = three time constants
    expected = MODEL.vacuum_kpa * (1.0 - math.exp(-3.0))
    assert end.pressure_kpa[1] == pytest.approx(expected, rel=1e-12)
    assert abs(end.pressure_kpa[1] - MODEL.vacuum_kpa) <= 0.05 * abs(MODEL.vacuum_kpa)
    assert end.valve[1] is Valve.SUCTION and end.attached[1]
    assert first.valve[1] is Valve.SUCTION and not first.attached[1]


def test_attach_requires_pump():
    # assign_pumps puts legs 1 and 2 on pump A: with A off, their valves
    # stay on suction but they are not under suction
    valve, pressure = cups()
    pump_on = {"A": False, "B": True}
    assert suction_legs(valve, pump_on) == [3, 4]
    # legs 3 and 4 ride pump B, still fine
    assert held_legs(valve, pressure, pump_on=pump_on) == [3, 4]


def test_attach_timeout_with_leak():
    # leak equilibrium sits above the threshold, computed analytically:
    # p_eq = vacuum + leak * tau = -50 + 200 * (0.5/3) = -16.67 kPa > -30,
    # so no dwell, the extension included, or any longer wait grips
    leaky = AdhesionModel(leak_kpa_per_s=200.0)
    assert leaky.equilibrium_kpa > leaky.attach_threshold_kpa
    for dwells in (1, ATTACH_DWELLS, 100):
        p = pressure_under_suction(leaky, 0.0, dwells * leaky.dwell_s)
        assert p > leaky.attach_threshold_kpa
        assert held_legs(*cups(leaky, pressure=p), leaky) == []


def test_attach_with_tolerable_leak():
    # equilibrium -50 + 60 * (0.5/3) = -40 kPa, still below -30
    leaky = AdhesionModel(leak_kpa_per_s=60.0)
    p = pressure_under_suction(leaky, 0.0, leaky.dwell_s)
    assert held_legs(*cups(leaky, legs=(2,), pressure=p), leaky) == [2]


# --- detach ---------------------------------------------------------------

def test_detach_vents_to_zero():
    valve, pressure = cups()
    valve[4] = Valve.VENT
    pressure[4] = vent(pressure[4], 1.0)
    assert pressure[4] == 0.0
    assert held_legs(valve, pressure) == [1, 2, 3]


def test_detach_attach_round_trip():
    # leg 2 steps once a cycle: it lets go on its first vent tick and grips
    # again 15 ticks into its attach dwell, after 20 vent and 60 swing ticks
    records = run_scenario(ScenarioConfig(cycles=2)).records
    held = [rec.attached[2] for rec in records]
    assert held[0] and held[-1]
    assert [i for i in range(1, len(held)) if held[i] != held[i - 1]] == [170, 265, 850, 945]


# --- pressure dynamics ----------------------------------------------------

def test_suction_pressure_monotone_decreasing():
    previous = 0.0
    for i in range(1, 40):
        p = pressure_under_suction(MODEL, 0.0, i * 0.025)
        assert p < previous
        previous = p
    assert previous > MODEL.vacuum_kpa  # asymptote never crossed


def test_vent_pressure_monotone_rising_to_zero():
    p0 = MODEL.vacuum_kpa
    previous = p0
    for i in range(1, 9):
        p = vent(p0, i / 8)
        assert p >= previous
        previous = p
    assert vent(p0, 1.0) == 0.0


def test_equilibrium_is_fixed_point():
    p_eq = MODEL.equilibrium_kpa
    assert pressure_under_suction(MODEL, p_eq, 1.234) == p_eq


# --- holding capacity -----------------------------------------------------

def test_holding_capacity_hand_values():
    # 3 cups at -50 kPa over 1000 mm^2 with mu = 0.5:
    # 50 kPa * 1000 mm^2 = 50 N per cup
    model = AdhesionModel(cup_area_mm2=1000.0)
    valve, pressure = cups(model, legs=(1, 2, 3))
    normal, tangential = holding_capacity(pressure, suction_legs(valve), model)
    assert normal == 150.0
    assert tangential == 75.0


def test_holding_capacity_empty():
    valve, pressure = cups(legs=())
    assert holding_capacity(pressure, suction_legs(valve), MODEL) == (0.0, 0.0)


def test_holding_capacity_linearity():
    model = AdhesionModel(cup_area_mm2=1000.0)

    def capacity(valve, pressure):
        return holding_capacity(pressure, suction_legs(valve), model)

    three = capacity(*cups(model, legs=(1, 2, 3)))
    four = capacity(*cups(model))
    assert four[0] / three[0] == 4.0 / 3.0
    assert four[1] / three[1] == 4.0 / 3.0
    # linear in vacuum depth as well
    assert capacity(*cups(model, pressure=2 * model.vacuum_kpa))[0] == 2.0 * four[0]


# --- structural invariants ------------------------------------------------

def test_never_attached_with_vent_or_pump_off():
    valve, pressure = cups()
    assert held_legs(valve, pressure) == [1, 2, 3, 4]
    # venting the valve clears attachment immediately, pressure regardless
    valve[1] = Valve.VENT
    assert not grip(pressure, suction_legs(valve), MODEL)[0][1]
    # pump off drops both of its legs
    assert held_legs(*cups(), pump_on={"A": True, "B": False}) == [1, 2]


def test_random_interleavings_preserve_invariant():
    # random valve switches, each followed by one dwell of suction or a full
    # vent, and random pump switches
    rng = random.Random(42)
    valve, pressure = cups(legs=())
    pump_on = {"A": True, "B": True}
    for _ in range(500):
        op = rng.randrange(4)
        leg = rng.choice(LEGS)
        pump = rng.choice(("A", "B"))
        if op == 0:
            valve[leg] = Valve.SUCTION
            if pump_on[PUMP_OF_LEG[leg]]:
                pressure[leg] = pressure_under_suction(MODEL, pressure[leg], MODEL.dwell_s)
        elif op == 1:
            valve[leg] = Valve.VENT
            pressure[leg] = vent(pressure[leg], 1.0)
        else:
            pump_on[pump] = op == 2
        attached = grip(pressure, suction_legs(valve, pump_on), MODEL)[0]
        for check in LEGS:
            if valve[check] is Valve.VENT or not pump_on[PUMP_OF_LEG[check]]:
                assert not attached[check]
            assert pressure[check] <= 0.0


def test_custom_pump_assignment():
    assert assign_pumps({"A": (1, 2, 3), "B": (4,)}) == {1: "A", 2: "A", 3: "A", 4: "B"}
    with pytest.raises(ValueError):
        assign_pumps({"A": (1, 2), "B": (2, 3)})


# --- model validation -----------------------------------------------------

def test_model_invariants():
    with pytest.raises(ValueError):
        AdhesionModel(cup_area_mm2=0.0)
    with pytest.raises(ValueError):
        AdhesionModel(vacuum_kpa=-20.0, attach_threshold_kpa=-30.0)
    with pytest.raises(ValueError):
        AdhesionModel(attach_threshold_kpa=5.0)
    with pytest.raises(ValueError):
        AdhesionModel(dwell_s=0.0)
    with pytest.raises(ValueError):
        AdhesionModel(friction=2.5)
    with pytest.raises(ValueError):
        AdhesionModel(leak_kpa_per_s=-1.0)


@pytest.mark.parametrize("field", ["cup_area_mm2", "vacuum_kpa", "attach_threshold_kpa",
                                   "dwell_s", "vent_s", "friction", "leak_kpa_per_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        AdhesionModel(**{field: value})


# --- one grip pass, one relaxation formula ------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_grip_agrees_with_attach_rule_and_capacity(seed):
    rng = random.Random(seed)
    pump_on = {"A": True, "B": rng.random() < 0.7}
    valve, pressure = {}, {}
    for leg in LEGS:
        valve[leg] = rng.choice([Valve.SUCTION, Valve.VENT])
        pressure[leg] = rng.uniform(-50.0, 0.0)
    legs = suction_legs(valve, pump_on)
    attached, normal, tangential = grip(pressure, legs, MODEL)
    assert list(attached) == [1, 2, 3, 4]
    assert attached == {leg: valve[leg] is Valve.SUCTION and pump_on[PUMP_OF_LEG[leg]]
                        and pressure[leg] <= MODEL.attach_threshold_kpa
                        for leg in LEGS}
    assert holding_capacity(pressure, legs, MODEL) == (normal, tangential)


@pytest.mark.parametrize("seed", range(8))
def test_grip_matches_the_attach_rule_written_out(seed):
    # The run's per-tick grip, given the legs under suction, must be the rule
    # written out: the same legs in the same order, the same force bits, and
    # holding_capacity its forces. Pressures include the threshold itself and
    # -0.0; pump B is off in some seeds, the pumps list their legs out of
    # order, and the dicts hold the legs in descending order.
    rng = random.Random(seed)
    threshold = MODEL.attach_threshold_kpa
    pump_of_leg = assign_pumps({"A": (4, 2), "B": (3, 1)})
    pump_on = {"A": True, "B": seed % 4 != 0 and rng.random() < 0.7}
    valve, pressure = {}, {}
    for leg in (4, 3, 2, 1):
        valve[leg] = rng.choice([Valve.SUCTION, Valve.VENT])
        pressure[leg] = rng.choice([threshold, -0.0, rng.uniform(-50.0, 0.0)])
    expected = {}
    normal_mn = 0.0
    for leg in LEGS:
        held = expected[leg] = (valve[leg] is Valve.SUCTION and pump_on[pump_of_leg[leg]]
                                and pressure[leg] <= threshold)
        if held:
            normal_mn += -pressure[leg] * MODEL.cup_area_mm2
    expected_forces = [(normal_mn / 1000.0).hex(), (MODEL.friction * normal_mn / 1000.0).hex()]
    legs = suction_legs(valve, pump_on, pump_of_leg)
    attached, normal, tangential = grip(pressure, legs, MODEL)
    assert list(attached.items()) == list(expected.items())
    assert [normal.hex(), tangential.hex()] == expected_forces
    assert holding_capacity(pressure, legs, MODEL) == (normal, tangential)


def test_cup_at_exactly_the_threshold_holds():
    valve, pressure = cups(pressure=MODEL.attach_threshold_kpa)
    assert held_legs(valve, pressure) == [1, 2, 3, 4]
    assert grip(pressure, LEGS, MODEL)[0][1]


def test_per_tick_relaxation_matches_closed_form_bit_for_bit():
    leaky = AdhesionModel(leak_kpa_per_s=30.0)
    decay = suction_decay(leaky, 0.01)
    p = 0.0
    for _ in range(100):
        expected = pressure_under_suction(leaky, p, 0.01)
        p = relax(p, leaky.equilibrium_kpa, decay)
        assert p.hex() == expected.hex()

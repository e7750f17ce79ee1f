import math
import random

import pytest

from wallclimber.pneumatics import (
    ATTACH_DWELLS,
    AdhesionModel,
    PneumaticState,
    Valve,
    grip,
    holding_capacity,
    pressure_under_suction,
    relax,
    suction_decay,
    vent,
)
from wallclimber.simulator import ScenarioConfig, run_scenario

MODEL = AdhesionModel()


def attached_state(model=MODEL, legs=(1, 2, 3, 4), pressure=None):
    state = PneumaticState.initial()
    pressure = model.vacuum_kpa if pressure is None else pressure
    for leg in legs:
        state.valve[leg] = Valve.SUCTION
        state.pressure_kpa[leg] = pressure
    return state


def held_legs(state, model=MODEL):
    return [leg for leg, held in state.grip(model)[0].items() if held]


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
    state = attached_state()
    state.pump_on["A"] = False
    assert [state.under_suction(leg) for leg in (1, 2, 3, 4)] == [False, False, True, True]
    # legs 3 and 4 ride pump B, still fine
    assert held_legs(state) == [3, 4]


def test_attach_timeout_with_leak():
    # leak equilibrium sits above the threshold, computed analytically:
    # p_eq = vacuum + leak * tau = -50 + 200 * (0.5/3) = -16.67 kPa > -30,
    # so no dwell, the extension included, or any longer wait grips
    leaky = AdhesionModel(leak_kpa_per_s=200.0)
    assert leaky.equilibrium_kpa > leaky.attach_threshold_kpa
    for dwells in (1, ATTACH_DWELLS, 100):
        p = pressure_under_suction(leaky, 0.0, dwells * leaky.dwell_s)
        assert p > leaky.attach_threshold_kpa
        assert held_legs(attached_state(leaky, pressure=p), leaky) == []


def test_attach_with_tolerable_leak():
    # equilibrium -50 + 60 * (0.5/3) = -40 kPa, still below -30
    leaky = AdhesionModel(leak_kpa_per_s=60.0)
    p = pressure_under_suction(leaky, 0.0, leaky.dwell_s)
    assert held_legs(attached_state(leaky, legs=(2,), pressure=p), leaky) == [2]


# --- detach ---------------------------------------------------------------

def test_detach_vents_to_zero():
    state = attached_state()
    state.valve[4] = Valve.VENT
    state.pressure_kpa[4] = vent(state.pressure_kpa[4], 1.0)
    assert state.pressure_kpa[4] == 0.0
    assert held_legs(state) == [1, 2, 3]


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
    state = attached_state(model, legs=(1, 2, 3))
    normal, tangential = holding_capacity(state, model)
    assert normal == 150.0
    assert tangential == 75.0


def test_holding_capacity_empty():
    assert holding_capacity(PneumaticState.initial(), MODEL) == (0.0, 0.0)


def test_holding_capacity_linearity():
    model = AdhesionModel(cup_area_mm2=1000.0)
    three = holding_capacity(attached_state(model, legs=(1, 2, 3)), model)
    four = holding_capacity(attached_state(model), model)
    assert four[0] / three[0] == 4.0 / 3.0
    assert four[1] / three[1] == 4.0 / 3.0
    # linear in vacuum depth as well
    deeper = attached_state(model, pressure=2 * model.vacuum_kpa)
    assert holding_capacity(deeper, model)[0] == 2.0 * four[0]


# --- structural invariants ------------------------------------------------

def test_never_attached_with_vent_or_pump_off():
    state = attached_state()
    assert held_legs(state) == [1, 2, 3, 4]
    # venting the valve clears attachment immediately, pressure regardless
    vented = attached_state()
    vented.valve[1] = Valve.VENT
    assert not vented.grip(MODEL)[0][1]
    # pump off drops both of its legs
    dead = attached_state()
    dead.pump_on["B"] = False
    assert held_legs(dead) == [1, 2]


def test_random_interleavings_preserve_invariant():
    # random valve switches, each followed by one dwell of suction or a full
    # vent, and random pump switches
    rng = random.Random(42)
    state = PneumaticState.initial()
    for _ in range(500):
        op = rng.randrange(4)
        leg = rng.choice((1, 2, 3, 4))
        pump = rng.choice(("A", "B"))
        if op == 0:
            state.valve[leg] = Valve.SUCTION
            if state.under_suction(leg):
                state.pressure_kpa[leg] = pressure_under_suction(MODEL, state.pressure_kpa[leg],
                                                                 MODEL.dwell_s)
        elif op == 1:
            state.valve[leg] = Valve.VENT
            state.pressure_kpa[leg] = vent(state.pressure_kpa[leg], 1.0)
        else:
            state.pump_on[pump] = op == 2
        attached = state.grip(MODEL)[0]
        for check in (1, 2, 3, 4):
            if state.valve[check] is Valve.VENT or not state.pump_running(check):
                assert not attached[check]
            assert state.pressure_kpa[check] <= 0.0


def test_custom_pump_assignment():
    state = PneumaticState.initial({"A": (1, 2, 3), "B": (4,)})
    assert state.pump_of_leg[3] == "A"
    with pytest.raises(ValueError):
        PneumaticState.initial({"A": (1, 2), "B": (2, 3)})


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
    state = PneumaticState.initial()
    state.pump_on["B"] = rng.random() < 0.7
    for leg in (1, 2, 3, 4):
        state.valve[leg] = rng.choice([Valve.SUCTION, Valve.VENT])
        state.pressure_kpa[leg] = rng.uniform(-50.0, 0.0)
    attached, normal, tangential = state.grip(MODEL)
    assert list(attached) == [1, 2, 3, 4]
    assert attached == {leg: state.under_suction(leg)
                        and state.pressure_kpa[leg] <= MODEL.attach_threshold_kpa
                        for leg in (1, 2, 3, 4)}
    assert holding_capacity(state, MODEL) == (normal, tangential)


@pytest.mark.parametrize("seed", range(8))
def test_grip_matches_the_attach_rule_written_out(seed):
    # The run's per-tick grip, given the legs under suction, and the state's
    # grip must both be the rule written out: the same legs in the same order,
    # the same force bits. Pressures include the threshold itself and -0.0;
    # pump B is off in some seeds, and the pumps list their legs out of order.
    rng = random.Random(seed)
    threshold = MODEL.attach_threshold_kpa
    state = PneumaticState.initial({"A": (4, 2), "B": (3, 1)})
    state.pump_on["B"] = seed % 4 != 0 and rng.random() < 0.7
    for leg in (4, 3, 2, 1):
        state.valve[leg] = rng.choice([Valve.SUCTION, Valve.VENT])
        state.pressure_kpa[leg] = rng.choice([threshold, -0.0, rng.uniform(-50.0, 0.0)])
    expected = {}
    normal_mn = 0.0
    for leg in (1, 2, 3, 4):
        held = expected[leg] = (state.valve[leg] is Valve.SUCTION
                                and state.pump_on[state.pump_of_leg[leg]]
                                and state.pressure_kpa[leg] <= threshold)
        if held:
            normal_mn += -state.pressure_kpa[leg] * MODEL.cup_area_mm2
    expected_forces = [(normal_mn / 1000.0).hex(), (MODEL.friction * normal_mn / 1000.0).hex()]
    suction_legs = [leg for leg in (1, 2, 3, 4) if state.under_suction(leg)]
    for attached, normal, tangential in (state.grip(MODEL),
                                         grip(state.pressure_kpa, suction_legs, MODEL)):
        assert list(attached.items()) == list(expected.items())
        assert [normal.hex(), tangential.hex()] == expected_forces


def test_cup_at_exactly_the_threshold_holds():
    state = attached_state(pressure=MODEL.attach_threshold_kpa)
    assert held_legs(state) == [1, 2, 3, 4]
    assert state.grip(MODEL)[0][1]


def test_per_tick_relaxation_matches_closed_form_bit_for_bit():
    leaky = AdhesionModel(leak_kpa_per_s=30.0)
    decay = suction_decay(leaky, 0.01)
    p = 0.0
    for _ in range(100):
        expected = pressure_under_suction(leaky, p, 0.01)
        p = relax(p, leaky.equilibrium_kpa, decay)
        assert p.hex() == expected.hex()

"""Suction subsystem: two diaphragm pumps feeding four cups through
per-leg solenoid valves on a relay board.

Each valve routes its cup either to its assigned pump (SUCTION) or to
atmosphere (VENT). Gauge pressures are kPa and non-positive; a cup
counts as attached only while its valve is on SUCTION, its pump is
running, and its pressure has passed the attach threshold -- so an
attached reading can never coexist with a vented valve or a dead pump.
`grip` states that rule once, split where a run's tick loop splits it:
the caller names the legs under suction (valve on suction and pump
running), which change only between phases, and `grip` reads the
pressures, which change every tick. Every pump of a run runs for the
whole run, so a run's legs under suction are those whose valve is on
suction; `assign_pumps` checks which pump feeds which leg, and the power
model counts the pumps.

Pressure dynamics are first order: under suction the cup pressure
relaxes exponentially toward the pump's steady vacuum level (time
constant dwell/3, so one dwell settles to within 5%), optionally offset
by a constant leak that raises the reachable equilibrium; venting ramps
the pressure linearly back to zero over the vent time.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import check_fields, is_int

DEFAULT_PUMP_LEGS = {"A": (1, 2), "B": (3, 4)}

# run_scenario's attach policy: one dwell, one extension, then attach_timeout.
ATTACH_DWELLS = 2


class Valve(Enum):
    SUCTION = "suction"
    VENT = "vent"


@dataclass(frozen=True)
class AdhesionModel:
    """Calibration of one cup/pump pair.

    These are simulation calibration values, not measurements of a
    physical robot; all of them are exposed in the config file.
    """

    cup_area_mm2: float = 1963.0
    vacuum_kpa: float = -50.0
    attach_threshold_kpa: float = -30.0
    dwell_s: float = 0.5
    vent_s: float = 0.2
    friction: float = 0.5
    leak_kpa_per_s: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.cup_area_mm2 <= 0.0:
            raise ValueError(f"cup_area_mm2 must be > 0, got {self.cup_area_mm2}")
        if not self.vacuum_kpa < self.attach_threshold_kpa < 0.0:
            raise ValueError(
                "need vacuum_kpa < attach_threshold_kpa < 0, got "
                f"{self.vacuum_kpa} / {self.attach_threshold_kpa}"
            )
        if self.dwell_s <= 0.0 or self.vent_s <= 0.0:
            raise ValueError("dwell_s and vent_s must be > 0")
        if self.time_constant_s == 0.0:  # suction_decay divides by it
            raise ValueError(f"dwell_s must be large enough that dwell_s / 3 > 0, "
                             f"got {self.dwell_s}")
        if not 0.0 < self.friction <= 2.0:
            raise ValueError(f"friction must be in (0, 2], got {self.friction}")
        if self.leak_kpa_per_s < 0.0:
            raise ValueError(f"leak_kpa_per_s must be >= 0, got {self.leak_kpa_per_s}")

    @property
    def time_constant_s(self):
        return self.dwell_s / 3.0

    @property
    def equilibrium_kpa(self):
        """Steady pressure under suction once the leak balances the pump."""
        return self.vacuum_kpa + self.leak_kpa_per_s * self.time_constant_s


def suction_decay(model, dt_s):
    """Fraction of the gap to the suction equilibrium still open after dt_s."""
    return math.exp(-dt_s / model.time_constant_s)


def relax(p0_kpa, p_eq_kpa, decay):
    """First-order relaxation: close all but the fraction `decay` of the gap
    from p0 to the equilibrium p_eq. A run with a fixed tick computes p_eq
    and the decay once and calls this per cup and tick."""
    return p_eq_kpa + (p0_kpa - p_eq_kpa) * decay


def vent(p0_kpa, fraction):
    """Linear vent ramp: the pressure once `fraction` of the vent time has
    passed since it started at p0. A full ramp ends at -0.0 for p0 < 0."""
    return p0_kpa * (1.0 - fraction)


def pressure_under_suction(model, p0_kpa, dt_s):
    """Closed-form relaxation toward the leak-shifted equilibrium."""
    return relax(p0_kpa, model.equilibrium_kpa, suction_decay(model, dt_s))


def assign_pumps(pump_legs):
    """Map each leg to its pump from a pump -> legs assignment. Raises
    ValueError unless every leg 1..4 is listed exactly once, as an int (a
    bool or a float such as 4.0 is no leg id), and every pump feeds a leg:
    the power model bills each pump listed."""
    pump_of_leg = {leg: pump for pump, legs in pump_legs.items() for leg in legs}
    legs = [leg for legs in pump_legs.values() for leg in legs]
    if sorted(legs) != [1, 2, 3, 4] or not all(map(is_int, legs)) or not all(pump_legs.values()):
        raise ValueError(f"pump_legs must be a pump assignment that covers the int legs 1..4 "
                         f"once each, got {pump_legs}")
    return pump_of_leg


def grip(pressure_kpa, suction_legs, model):
    """One pass over the legs in the order `pressure_kpa` lists them:
    (attached, normal_N, tangential_N), where attached maps each leg of
    `pressure_kpa`, in that order, to whether its cup holds, and the forces
    are the grip of the attached cups, summed in that order. A run keeps its
    pressures as legs 1..4 in order, so it sums them in leg order.

    The one statement of the attach rule. The caller names the legs under
    suction in `suction_legs`: those whose valve is on suction and whose
    pump runs. A run keeps every pump running, so it names the legs whose
    valve is on suction. A cup holds if its leg is under suction and its
    pressure is at or below the attach threshold. Normal force sums
    |pressure| * area per attached cup (kPa * mm^2 is millinewtons); the
    friction cone scales it into tangential capacity.
    """
    threshold, area = model.attach_threshold_kpa, model.cup_area_mm2
    attached = {}
    total_mn = 0.0
    for leg, p in pressure_kpa.items():
        if leg in suction_legs and p <= threshold:
            attached[leg] = True
            total_mn += -p * area
        else:
            attached[leg] = False
    normal_n = total_mn / 1000.0
    return attached, normal_n, model.friction * normal_n


def holding_capacity(pressure_kpa, suction_legs, model):
    """Total grip of the attached cups: (normal_N, tangential_N), the forces
    of `grip` over the pressures and legs under suction it is given.

    No run calls it: a run reads its capacities from `grip`. It stays only
    because benchmarks/traced_run.py looks it up by name to count its
    calls, which therefore read 0.
    """
    return grip(pressure_kpa, suction_legs, model)[1:]

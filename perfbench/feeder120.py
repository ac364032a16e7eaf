"""Seeded synthetic LV feeder and scenario for the ``feeder120_loop`` workload.

The feeder is built only from :mod:`flexloop.grid`'s public dataclasses. Its
series impedances are those of common aluminium LV cables (NAYY-J), not
values tuned to keep the plant's droop fixed-point loop short, so the
number of power flows per sample is whatever the physics gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flexloop.grid import Branch, Bus, DroopInverter, EvCharger, Fpu, Load, NetworkSpec
from flexloop.plant import PlantConfig, Scenario, ScenarioEvent

# Series impedance per km (r_ohm, x_ohm) of NAYY-J 0.6/1 kV cables at 20 C.
CABLE_OHM_PER_KM = {
    "NAYY 4x240": (0.125, 0.080),
    "NAYY 4x150": (0.206, 0.080),
    "NAYY 4x95": (0.320, 0.082),
}

N_BUSES = 120  # slack included
N_TRUNK = 30
N_FPU = 24
N_DROOP = 4
EV_RATING_KW = 11.0
V_NOMINAL = 400.0
DURATION_S = 500.0  # 101 samples at the plant's default 5 s sampling interval
EXPORT_SHARE = 0.35
SLACK_STEP_PU = 1.03


@dataclass(frozen=True)
class Feeder:
    spec: NetworkSpec
    scenario: Scenario
    properties: dict


def _cable(kind: str, length_km: float) -> tuple[float, float]:
    r, x = CABLE_OHM_PER_KM[kind]
    return r * length_km, x * length_km


def generate(seed: int) -> Feeder:
    """Radial feeder of ``N_BUSES`` buses plus its closed-loop scenario.

    A trunk of ``N_TRUNK`` buses leaves the slack (the substation's LV
    busbar); every other bus hangs off a random earlier bus as a lateral.
    About half the PQ buses carry a load; ``N_FPU`` controllable units,
    ``N_DROOP`` legacy droop inverters and one EV charger sit on distinct
    buses. The scenario places a PCC request, a slack-voltage step, an EV
    start and a load change.
    """
    rng = np.random.default_rng(seed)
    buses = [Bus(1, V_NOMINAL, "slack")] + [Bus(i, V_NOMINAL, "pq") for i in range(2, N_BUSES + 1)]
    branches = []
    r_path = {1: 0.0}  # series resistance from the slack, ohm
    for i in range(2, N_BUSES + 1):
        if i <= N_TRUNK + 1:
            parent = i - 1
            kind = "NAYY 4x240" if i <= N_TRUNK // 3 + 1 else "NAYY 4x150"
            r, x = _cable(kind, rng.uniform(0.020, 0.040))
        else:
            parent = int(rng.integers(2, i))
            r, x = _cable("NAYY 4x95", rng.uniform(0.015, 0.040))
        branches.append(Branch(parent, i, r, x))
        r_path[i] = r_path[parent] + r

    pq = np.arange(2, N_BUSES + 1)
    load_buses = np.sort(rng.choice(pq, size=len(pq) // 2, replace=False))
    roles = rng.permutation(pq)
    fpu_buses = np.sort(roles[:N_FPU])
    # droop units spread evenly along the feeder by electrical distance, so
    # the droop loop's gain (and its power flows per sample) varies little
    # from seed to seed; the EV charger sits at the most remote free bus
    rest = sorted(roles[N_FPU:], key=lambda b: r_path[int(b)])
    picks = [int(round(q * (len(rest) - 2))) for q in np.linspace(0.2, 0.9, N_DROOP)]
    droop_buses = np.sort([rest[k] for k in picks])
    ev_bus = int(rest[-1])

    devices: list = []
    load_kw = 0.0
    for b in load_buses:
        p = float(rng.uniform(0.5, 2.0))
        devices.append(Load(int(b), p * 1e3, p * 1e3 * 0.33))  # cos(phi) ~ 0.95
        load_kw += p
    fpu_p_max_kw = 0.0
    for b in fpu_buses:
        p_max = float(rng.uniform(5.0, 10.0))
        devices.append(Fpu(int(b), -3e3, p_max * 1e3, -0.5 * p_max * 1e3, 0.5 * p_max * 1e3))
        fpu_p_max_kw += p_max
    droop_kw = 0.0
    for b in droop_buses:
        p = float(rng.uniform(3.0, 6.0))
        devices.append(DroopInverter(int(b), p * 1e3, 0.5 * p * 1e3))
        droop_kw += p
    devices.append(EvCharger(ev_bus, EV_RATING_KW * 1e3))

    # request: export a fixed share of the FPU capability beyond the net load
    p_set_kw = load_kw - droop_kw - EXPORT_SHARE * fpu_p_max_kw
    changed = int(load_buses[rng.integers(len(load_buses))])
    new_load_kw = float(rng.uniform(4.0, 6.0))
    events = (
        ScenarioEvent.make(10.0, "set_flexibility", p_set_kw=round(p_set_kw, 3)),
        ScenarioEvent.make(150.0, "slack_voltage_change", v_pu=SLACK_STEP_PU),
        ScenarioEvent.make(250.0, "ev_charge_start", bus=float(ev_bus), p_kw=-EV_RATING_KW),
        ScenarioEvent.make(350.0, "load_change", bus=float(changed), p_kw=round(new_load_kw, 3),
                           q_kvar=round(0.33 * new_load_kw, 3)),
    )
    spec = NetworkSpec(buses=tuple(buses), branches=tuple(branches), devices=tuple(devices))
    properties = {
        "buses": N_BUSES,
        "setpoints": 2 * N_FPU,
        "loads": len(load_buses),
        "droop_units": N_DROOP,
        "ev_bus": ev_bus,
        "samples": int(round(DURATION_S / PlantConfig().t_sample_s)) + 1,
        "load_kw": round(load_kw, 3),
        "fpu_p_max_kw": round(fpu_p_max_kw, 3),
        "p_set_kw": round(p_set_kw, 3),
    }
    return Feeder(spec, Scenario(f"feeder120_seed{seed}", DURATION_S, events), properties)

"""Quasi-static plant standing in for the physical grid.

One step per sampling interval: scheduled disturbances are applied, the
legacy Q(V) droop is iterated to its fixed point against the power flow,
and a (optionally noisy, optionally delayed) measurement is emitted.
Network and inverter dynamics are assumed settled within one sample.

The plant is a pure state machine: ``Plant.step`` maps an old state and a
commanded setpoint vector to a new state plus measurement, so independent
plants can run concurrently without shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .controller import Measurement
from .grid import DeviceSet, NetworkModel, add_setpoint_injections, base_injections
from .powerflow import PowerFlowSolution, solve_power_flow

DROOP_TOL = 1e-8
DROOP_MAX_ITER = 50

EVENT_KINDS = {
    "set_flexibility": ("p_set_kw",),
    "ev_charge_start": ("bus", "p_kw"),
    "ev_charge_stop": ("bus",),
    "slack_voltage_change": ("v_pu",),
    "load_change": ("bus", "p_kw", "q_kvar"),
}
PLANT_EVENT_KINDS = frozenset(EVENT_KINDS) - {"set_flexibility"}


class PlantDivergedError(RuntimeError):
    """The power flow inside a plant step failed to converge."""


class ScenarioError(ValueError):
    """A scenario violates an ordering or payload rule."""


@dataclass(frozen=True)
class DroopCurve:
    """Piecewise-linear Q(V) law, all quantities per-unit.

    Zero inside the deadband, linear ramps to full absorption at ``v_hi``
    and full injection at ``v_lo``, clamped beyond. Monotonically
    non-increasing and continuous by construction.
    """

    q_max: float
    v_db_lo: float = 0.99
    v_db_hi: float = 1.01
    v_lo: float = 0.95
    v_hi: float = 1.05

    def __post_init__(self) -> None:
        if not (self.v_lo < self.v_db_lo <= self.v_db_hi < self.v_hi):
            raise ValueError("droop curve knees must satisfy v_lo < db_lo <= db_hi < v_hi")
        if self.q_max < 0:
            raise ValueError("droop q_max must be nonnegative")


def qv_droop(curve: DroopCurve, v: float) -> float:
    """Reactive response to a terminal voltage, per-unit."""
    if v <= 0:
        raise ValueError("voltage must be positive")
    if v > curve.v_db_hi:
        frac = min(1.0, (v - curve.v_db_hi) / (curve.v_hi - curve.v_db_hi))
        return -curve.q_max * frac
    if v < curve.v_db_lo:
        frac = min(1.0, (curve.v_db_lo - v) / (curve.v_db_lo - curve.v_lo))
        return curve.q_max * frac
    return 0.0


def qv_droop_slope(curve: DroopCurve, v: float) -> float:
    """Derivative of :func:`qv_droop`: the ramp's slope on a ramp, else 0."""
    if curve.v_db_hi < v < curve.v_hi:
        return -curve.q_max / (curve.v_hi - curve.v_db_hi)
    if curve.v_lo < v < curve.v_db_lo:
        return -curve.q_max / (curve.v_db_lo - curve.v_lo)
    return 0.0


def droop_curves(net: NetworkModel, devices: DeviceSet) -> tuple[tuple[DroopCurve, int], ...]:
    """Per legacy inverter, its per-unit Q(V) law and its bus's index into
    the full bus set, in device order."""
    s = net.s_base_va
    return tuple(
        (DroopCurve(inv.q_max_var / s, inv.v_db_lo, inv.v_db_hi, inv.v_lo, inv.v_hi), net.index(inv.bus))
        for inv in devices.legacy
    )


@dataclass(frozen=True)
class ScenarioEvent:
    time_s: float
    kind: str
    payload: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ScenarioError(f"unknown event kind {self.kind!r}")
        if self.time_s < 0:
            raise ScenarioError("negative event time")
        keys = tuple(k for k, _ in self.payload)
        expected = EVENT_KINDS[self.kind]
        if sorted(keys) != sorted(expected):
            raise ScenarioError(
                f"event {self.kind!r} expects payload {expected}, got {keys}"
            )
        if self.kind == "slack_voltage_change":
            v = self.get("v_pu")
            if not 0.8 <= v <= 1.2:
                raise ScenarioError(f"slack voltage {v} outside [0.8, 1.2] p.u.")
        if self.kind == "ev_charge_start" and self.get("p_kw") > 0:
            raise ScenarioError("EV charging power must be <= 0 (consumption)")

    @staticmethod
    def make(time_s: float, kind: str, **payload: float) -> "ScenarioEvent":
        return ScenarioEvent(time_s, kind, tuple(sorted(payload.items())))

    def get(self, key: str) -> float:
        for k, v in self.payload:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    events: tuple[ScenarioEvent, ...]

    def __post_init__(self) -> None:
        times = [e.time_s for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ScenarioError("events not sorted by time")
        if self.duration_s <= 0:
            raise ScenarioError("scenario duration must be positive")


def schedule(events: tuple[ScenarioEvent, ...], t_prev: float, t: float) -> tuple[ScenarioEvent, ...]:
    """Events due in the half-open interval (t_prev, t], in file order."""
    return tuple(e for e in events if t_prev < e.time_s <= t)


def validate_scenario(scenario: Scenario, net: NetworkModel, devices: DeviceSet) -> None:
    """Check event targets against the actual device population."""
    ev_buses = {c.bus: c for c in devices.ev_points}
    load_buses = {ld.bus for ld in devices.loads}
    for e in scenario.events:
        if e.kind in ("ev_charge_start", "ev_charge_stop"):
            bus = int(e.get("bus"))
            if bus not in ev_buses:
                raise ScenarioError(f"no EV charger at bus {bus}")
            if e.kind == "ev_charge_start":
                if abs(e.get("p_kw")) * 1e3 > ev_buses[bus].max_charge_w + 1e-9:
                    raise ScenarioError(
                        f"EV power {e.get('p_kw')} kW exceeds charger rating at bus {bus}"
                    )
        elif e.kind == "load_change":
            bus = int(e.get("bus"))
            if bus not in load_buses:
                raise ScenarioError(f"no load at bus {bus}")


@dataclass(frozen=True)
class PlantConfig:
    t_sample_s: float = 5.0
    actuation_delay: int = 1  # samples between command and application
    measurement_delay: int = 0
    noise_sigma: float = 0.0  # p.u., applied to every channel
    seed: int = 0
    droop_enabled: bool = True
    slack_v0: float = 1.0

    def __post_init__(self) -> None:
        if self.t_sample_s <= 0:
            raise ValueError("sampling time must be positive")
        if self.actuation_delay < 0 or self.measurement_delay < 0:
            raise ValueError("delays are nonnegative sample counts")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be nonnegative")


@dataclass(frozen=True)
class PlantState:
    """Disturbance state plus actuation/measurement pipelines at time ``t``."""

    t: float
    step_index: int
    queue: tuple[np.ndarray, ...]  # pending commands (actuation_delay - 1 deep)
    applied: np.ndarray
    loads: np.ndarray  # current (P, Q) per load, p.u.
    ev_power: np.ndarray  # per charger, p.u. (<= 0 while charging)
    slack_v: float
    droop_q: np.ndarray  # per legacy inverter, p.u.
    droop_ok: bool
    buffer: tuple[Measurement, ...]


def steady_state_response(
    net: NetworkModel,
    devices: DeviceSet,
    u_pu: np.ndarray,
    *,
    loads_pu: np.ndarray | None = None,
    ev_pu: np.ndarray | None = None,
    slack_v: float = 1.0,
    droop_enabled: bool = True,
    droop_q0: np.ndarray | None = None,
    tol: float = DROOP_TOL,
    max_iter: int = DROOP_MAX_ITER,
) -> tuple[PowerFlowSolution, np.ndarray, bool]:
    """Resolve the grid's steady state for given setpoints and disturbances.

    Iterates the legacy droop against the power flow until the reactive
    output is stationary. Returns the power-flow solution, the droop outputs
    and a flag that is False when the inner loop hit its cap (the droop
    output is then frozen at the last iterate, mimicking a limiting
    inverter). Raises :class:`PlantDivergedError` if the power flow itself
    fails.
    """
    if droop_q0 is None or not droop_enabled:
        droop_q0 = np.zeros(len(devices.legacy))
    q = np.array(droop_q0, dtype=float)

    def _solve(q_vec: np.ndarray) -> PowerFlowSolution:
        inj = base_injections(net, devices, loads_pu=loads_pu, ev_pu=ev_pu, droop_q=q_vec)
        sol = solve_power_flow(net, add_setpoint_injections(inj, net, devices, u_pu), slack_v)
        if not sol.converged:
            raise PlantDivergedError(
                f"power flow did not converge (max mismatch {sol.max_mismatch_pu:.3e} p.u.)"
            )
        return sol

    if not droop_enabled or not devices.legacy:
        return _solve(q), q, True

    curves = droop_curves(net, devices)
    sol = _solve(q)
    for _ in range(max_iter):
        q_new = np.array([qv_droop(c, sol.v_mag[i]) for c, i in curves])
        if np.max(np.abs(q_new - q), initial=0.0) < tol:
            return sol, q_new, True
        q = q_new
        sol = _solve(q)
    return sol, q, False  # frozen at the last iterate


class Plant:
    """Discrete-time wrapper binding a network, devices and a plant config."""

    def __init__(self, net: NetworkModel, devices: DeviceSet, config: PlantConfig):
        self.net = net
        self.devices = devices
        self.config = config
        self._lb, self._ub = devices.setpoint_bounds_pu(net.s_base_va)
        self._monitored = net.pq_ids

    def initial_state(self, u0: np.ndarray) -> PlantState:
        """Pre-scenario rest state at ``u0``; requires a solvable power flow.

        The measurement pipeline is primed with the rest-state measurement
        (back-dated one sample apart) so delayed emissions keep strictly
        increasing timestamps from the first step on.
        """
        cfg = self.config
        u0 = np.clip(np.asarray(u0, dtype=float), self._lb, self._ub)
        queue_depth = max(0, cfg.actuation_delay - 1)
        state = PlantState(
            t=-cfg.t_sample_s,
            step_index=0,
            queue=tuple(u0.copy() for _ in range(queue_depth)),
            applied=u0.copy(),
            loads=self.devices.static_loads_pu(self.net.s_base_va),
            ev_power=np.zeros(len(self.devices.ev_points)),
            slack_v=cfg.slack_v0,
            droop_q=np.zeros(len(self.devices.legacy)),
            droop_ok=True,
            buffer=(),
        )
        if cfg.measurement_delay > 0:
            state, rest = self._resolve(state, u0, state.t)
            m = cfg.measurement_delay
            primed = tuple(
                replace(rest, timestamp=state.t - (m - 1 - i) * cfg.t_sample_s)
                for i in range(m)
            )
            state = replace(state, buffer=primed)
        return state

    # -- event application -------------------------------------------------

    def _apply_events(self, state: PlantState, events) -> PlantState:
        loads = state.loads
        ev = state.ev_power
        slack = state.slack_v
        for e in events:
            if e.kind not in PLANT_EVENT_KINDS:
                raise ScenarioError(f"event kind {e.kind!r} is not a plant event")
            if e.kind == "ev_charge_start":
                bus = int(e.get("bus"))
                idx = [c.bus for c in self.devices.ev_points].index(bus)
                rating = self.devices.ev_points[idx].max_charge_w / self.net.s_base_va
                ev = ev.copy()
                ev[idx] = float(np.clip(e.get("p_kw") * 1e3 / self.net.s_base_va, -rating, 0.0))
            elif e.kind == "ev_charge_stop":
                bus = int(e.get("bus"))
                idx = [c.bus for c in self.devices.ev_points].index(bus)
                ev = ev.copy()
                ev[idx] = 0.0
            elif e.kind == "slack_voltage_change":
                slack = float(e.get("v_pu"))
            elif e.kind == "load_change":
                bus = int(e.get("bus"))
                idx = [ld.bus for ld in self.devices.loads].index(bus)
                loads = loads.copy()
                loads[idx, 0] = e.get("p_kw") * 1e3 / self.net.s_base_va
                loads[idx, 1] = e.get("q_kvar") * 1e3 / self.net.s_base_va
        return replace(state, loads=loads, ev_power=ev, slack_v=slack)

    # -- stepping ----------------------------------------------------------

    def _resolve(self, state: PlantState, applied: np.ndarray, t: float) -> tuple[PlantState, Measurement]:
        cfg = self.config
        sol, droop_q, ok = steady_state_response(
            self.net,
            self.devices,
            applied,
            loads_pu=state.loads,
            ev_pu=state.ev_power,
            slack_v=state.slack_v,
            droop_enabled=cfg.droop_enabled,
            droop_q0=state.droop_q,
        )
        v = sol.v_mag[1:].copy()
        p_pcc = sol.pcc_power_pu
        if cfg.noise_sigma > 0:
            rng = np.random.default_rng((cfg.seed, state.step_index))
            v = v + rng.normal(0.0, cfg.noise_sigma, v.shape[0])
            p_pcc = p_pcc + float(rng.normal(0.0, cfg.noise_sigma))
        meas = Measurement.make(
            v, self._monitored, p_pcc, t, flags=() if ok else ("droop_limit",)
        )
        new_state = replace(
            state, applied=applied, droop_q=droop_q, droop_ok=ok, t=t
        )
        return new_state, meas

    def step(
        self, state: PlantState, commanded: np.ndarray, events=()
    ) -> tuple[PlantState, Measurement]:
        """Advance one sampling interval.

        Applies events due at the new sample time, moves the actuation
        pipeline, resolves the droop/power-flow fixed point and emits the
        measurement (subject to the configured measurement delay).
        """
        cfg = self.config
        t = state.t + cfg.t_sample_s
        state = self._apply_events(state, events)

        commanded = np.clip(np.asarray(commanded, dtype=float), self._lb, self._ub)
        pipeline = state.queue + (commanded,)
        applied, queue = pipeline[0], pipeline[1:]

        state, meas = self._resolve(state, applied, t)
        buffer = (state.buffer + (meas,))[-(cfg.measurement_delay + 1):]
        emitted = buffer[0]
        return (
            replace(state, queue=queue, buffer=buffer, step_index=state.step_index + 1),
            emitted,
        )

    def apply_now(self, state: PlantState, commanded: np.ndarray) -> tuple[PlantState, Measurement]:
        """Re-resolve the current sample with a new command (zero actuation
        delay); time does not advance and no events fire."""
        commanded = np.clip(np.asarray(commanded, dtype=float), self._lb, self._ub)
        state, meas = self._resolve(state, commanded, state.t)
        buffer = state.buffer[:-1] + (meas,) if state.buffer else (meas,)
        emitted = buffer[0]
        return replace(state, buffer=buffer), emitted

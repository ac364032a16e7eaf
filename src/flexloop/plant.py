"""Quasi-static plant standing in for the physical grid.

One step per sampling interval: scheduled disturbances are applied, one
power flow solves the grid together with the legacy inverters' Q(V) droop,
warm-started from the previous sample's voltages, and a (optionally noisy,
optionally delayed) measurement is emitted.
Network and inverter dynamics are assumed settled within one sample.

Plant time is the sample index: sample k is at ``k * t_sample_s``. Every
measurement the plant returns draws its own noise: sample k's from
``(seed, k)``, primed copy i's from ``(seed, i, 2)`` and the re-solve of
:meth:`Plant.apply_now` after n steps from ``(seed, n, 1)``.

The plant is a pure state machine: ``Plant.step`` maps an old state and a
commanded setpoint vector to a new state plus measurement, so independent
plants can run concurrently without shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .controller import Measurement
from .grid import DeviceSet, DroopLaw, NetworkModel, droop_law, injections
from .powerflow import PowerFlowError, PowerFlowSolution, solve_power_flow

EVENT_KINDS = {
    "set_flexibility": ("p_set_kw",),
    "ev_charge_start": ("bus", "p_kw"),
    "ev_charge_stop": ("bus",),
    "slack_voltage_change": ("v_pu",),
    "load_change": ("bus", "p_kw", "q_kvar"),
}
PLANT_EVENT_KINDS = frozenset(EVENT_KINDS) - {"set_flexibility"}


class PlantDivergedError(RuntimeError):
    """The power flow inside a plant step failed to converge or to solve."""


class ScenarioError(ValueError):
    """A scenario violates an ordering or payload rule."""


@dataclass(frozen=True)
class ScenarioEvent:
    time_s: float
    kind: str
    payload: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ScenarioError(f"unknown event kind {self.kind!r}")
        # comparisons with NaN are false, so each check also rejects NaN
        if not 0.0 <= self.time_s < np.inf:
            raise ScenarioError(f"non-finite or negative event time {self.time_s}")
        keys = tuple(k for k, _ in self.payload)
        expected = EVENT_KINDS[self.kind]
        if sorted(keys) != sorted(expected):
            raise ScenarioError(
                f"event {self.kind!r} expects payload {expected}, got {keys}"
            )
        if not all(-np.inf < v < np.inf for _, v in self.payload):
            raise ScenarioError(f"event {self.kind!r} payload must be finite, got {self.payload}")
        if "bus" in keys and self.get("bus") != int(self.get("bus")):
            raise ScenarioError(f"event {self.kind!r} bus must be an integer, got {self.get('bus')}")
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
        if not 0.0 < self.duration_s < np.inf:
            raise ScenarioError(f"scenario duration must be positive and finite, got {self.duration_s}")


def schedule(events: tuple[ScenarioEvent, ...], t_prev: float, t: float) -> tuple[ScenarioEvent, ...]:
    """Events due in the half-open interval (t_prev, t], in file order."""
    return tuple(e for e in events if t_prev < e.time_s <= t)


@dataclass(frozen=True)
class PlantConfig:
    t_sample_s: float = 5.0
    actuation_delay: int = 1  # samples between command and application
    measurement_delay: int = 0
    noise_sigma: float = 0.0  # p.u., applied to every channel
    seed: int = 0

    def __post_init__(self) -> None:
        # comparisons with NaN are false, so each check also rejects NaN
        if not 0.0 < self.t_sample_s < np.inf:
            raise ValueError(f"sampling time must be positive and finite, got {self.t_sample_s}")
        if self.actuation_delay < 0 or self.measurement_delay < 0:
            raise ValueError("delays are nonnegative sample counts")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise sigma must be nonnegative and finite, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class PlantState:
    """Disturbance state plus actuation/measurement pipelines after
    ``step_index`` steps; the next step resolves sample ``step_index``."""

    step_index: int
    queue: tuple[np.ndarray, ...]  # pending commands (actuation_delay - 1 deep)
    loads: np.ndarray  # current (P, Q) per load, p.u.
    ev_power: np.ndarray  # per charger, p.u. (<= 0 while charging)
    slack_v: float
    voltages: tuple[np.ndarray, np.ndarray] | None  # last (v_mag, v_ang), the next warm start
    buffer: tuple[Measurement, ...]


def steady_state_response(
    net: NetworkModel,
    devices: DeviceSet,
    u_pu: np.ndarray,
    *,
    loads_pu: np.ndarray | None = None,
    ev_pu: np.ndarray | None = None,
    slack_v: float = 1.0,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
    droop: DroopLaw | None = None,
) -> tuple[PowerFlowSolution, np.ndarray, bool]:
    """Resolve the grid's steady state for given setpoints and disturbances.

    One power flow over the bus injections of :func:`~flexloop.grid.injections`,
    warm-started from the voltages ``x0`` when given, solves the grid together
    with every legacy inverter's ``q = Q(V)`` (``droop``, built here if not
    given). Returns the power-flow solution, the droop
    outputs at its voltages and ``True``: a power flow that fails raises
    :class:`PlantDivergedError`, chained to the :class:`PowerFlowError` when
    it raised one, so there is no other outcome.
    """
    inj = injections(net, devices, u_pu, loads_pu=loads_pu, ev_pu=ev_pu)
    droop = droop_law(net, devices) if droop is None else droop
    try:
        sol = solve_power_flow(net, inj, slack_v, x0=x0, droop=droop)
    except PowerFlowError as exc:
        raise PlantDivergedError(f"power flow failed: {exc}") from exc
    if not sol.converged:
        raise PlantDivergedError(
            f"power flow did not converge (max mismatch {sol.max_mismatch_pu:.3e} p.u.)"
        )
    return sol, droop.response(sol.v_mag[droop.buses])[0], True


class Plant:
    """Discrete-time wrapper binding a network, devices and a plant config."""

    def __init__(self, net: NetworkModel, devices: DeviceSet, config: PlantConfig):
        self.net = net
        self.devices = devices
        self.config = config
        self._lb, self._ub = devices.setpoint_bounds_pu(net.s_base_va)
        self._droop = droop_law(net, devices)

    def initial_state(self, u0: np.ndarray) -> PlantState:
        """Pre-scenario rest state at ``u0``; requires a solvable power flow.

        With a measurement delay of m samples the pipeline is primed with m
        copies of the rest-state measurement, copy i stamped
        ``(i - m) * t_sample_s``, so delayed emissions keep strictly
        increasing timestamps from the first step on.
        """
        cfg = self.config
        u0 = np.clip(np.asarray(u0, dtype=float), self._lb, self._ub)
        state = PlantState(
            step_index=0,
            queue=tuple(u0.copy() for _ in range(max(0, cfg.actuation_delay - 1))),
            loads=self.devices.static_loads_pu(self.net.s_base_va),
            ev_power=np.zeros(len(self.devices.ev_points)),
            slack_v=1.0,
            voltages=None,
            buffer=(),
        )
        m = cfg.measurement_delay
        if m > 0:
            state, v, p_pcc = self._resolve(state, u0)
            primed = tuple(self._measure(v, p_pcc, (i - m) * cfg.t_sample_s, (i, 2)) for i in range(m))
            state = replace(state, buffer=primed)
        return state

    # -- event application -------------------------------------------------

    def apply_events(self, state: PlantState, events) -> PlantState:
        """``state`` with the disturbances of ``events`` applied, in order.

        Raises :class:`ScenarioError` for an event at a bus without a
        charger or a load to act on, or beyond its charger's rating.
        """
        s_base = self.net.s_base_va
        loads = state.loads
        ev = state.ev_power
        slack = state.slack_v
        for e in events:
            if e.kind not in PLANT_EVENT_KINDS:
                raise ScenarioError(f"event kind {e.kind!r} is not a plant event")
            if e.kind in ("ev_charge_start", "ev_charge_stop"):
                bus = int(e.get("bus"))
                buses = [c.bus for c in self.devices.ev_points]
                if bus not in buses:
                    raise ScenarioError(f"no EV charger at bus {bus}")
                idx = buses.index(bus)
                p_kw = e.get("p_kw") if e.kind == "ev_charge_start" else 0.0
                rating_w = self.devices.ev_points[idx].max_charge_w
                if abs(p_kw) * 1e3 > rating_w + 1e-9:
                    raise ScenarioError(f"EV power {p_kw} kW exceeds charger rating at bus {bus}")
                ev = ev.copy()
                ev[idx] = float(np.clip(p_kw * 1e3 / s_base, -rating_w / s_base, 0.0))
            elif e.kind == "slack_voltage_change":
                slack = float(e.get("v_pu"))
            elif e.kind == "load_change":
                bus = int(e.get("bus"))
                buses = [ld.bus for ld in self.devices.loads]
                if bus not in buses:
                    raise ScenarioError(f"no load at bus {bus}")
                idx = buses.index(bus)
                loads = loads.copy()
                loads[idx, 0] = e.get("p_kw") * 1e3 / s_base
                loads[idx, 1] = e.get("q_kvar") * 1e3 / s_base
        return replace(state, loads=loads, ev_power=ev, slack_v=slack)

    # -- stepping ----------------------------------------------------------

    def _resolve(self, state: PlantState, applied: np.ndarray) -> tuple[PlantState, np.ndarray, float]:
        """The grid's steady state under ``applied``: ``state`` warm-started
        there, and its noise-free voltages and PCC power."""
        sol, _, _ = steady_state_response(
            self.net, self.devices, applied,
            loads_pu=state.loads, ev_pu=state.ev_power, slack_v=state.slack_v, x0=state.voltages,
            droop=self._droop,
        )
        return replace(state, voltages=(sol.v_mag, sol.v_ang)), sol.v_mag[1:].copy(), sol.pcc_power_pu

    def _measure(self, v: np.ndarray, p_pcc: float, t: float, key: tuple[int, ...]) -> Measurement:
        """The measurement of ``v`` and ``p_pcc`` stamped ``t``, its noise
        drawn from ``(seed, *key)``."""
        cfg = self.config
        if cfg.noise_sigma > 0:
            rng = np.random.default_rng((cfg.seed, *key))
            v = v + rng.normal(0.0, cfg.noise_sigma, v.shape[0])
            p_pcc = p_pcc + float(rng.normal(0.0, cfg.noise_sigma))
        return Measurement(v, self.net.pq_ids, p_pcc, t)

    def step(
        self, state: PlantState, commanded: np.ndarray, events=()
    ) -> tuple[PlantState, Measurement]:
        """Advance one sampling interval.

        Applies events due at the new sample time, moves the actuation
        pipeline, resolves the grid and its droop in one power flow and emits
        the measurement (subject to the configured measurement delay).
        """
        cfg = self.config
        k = state.step_index
        state = self.apply_events(state, events)

        commanded = np.clip(np.asarray(commanded, dtype=float), self._lb, self._ub)
        pipeline = state.queue + (commanded,)
        state, v, p_pcc = self._resolve(state, pipeline[0])
        meas = self._measure(v, p_pcc, k * cfg.t_sample_s, (k,))
        buffer = (state.buffer + (meas,))[-(cfg.measurement_delay + 1):]
        return replace(state, step_index=k + 1, queue=pipeline[1:], buffer=buffer), buffer[0]

    def apply_now(self, state: PlantState, commanded: np.ndarray) -> tuple[PlantState, Measurement]:
        """Re-resolve the current sample with a new command (zero actuation
        delay); time does not advance and no events fire."""
        n = state.step_index
        commanded = np.clip(np.asarray(commanded, dtype=float), self._lb, self._ub)
        state, v, p_pcc = self._resolve(state, commanded)
        meas = self._measure(v, p_pcc, (n - 1) * self.config.t_sample_s, (n, 1))
        buffer = state.buffer[:-1] + (meas,)
        return replace(state, buffer=buffer), buffer[0]

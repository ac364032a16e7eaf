"""Static grid description: buses, branches, devices and per-unit scaling.

The model is deliberately small: a single balanced voltage level with series
branch impedances only.  Exactly one slack bus marks the point of common
coupling (PCC) to the upstream grid; every other bus is a PQ bus.  All
solver-facing quantities are per-unit; device data is stored in SI units
(W, var, V) and converted at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SLACK = "slack"
PQ = "pq"

_BUS_KINDS = (SLACK, PQ)


class NetworkValidationError(ValueError):
    """A network description violates a structural rule."""


class DuplicateBusError(NetworkValidationError):
    pass


class MissingSlackError(NetworkValidationError):
    pass


class MultipleSlackError(NetworkValidationError):
    pass


class DisconnectedGraphError(NetworkValidationError):
    pass


class ZeroImpedanceBranchError(NetworkValidationError):
    pass


class UnknownBusError(NetworkValidationError):
    pass


class DeviceLimitError(NetworkValidationError):
    pass


@dataclass(frozen=True)
class Bus:
    id: int
    v_nominal: float  # line-to-line nominal voltage, V
    kind: str = PQ

    def __post_init__(self) -> None:
        if self.kind not in _BUS_KINDS:
            raise NetworkValidationError(f"unknown bus kind {self.kind!r}")
        if self.v_nominal <= 0:
            raise NetworkValidationError(f"bus {self.id}: nonpositive nominal voltage")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r_ohm: float
    x_ohm: float


@dataclass(frozen=True)
class Fpu:
    """Controllable flexibility-providing unit with box P/Q capability."""

    bus: int
    p_min_w: float
    p_max_w: float
    q_min_var: float
    q_max_var: float


@dataclass(frozen=True)
class DroopInverter:
    """Legacy inverter with fixed active feed-in and an autonomous Q(V) law."""

    bus: int
    p_fixed_w: float
    q_max_var: float
    v_db_lo: float = 0.99
    v_db_hi: float = 1.01
    v_lo: float = 0.95
    v_hi: float = 1.05


@dataclass(frozen=True)
class Load:
    bus: int
    p_w: float
    q_var: float = 0.0


@dataclass(frozen=True)
class EvCharger:
    bus: int
    max_charge_w: float


Device = Fpu | DroopInverter | Load | EvCharger


@dataclass(frozen=True)
class NetworkSpec:
    """Parsed network description before validation (see :mod:`flexloop.fileio`)."""

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    devices: tuple[Device, ...] = ()
    s_base_va: float = 1.0e5


@dataclass(frozen=True)
class NetworkModel:
    """Validated, per-unit-normalized network.

    Buses are ordered deterministically: slack first, then ascending id.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    pcc_bus: int
    s_base_va: float = 1.0e5
    voltage_bases: tuple[tuple[float, float], ...] = ()  # (nominal V, base V) overrides

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @cached_property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def index(self, bus_id: int) -> int:
        try:
            return self._index[bus_id]
        except KeyError:
            raise UnknownBusError(f"unknown bus id {bus_id}") from None

    @cached_property
    def pq_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.kind == PQ)

    def pq_row(self, bus_id: int) -> int:
        # row into per-PQ-bus arrays (injections, measurements)
        i = self.index(bus_id)
        if i == 0:
            raise NetworkValidationError(f"bus {bus_id} is the slack bus")
        return i - 1

    # per-unit bases -------------------------------------------------------

    def v_base(self, bus_id: int) -> float:
        nominal = self.buses[self.index(bus_id)].v_nominal
        for vn, vb in self.voltage_bases:
            if vn == nominal:
                return vb
        return nominal

    def z_base(self, bus_id: int) -> float:
        vb = self.v_base(bus_id)
        return vb * vb / self.s_base_va

    def p_to_pu(self, watts: float) -> float:
        return watts / self.s_base_va

    def p_from_pu(self, pu: float) -> float:
        return pu * self.s_base_va

    def v_to_pu(self, volts: float, bus_id: int) -> float:
        return volts / self.v_base(bus_id)

    def v_from_pu(self, pu: float, bus_id: int) -> float:
        return pu * self.v_base(bus_id)

    # admittance -----------------------------------------------------------

    @cached_property
    def ybus(self) -> np.ndarray:
        """Dense complex bus admittance matrix in per-unit."""
        n = self.n_buses
        y = np.zeros((n, n), dtype=complex)
        for br in self.branches:
            i = self.index(br.from_bus)
            j = self.index(br.to_bus)
            zb = self.z_base(br.from_bus)
            z = (br.r_ohm + 1j * br.x_ohm) / zb
            ys = 1.0 / z
            y[i, i] += ys
            y[j, j] += ys
            y[i, j] -= ys
            y[j, i] -= ys
        return y

    def branch_admittances(self) -> np.ndarray:
        return np.array(
            [
                self.z_base(br.from_bus) / (br.r_ohm + 1j * br.x_ohm)
                for br in self.branches
            ],
            dtype=complex,
        )


def build_network(spec: NetworkSpec) -> NetworkModel:
    """Validate a parsed description and produce the ordered network model.

    Raises a distinct :class:`NetworkValidationError` subclass for each
    structural defect: duplicate bus ids, missing or multiple slack buses,
    zero-impedance branches and disconnected graphs.
    """
    seen: set[int] = set()
    for b in spec.buses:
        if b.id in seen:
            raise DuplicateBusError(f"duplicate bus id {b.id}")
        seen.add(b.id)

    slacks = [b for b in spec.buses if b.kind == SLACK]
    if not slacks:
        raise MissingSlackError("no slack bus in network description")
    if len(slacks) > 1:
        ids = ", ".join(str(b.id) for b in slacks)
        raise MultipleSlackError(f"multiple slack buses: {ids}")
    slack = slacks[0]

    ordered = (slack,) + tuple(
        sorted((b for b in spec.buses if b.kind == PQ), key=lambda b: b.id)
    )

    nominal_by_id = {b.id: b.v_nominal for b in spec.buses}
    for br in spec.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in seen:
                raise UnknownBusError(f"branch references unknown bus {end}")
        if br.r_ohm < 0:
            raise NetworkValidationError(
                f"branch {br.from_bus}-{br.to_bus}: negative resistance"
            )
        if abs(complex(br.r_ohm, br.x_ohm)) == 0.0:
            raise ZeroImpedanceBranchError(
                f"branch {br.from_bus}-{br.to_bus} has zero impedance"
            )
        if nominal_by_id[br.from_bus] != nominal_by_id[br.to_bus]:
            raise NetworkValidationError(
                f"branch {br.from_bus}-{br.to_bus} spans voltage levels; "
                "transformers are not modeled"
            )

    _check_connected(spec)

    if spec.s_base_va <= 0:
        raise NetworkValidationError("base power must be positive")

    return NetworkModel(
        buses=ordered,
        branches=tuple(spec.branches),
        pcc_bus=slack.id,
        s_base_va=spec.s_base_va,
    )


def _check_connected(spec: NetworkSpec) -> None:
    if len(spec.buses) <= 1:
        return
    adj: dict[int, list[int]] = {b.id: [] for b in spec.buses}
    for br in spec.branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    start = spec.buses[0].id
    stack = [start]
    visited = {start}
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if nb not in visited:
                visited.add(nb)
                stack.append(nb)
    missing = sorted(set(adj) - visited)
    if missing:
        raise DisconnectedGraphError(f"buses unreachable from slack side: {missing}")


@dataclass(frozen=True)
class DeviceSet:
    """All grid-connected devices, grouped by role.

    ``controllables`` fixes the setpoint ordering used everywhere else:
    entry ``2*i`` is active power and ``2*i + 1`` reactive power of the
    i-th unit, in per-unit.
    """

    controllables: tuple[Fpu, ...]
    legacy: tuple[DroopInverter, ...] = ()
    loads: tuple[Load, ...] = ()
    ev_points: tuple[EvCharger, ...] = ()

    @property
    def n_setpoints(self) -> int:
        return 2 * len(self.controllables)

    @cached_property
    def fpu_buses(self) -> tuple[int, ...]:
        return tuple(f.bus for f in self.controllables)

    @cached_property
    def setpoint_labels(self) -> tuple[str, ...]:
        labels: list[str] = []
        for f in self.controllables:
            labels.append(f"P@{f.bus}")
            labels.append(f"Q@{f.bus}")
        return tuple(labels)

    def setpoint_bounds_pu(self, s_base_va: float) -> tuple[np.ndarray, np.ndarray]:
        lb = np.empty(self.n_setpoints)
        ub = np.empty(self.n_setpoints)
        for i, f in enumerate(self.controllables):
            lb[2 * i] = f.p_min_w / s_base_va
            ub[2 * i] = f.p_max_w / s_base_va
            lb[2 * i + 1] = f.q_min_var / s_base_va
            ub[2 * i + 1] = f.q_max_var / s_base_va
        return lb, ub

    def static_loads_pu(self, s_base_va: float) -> np.ndarray:
        """(P, Q) consumption per load as described, shape ``(n_loads, 2)``."""
        return np.array([[ld.p_w, ld.q_var] for ld in self.loads]).reshape(-1, 2) / s_base_va


def build_devices(spec: NetworkSpec, net: NetworkModel) -> DeviceSet:
    """Validate device rows against the network and group them by role."""
    fpus: list[Fpu] = []
    legacy: list[DroopInverter] = []
    loads: list[Load] = []
    evs: list[EvCharger] = []
    for dev in spec.devices:
        if dev.bus not in net.bus_ids:
            raise UnknownBusError(f"device references unknown bus {dev.bus}")
        if dev.bus == net.pcc_bus:
            raise NetworkValidationError(f"device on slack bus {dev.bus}")
        if isinstance(dev, Fpu):
            if dev.p_min_w > dev.p_max_w or dev.q_min_var > dev.q_max_var:
                raise DeviceLimitError(f"FPU at bus {dev.bus}: min above max")
            fpus.append(dev)
        elif isinstance(dev, DroopInverter):
            if not (dev.v_lo < dev.v_db_lo <= dev.v_db_hi < dev.v_hi):
                raise DeviceLimitError(f"droop inverter at bus {dev.bus}: bad curve knees")
            if dev.q_max_var < 0:
                raise DeviceLimitError(f"droop inverter at bus {dev.bus}: negative Q limit")
            legacy.append(dev)
        elif isinstance(dev, Load):
            loads.append(dev)
        elif isinstance(dev, EvCharger):
            if dev.max_charge_w <= 0:
                raise DeviceLimitError(f"EV charger at bus {dev.bus}: nonpositive rating")
            evs.append(dev)
        else:  # pragma: no cover - guarded by parser
            raise NetworkValidationError(f"unknown device type {type(dev).__name__}")
    return DeviceSet(tuple(fpus), tuple(legacy), tuple(loads), tuple(evs))


def base_injections(
    net: NetworkModel, devices: DeviceSet, *,
    loads_pu: np.ndarray | None = None, ev_pu: np.ndarray | None = None,
    droop_q: np.ndarray | None = None,
) -> np.ndarray:
    """Per-PQ-bus (P, Q) injections of every uncontrolled device, per-unit.

    Loads enter negatively with ``loads_pu`` (default: as described), legacy
    inverters with their fixed active feed-in and reactive output
    ``droop_q`` (default: zero), EV chargers with their nonpositive power
    ``ev_pu`` (default: idle). Controllable setpoints are added on top by
    :func:`add_setpoint_injections`.
    """
    s = net.s_base_va
    loads_pu = devices.static_loads_pu(s) if loads_pu is None else loads_pu
    legacy = np.zeros((len(devices.legacy), 2))
    legacy[:, 0] = [inv.p_fixed_w / s for inv in devices.legacy]
    if droop_q is not None:
        legacy[:, 1] = droop_q
    ev = np.zeros((len(devices.ev_points), 2))
    if ev_pu is not None:
        ev[:, 0] = ev_pu
    buses = [d.bus for d in devices.loads + devices.legacy + devices.ev_points]
    return _sum_on_buses(net, buses, np.concatenate([-np.reshape(loads_pu, (-1, 2)), legacy, ev]))


def pq_positions(net: NetworkModel, buses: tuple[int, ...] | list[int]) -> np.ndarray:
    """Positions of each bus's P and Q in the stacked vector ``[P_pq; Q_pq]``:
    entries ``2k`` and ``2k + 1`` belong to ``buses[k]``."""
    rows = np.array([net.pq_row(b) for b in buses], dtype=int)
    return (rows[:, None] + np.array([0, len(net.pq_ids)])).ravel()


def _sum_on_buses(net: NetworkModel, buses: tuple[int, ...] | list[int], pq: np.ndarray) -> np.ndarray:
    """Per-device (P, Q) pairs ``pq`` summed onto their buses, shape ``(n_pq, 2)``."""
    n_pq = len(net.pq_ids)
    return np.bincount(pq_positions(net, buses), np.ravel(pq), 2 * n_pq).reshape(2, n_pq).T


def add_setpoint_injections(
    inj: np.ndarray, net: NetworkModel, devices: DeviceSet, u_pu: np.ndarray
) -> np.ndarray:
    """Return a copy of ``inj`` with controllable setpoints ``u_pu`` added."""
    return inj + _sum_on_buses(net, devices.fpu_buses, u_pu)

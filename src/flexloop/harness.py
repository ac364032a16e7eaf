"""Closed-loop orchestration, telemetry, KPIs and the model-based oracle.

``run_closed_loop`` alternates plant and controller at the sampling interval
and collects one telemetry record per sample. ``reference_opf`` solves the
same dispatch problem offline against the exact plant response (one
descent from zero setpoints, freshly linearized at each iterate) and serves
as the optimality oracle for the feedback loop. ``summarize`` turns a
telemetry log into the key performance indicators used by the acceptance
checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .controller import (
    DEFAULT_BAND,
    ControllerConfig,
    InvalidMeasurementError,
    Measurement,
    StepRecord,
    assemble_projection_qp,
    check_request,
    controller_step,
    real_request,
)
from .grid import (
    DeviceSet, NetworkModel, Branch, Bus, Fpu, Load, NetworkSpec, build_devices, build_network, droop_law,
)
from .plant import (
    PLANT_EVENT_KINDS,
    Plant,
    PlantConfig,
    PlantDivergedError,
    Scenario,
    ScenarioError,
    schedule,
    steady_state_response,
)
from .sensitivity import SensitivityMatrix, compute_sensitivity, linearize

SETTLE_TOL_KW = 0.1  # "flexibility provided"
STEADY_TOL_KW = 0.01  # "without tracking error"
SPEED_REQUIREMENT_S = 120.0
V_COUNT_GUARD_PU = 1e-6  # measurement tolerance when counting band violations
SETTLE_PERSIST = 10  # samples the error must stay below tolerance to count as settled
STEADY_WINDOW = 10  # trailing samples that make up the steady state
OPF_STEP = 0.5  # the oracle's projected-gradient step size
OPF_MAX_ITER = 200  # iterations of the descent
MAX_SAMPLES = 10**6  # a longer closed-loop run is an input error


class InfeasibleRequestError(RuntimeError):
    """The requested PCC exchange is outside the reachable set."""

    def __init__(self, p_set_pu: float, closest_pu: float, binding: tuple[str, ...], s_base_va: float):
        self.closest_pu = closest_pu
        self.binding = binding
        kw = s_base_va / 1e3
        super().__init__(
            f"requested PCC power {p_set_pu * kw:.3f} kW unreachable; "
            f"closest attainable {closest_pu * kw:.3f} kW, binding limits: "
            + (", ".join(binding) if binding else "none")
        )


@dataclass(frozen=True)
class TelemetryLog:
    """One record per sample plus run metadata; serializable to CSV."""

    records: tuple[StepRecord, ...]
    t_sample_s: float
    s_base_va: float
    fpu_buses: tuple[int, ...]
    monitored: tuple[int, ...]
    v_bases: tuple[float, ...]
    v_min: np.ndarray
    v_max: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    abort_reason: str | None = None

    # convenience views (SI units) -----------------------------------------

    def times(self) -> np.ndarray:
        return np.array([r.timestamp for r in self.records])

    def tracking_error_kw(self) -> np.ndarray:
        s = self.s_base_va / 1e3
        return np.array([(r.p_pcc - r.p_set) * s for r in self.records])

    def voltages_pu(self) -> np.ndarray:
        return np.vstack([r.v for r in self.records])

    def setpoints_pu(self) -> np.ndarray:
        return np.vstack([r.u for r in self.records])

    def out_of_band(self) -> np.ndarray:
        v = self.voltages_pu()
        g = V_COUNT_GUARD_PU
        return np.any((v > self.v_max + g) | (v < self.v_min - g), axis=1)

    def fpu_tags(self) -> list[str]:
        """``fpu<bus>`` per unit, ``fpu<bus>_<n>`` for the n-th unit on one bus."""
        seen: dict[int, int] = {}
        tags = []
        for bus in self.fpu_buses:
            seen[bus] = seen.get(bus, 0) + 1
            tags.append(f"fpu{bus}" if seen[bus] == 1 else f"fpu{bus}_{seen[bus]}")
        return tags

    # CSV -------------------------------------------------------------------

    def column_names(self) -> tuple[str, ...]:
        cols = ["iteration", "time_s"]
        for tag in self.fpu_tags():
            cols += [f"{tag}_p_kw", f"{tag}_q_kvar"]
        cols += [f"v{bus}_v" for bus in self.monitored]
        cols += [
            "p_pcc_kw",
            "qp_status",
            "eq_slack_kw",
            "active_set",
            "soft_fallback",
            "alarm",
            "p_set_kw",
        ]
        return tuple(cols)

    def to_csv(self) -> str:
        s_kw = self.s_base_va / 1e3
        lines = [",".join(self.column_names())]
        for k, r in enumerate(self.records):
            cells: list[str] = [str(k), repr(float(r.timestamp))]
            for j in range(len(self.fpu_buses)):
                cells.append(repr(float(r.u[2 * j] * s_kw)))
                cells.append(repr(float(r.u[2 * j + 1] * s_kw)))
            for v, vb in zip(r.v, self.v_bases):
                cells.append(repr(float(v * vb)))
            slack_kw = r.eq_slack * s_kw
            cells += [
                repr(float(r.p_pcc * s_kw)),
                r.qp_status,
                repr(float(slack_kw)),
                str(r.active_mask),
                str(int(r.soft_fallback)),
                str(int(r.alarm)),
                repr(float(r.p_set * s_kw)),
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def csv_hash(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()


def run_closed_loop(
    net: NetworkModel,
    devices: DeviceSet,
    scenario: Scenario,
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
) -> TelemetryLog:
    """Run the feedback loop over one scenario.

    The loop starts from zero setpoints, where the sensitivity map is
    computed unless the config already carries one, and the PCC request is
    0 until the first request event. A run of more than ``MAX_SAMPLES``
    samples is refused, every plant event is applied once to the rest state
    and every request is checked first, so such a run, a target without its
    device or an unphysical request raises
    :class:`~flexloop.plant.ScenarioError` before the first sample.
    Controller alarms are logged and the run continues; a diverging plant
    truncates the log with an abort reason.
    """
    dt = plant_cfg.t_sample_s
    if not scenario.duration_s / dt <= MAX_SAMPLES:
        raise ScenarioError(f"scenario duration {scenario.duration_s:g} s exceeds {MAX_SAMPLES} samples of {dt:g} s")
    u = np.zeros(devices.n_setpoints)
    plant = Plant(net, devices, plant_cfg)
    state = plant.initial_state(u)
    plant.apply_events(state, [e for e in scenario.events if e.kind in PLANT_EVENT_KINDS])
    requests = {e: e.get("p_set_kw") * 1e3 / net.s_base_va for e in scenario.events if e.kind == "set_flexibility"}
    for e, p in requests.items():
        try:
            check_request(p)
        except InvalidMeasurementError as exc:
            raise ScenarioError(f"set_flexibility at {e.time_s:g} s: {exc}") from None

    if ctrl_cfg.sensitivity is None:
        sens = compute_sensitivity(net, devices, u)
        ctrl_cfg = replace(ctrl_cfg, sensitivity=sens)

    n_samples = int(round(scenario.duration_s / dt)) + 1
    records: list[StepRecord] = []
    abort = None
    p_set_pu = 0.0
    for k in range(n_samples):
        t_k = k * dt
        due = schedule(scenario.events, t_k - dt, t_k)
        phys = []
        for e in due:
            if e.kind == "set_flexibility":
                p_set_pu = requests[e]
            else:
                phys.append(e)
        try:
            state, y = plant.step(state, u, phys)
        except PlantDivergedError as exc:
            abort = str(exc)
            break
        u_next, rec = controller_step(u, y, p_set_pu, ctrl_cfg, records[-1].active_mask if records else 0)
        if plant_cfg.actuation_delay == 0 and not rec.alarm:
            state, y_now = plant.apply_now(state, u_next)
            rec = replace(rec, v=np.array(y_now.v, copy=True), p_pcc=y_now.p_pcc)
        records.append(rec)
        u = u_next

    return TelemetryLog(
        records=tuple(records),
        t_sample_s=dt,
        s_base_va=net.s_base_va,
        fpu_buses=devices.fpu_buses,
        monitored=ctrl_cfg.monitored,
        v_bases=tuple(net.v_base(b) for b in ctrl_cfg.monitored),
        v_min=ctrl_cfg.v_min.copy(),
        v_max=ctrl_cfg.v_max.copy(),
        u_min=ctrl_cfg.u_min.copy(),
        u_max=ctrl_cfg.u_max.copy(),
        abort_reason=abort,
    )


# --- KPIs --------------------------------------------------------------------


@dataclass(frozen=True)
class KpiReport:
    settled: bool
    settling_time_s: float | None
    settling_iterations: int | None
    within_speed_requirement: bool
    steady_state_error_kw: float
    max_violation_pu: float
    violation_samples: int
    energy_kwh: tuple[tuple[str, float], ...]
    request_time_s: float

    def render(self) -> str:
        lines = []
        if self.settled:
            lines.append(
                f"settling_time: {self.settling_time_s:g} s"
                f" ({self.settling_iterations} iterations"
                f" after request at t={self.request_time_s:g} s)"
            )
        else:
            lines.append("settling_time: did not settle")
        lines.append(
            f"speed_requirement_2min: {'pass' if self.within_speed_requirement else 'FAIL'}"
        )
        lines.append(f"steady_state_error: {self.steady_state_error_kw:.6g} kW")
        lines.append(f"voltage_violation_max: {self.max_violation_pu:.6g} p.u.")
        lines.append(f"voltage_violation_samples: {self.violation_samples}")
        for label, kwh in self.energy_kwh:
            lines.append(f"energy[{label}]: {kwh:.6g} kWh")
        lines.append(f"tolerances: settle<{SETTLE_TOL_KW} kW, steady<{STEADY_TOL_KW} kW")
        return "\n".join(lines) + "\n"


def summarize(log: TelemetryLog) -> KpiReport:
    """KPIs of one run: settling, steady-state error, band violations, energy.

    Settling is measured from the last request change to the first sample
    whose tracking error stays below ``SETTLE_TOL_KW`` for ``SETTLE_PERSIST``
    consecutive samples, all inside the log (later disturbances do not
    reopen the clock).
    """
    if not log.records:
        raise ValueError("empty telemetry log")
    times = log.times()
    err = np.abs(log.tracking_error_kw())

    # settle clock starts at the last request change
    request_time = times[0]
    p_set = np.array([r.p_set for r in log.records])
    changes = np.nonzero(np.diff(p_set) != 0.0)[0]
    if changes.size:
        request_time = times[changes[-1] + 1]

    eligible = times >= request_time
    settled = False
    settling_time = None
    settling_iterations = None
    below = err < SETTLE_TOL_KW
    for i in np.nonzero(eligible)[0]:
        window = below[i : i + SETTLE_PERSIST]
        if window.size == SETTLE_PERSIST and np.all(window):
            settled = True
            settling_time = float(times[i] - request_time)
            settling_iterations = int(round(settling_time / log.t_sample_s))
            break

    tail = err[-min(STEADY_WINDOW, err.size):]
    steady_err = float(np.max(tail))

    v = log.voltages_pu()
    over = np.maximum(v - log.v_max, log.v_min - v)
    max_violation = float(np.max(over))
    violation_samples = int(np.count_nonzero(log.out_of_band()))

    s_kw = log.s_base_va / 1e3
    u = log.setpoints_pu()
    energy = [
        (tag, float(np.sum(u[:, 2 * j]) * s_kw * log.t_sample_s / 3600.0))
        for j, tag in enumerate(log.fpu_tags())
    ]

    return KpiReport(
        settled=settled,
        settling_time_s=settling_time,
        settling_iterations=settling_iterations,
        within_speed_requirement=bool(settled and settling_time <= SPEED_REQUIREMENT_S),
        steady_state_error_kw=steady_err,
        max_violation_pu=max(max_violation, 0.0),
        violation_samples=violation_samples,
        energy_kwh=tuple(energy),
        request_time_s=float(request_time),
    )


# --- model-based oracle ------------------------------------------------------


@dataclass(frozen=True)
class OpfResult:
    u: np.ndarray
    phi: float
    stationarity: float
    binding: tuple[str, ...]


def reference_opf(
    net: NetworkModel,
    devices: DeviceSet,
    *,
    p_set_pu: float,
    band: float = DEFAULT_BAND,
    slack_v: float = 1.0,
    loads_pu: np.ndarray | None = None,
    ev_pu: np.ndarray | None = None,
    seed: int | None = None,
) -> OpfResult:
    """Minimize total squared feed-in subject to the loop's voltage band
    (``band`` p.u. around nominal), the device boxes and exact PCC tracking,
    against the true steady-state plant response.

    Projected-gradient descent whose every step is the controller's
    projection QP (:func:`~flexloop.controller.assemble_projection_qp`,
    tracking gain 1) at the exact response and a fresh analytic
    linearization there (the Jacobian of the one power flow that solves the
    grid and its legacy Q(V) droop together), started once from zero
    setpoints clipped to the boxes. Its certificate is one more projection
    step posed at the returned point: ``stationarity`` is that step's
    ``max |w|``, zero exactly at a KKT point of the linearized problem
    (``inf`` if the step is not ``optimal``), and ``binding`` is its active
    set without the tracking row. A request that is not a real number or is
    unphysical raises ``InvalidMeasurementError`` (a ``ValueError``) before
    the first power flow, and an out-of-reach one
    :class:`InfeasibleRequestError` with the closest attainable PCC power
    and the binding limits.

    ``seed`` is ignored; it is kept only for callers that still pass it and
    goes with ROADMAP item 9, the benchmark refresh.
    """
    from .qp import solve_qp, STATUS_OPTIMAL

    p_set_pu = real_request(p_set_pu)
    check_request(p_set_pu)
    cfg = ControllerConfig.for_network(net, devices, alpha=OPF_STEP, band=band, tracking_gain=1.0)
    lb, ub = cfg.u_min, cfg.u_max
    droop = droop_law(net, devices)

    def respond(u, prev=None):
        sol, _, _ = steady_state_response(
            net, devices, u, loads_pu=loads_pu, ev_pu=ev_pu, slack_v=slack_v,
            x0=None if prev is None else (prev.v_mag, prev.v_ang), droop=droop,
        )
        return sol.v_mag[1:].copy(), sol.pcc_power_pu, sol

    def local_jacobian(sol):
        return linearize(net, devices, sol, droop)

    def projection(u, v, pcc, pf):
        y = Measurement(v, net.pq_ids, pcc, 0.0)
        sens = SensitivityMatrix(*local_jacobian(pf))
        qp = assemble_projection_qp(u, y, p_set_pu, replace(cfg, sensitivity=sens))
        return qp, solve_qp(qp)

    def descend():
        u = np.clip(np.zeros(lb.shape), lb, ub)
        pf = None
        best_gap = np.inf
        best_phi = np.inf
        stall = 0
        for _ in range(OPF_MAX_ITER):
            try:
                v, pcc, pf = respond(u, pf)
            except PlantDivergedError:
                return None
            # no progress in tracking or objective: stuck at a saturated
            # best-effort point (unreachable request), stop early
            gap = abs(p_set_pu - pcc)
            phi = float(np.sum(u * u))
            if gap > best_gap - 1e-12 and phi > best_phi - 1e-12:
                stall += 1
                if stall >= 8:
                    break
            else:
                stall = 0
            best_gap = min(best_gap, gap)
            best_phi = min(best_phi, phi)
            _, sol = projection(u, v, pcc, pf)
            if sol.status != STATUS_OPTIMAL:
                return None
            u_new = np.clip(u + OPF_STEP * sol.w, lb, ub)
            converged = np.max(np.abs(u_new - u)) < 1e-10
            u = u_new
            if converged:
                break
        v, pcc, pf = respond(u, pf)
        return u, float(np.sum(u * u)), pcc, v, pf

    out = descend()
    if out is None or abs(out[2] - p_set_pu) > 1e-6:
        closest, binding = _closest_attainable(respond, local_jacobian, p_set_pu, cfg)
        raise InfeasibleRequestError(p_set_pu, closest, binding, net.s_base_va)
    u, phi, pcc, v, pf = out
    qp, sol = projection(u, v, pcc, pf)
    stat = float(np.max(np.abs(sol.w))) if sol.status == STATUS_OPTIMAL else np.inf
    return OpfResult(u=u, phi=phi, stationarity=stat, binding=_limit_names(qp, sol))


def _limit_names(qp, sol) -> tuple[str, ...]:
    """The QP's active set without its equality (tracking) rows, spelled as
    limits: ``in[i]:hi`` is ``v_max@row{i}``, ``box[j]:lo`` is ``u_min[{j}]``."""
    labels = qp.row_labels()
    names = []
    for r in sol.active_set:
        row, _, side = labels[r].partition(":")
        if side:
            kind, index = row[:-1].split("[")
            bound = "min" if side == "lo" else "max"
            names.append(f"v_{bound}@row{index}" if kind == "in" else f"u_{bound}[{index}]")
    return tuple(names)


def _closest_attainable(respond, local_jacobian, p_set_pu, cfg):
    """Best-effort tracking point used in infeasibility reports: Gauss-Newton
    steps on the gap to the PCC request ``p_set_pu`` within ``cfg``'s band and boxes,
    stopping at the first step that does not bring the PCC power closer.
    Returns the closest iterate's PCC power and the :func:`_limit_names` of
    the QP posed there."""
    from .qp import QpProblem, solve_qp, STATUS_OPTIMAL

    lb, ub = cfg.u_min, cfg.u_max
    u = np.clip(np.zeros(lb.shape), lb, ub)
    pf = None
    u_lin = None
    best = None
    for _ in range(150):
        v, pcc, pf = respond(u, pf)
        gap = pcc - p_set_pu
        if best is not None and abs(gap) >= abs(best[0] - p_set_pu):
            break
        if u_lin is None or np.max(np.abs(u - u_lin)) > 0.02:
            dv, dpcc = local_jacobian(pf)
            u_lin = u.copy()
        scale = max(float(dpcc @ dpcc), 1e-12)
        qp = QpProblem(
            g=dpcc * gap / scale,
            alpha=1.0,
            a_in=dv,
            lb_in=cfg.v_min - v,
            ub_in=cfg.v_max - v,
            lb_box=lb - u,
            ub_box=ub - u,
        )
        sol = solve_qp(qp)
        # before the exact-hit exit: every iterate reports its active set
        best = (pcc, _limit_names(qp, sol))
        if abs(gap) < 1e-9 or sol.status != STATUS_OPTIMAL:
            break
        u_new = np.clip(u + sol.w, lb, ub)
        if np.max(np.abs(u_new - u)) < 1e-11:
            break
        u = u_new
    return best


# --- seeded feeder generator -------------------------------------------------


def random_feeder(seed: int) -> tuple[NetworkModel, DeviceSet, float]:
    """Small seeded radial feeder with 1-3 controllables and a feasible
    export request; used by the oracle-agreement property."""
    rng = np.random.default_rng(seed)
    n_buses = int(rng.integers(3, 9))
    buses = [Bus(1, 400.0, "slack")] + [Bus(i, 400.0, "pq") for i in range(2, n_buses + 1)]
    branches = []
    for i in range(2, n_buses + 1):
        parent = 1 if i == 2 else int(rng.integers(1, i))
        length_km = rng.uniform(0.08, 0.3)
        branches.append(
            Branch(
                from_bus=parent,
                to_bus=i,
                r_ohm=float(rng.uniform(0.15, 0.35) * length_km),
                x_ohm=float(rng.uniform(0.05, 0.12) * length_km),
            )
        )

    pq_ids = list(range(2, n_buses + 1))
    n_fpu = int(rng.integers(1, min(3, len(pq_ids)) + 1))
    fpu_buses = sorted(rng.choice(pq_ids, size=n_fpu, replace=False).tolist())
    devices: list = []
    total_p_max = 0.0
    for b in fpu_buses:
        p_max = float(rng.uniform(5.0, 15.0)) * 1e3
        q_cap = float(rng.uniform(4.0, 10.0)) * 1e3
        devices.append(Fpu(bus=int(b), p_min_w=0.0, p_max_w=p_max, q_min_var=-q_cap, q_max_var=q_cap))
        total_p_max += p_max

    n_loads = int(rng.integers(0, 3))
    load_p = 0.0
    for b in rng.choice(pq_ids, size=n_loads, replace=False):
        pw = float(rng.uniform(0.5, 3.0)) * 1e3
        devices.append(Load(bus=int(b), p_w=pw, q_var=float(rng.uniform(0.0, 0.8)) * 1e3))
        load_p += pw

    spec = NetworkSpec(buses=tuple(buses), branches=tuple(branches), devices=tuple(devices))
    net = build_network(spec)
    dset = build_devices(spec, net)
    export_w = rng.uniform(0.3, 0.6) * total_p_max - load_p
    p_set_kw = -export_w / 1e3
    return net, dset, float(p_set_kw)

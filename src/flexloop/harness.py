"""Closed-loop orchestration, telemetry, KPIs and the model-based oracle.

``run_closed_loop`` alternates plant and controller at the sampling interval
and collects one telemetry record per sample. ``reference_opf`` solves the
same dispatch problem offline against the exact plant response (fresh local
linearizations each iterate, multi-start) and serves as the optimality
oracle for the feedback loop. ``summarize`` turns a telemetry log into the
key performance indicators used by the acceptance checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import nnls

from .controller import (
    ControllerConfig,
    StepRecord,
    controller_step,
    set_flexibility_request,
)
from .grid import DeviceSet, NetworkModel, Branch, Bus, Fpu, Load, NetworkSpec, build_devices, build_network
from .plant import (
    Plant,
    PlantConfig,
    PlantDivergedError,
    Scenario,
    droop_curves,
    qv_droop_slope,
    schedule,
    steady_state_response,
    validate_scenario,
)
from .sensitivity import compute_sensitivity, linearize

SETTLE_TOL_KW = 0.1  # "flexibility provided"
STEADY_TOL_KW = 0.01  # "without tracking error"
SPEED_REQUIREMENT_S = 120.0
V_COUNT_GUARD_PU = 1e-6  # measurement tolerance when counting band violations


class InfeasibleRequestError(RuntimeError):
    """The requested PCC exchange is outside the reachable set."""

    def __init__(self, p_set_pu: float, closest_pu: float, binding: tuple[str, ...], s_base_va: float):
        self.p_set_pu = p_set_pu
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
    scenario_name: str
    seed: int
    config_hash: str
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

    def p_pcc_kw(self) -> np.ndarray:
        return np.array([r.p_pcc for r in self.records]) * self.s_base_va / 1e3

    def voltages_pu(self) -> np.ndarray:
        return np.vstack([r.v for r in self.records])

    def setpoints_pu(self) -> np.ndarray:
        return np.vstack([r.u for r in self.records])

    def out_of_band(self, guard: float = V_COUNT_GUARD_PU) -> np.ndarray:
        v = self.voltages_pu()
        return np.any((v > self.v_max + guard) | (v < self.v_min - guard), axis=1)

    # CSV -------------------------------------------------------------------

    def column_names(self) -> tuple[str, ...]:
        cols = ["iteration", "time_s"]
        seen: dict[int, int] = {}
        for bus in self.fpu_buses:
            seen[bus] = seen.get(bus, 0) + 1
            tag = f"{bus}" if seen[bus] == 1 else f"{bus}_{seen[bus]}"
            cols += [f"fpu{tag}_p_kw", f"fpu{tag}_q_kvar"]
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
        for r in self.records:
            cells: list[str] = [str(r.iteration), repr(float(r.timestamp))]
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

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def csv_hash(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()


def _config_hash(ctrl_cfg: ControllerConfig, plant_cfg: PlantConfig, scenario: Scenario, u0) -> str:
    blob = json.dumps(
        {
            "alpha": ctrl_cfg.alpha,
            "rho": ctrl_cfg.rho,
            "tracking_gain": ctrl_cfg.tracking_gain,
            "p_set_pu": ctrl_cfg.p_set_pu,
            "v_min": [repr(float(x)) for x in ctrl_cfg.v_min],
            "v_max": [repr(float(x)) for x in ctrl_cfg.v_max],
            "max_step_pu": ctrl_cfg.max_step_pu,
            "t_sample_s": plant_cfg.t_sample_s,
            "actuation_delay": plant_cfg.actuation_delay,
            "measurement_delay": plant_cfg.measurement_delay,
            "noise_sigma": plant_cfg.noise_sigma,
            "seed": plant_cfg.seed,
            "droop_enabled": plant_cfg.droop_enabled,
            "slack_v0": plant_cfg.slack_v0,
            "scenario": scenario.name,
            "u0": [repr(float(x)) for x in np.atleast_1d(u0)],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_closed_loop(
    net: NetworkModel,
    devices: DeviceSet,
    scenario: Scenario,
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    *,
    u0: np.ndarray | None = None,
) -> TelemetryLog:
    """Run the feedback loop over one scenario.

    The sensitivity map is computed at the initial setpoints unless the
    config already carries one. Controller alarms are logged and the run
    continues; a diverging plant truncates the log with an abort reason.
    """
    p = devices.n_setpoints
    u = np.zeros(p) if u0 is None else np.asarray(u0, dtype=float).copy()
    validate_scenario(scenario, net, devices)

    if ctrl_cfg.sensitivity is None:
        sens = compute_sensitivity(net, devices, u, monitored=ctrl_cfg.monitored)
        ctrl_cfg = replace(ctrl_cfg, sensitivity=sens)

    plant = Plant(net, devices, plant_cfg)
    state = plant.initial_state(u)
    cfg_hash = _config_hash(ctrl_cfg, plant_cfg, scenario, u)

    dt = plant_cfg.t_sample_s
    n_samples = int(round(scenario.duration_s / dt)) + 1
    records: list[StepRecord] = []
    abort = None
    for k in range(n_samples):
        t_k = k * dt
        due = schedule(scenario.events, t_k - dt, t_k)
        phys = []
        for e in due:
            if e.kind == "set_flexibility":
                ctrl_cfg = set_flexibility_request(ctrl_cfg, e.get("p_set_kw"))
            else:
                phys.append(e)
        try:
            state, y = plant.step(state, u, phys)
        except PlantDivergedError as exc:
            abort = str(exc)
            break
        u_next, rec = controller_step(u, y, ctrl_cfg)
        if plant_cfg.actuation_delay == 0 and not rec.alarm:
            state, y_now = plant.apply_now(state, u_next)
            rec = replace(rec, v=np.array(y_now.v, copy=True), p_pcc=y_now.p_pcc)
        records.append(replace(rec, iteration=k))
        u = u_next

    return TelemetryLog(
        records=tuple(records),
        scenario_name=scenario.name,
        seed=plant_cfg.seed,
        config_hash=cfg_hash,
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
    settle_tol_kw: float
    steady_tol_kw: float

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
        lines.append(f"tolerances: settle<{self.settle_tol_kw} kW, steady<{self.steady_tol_kw} kW")
        return "\n".join(lines) + "\n"


def summarize(
    log: TelemetryLog,
    *,
    settle_tol_kw: float = SETTLE_TOL_KW,
    steady_tol_kw: float = STEADY_TOL_KW,
    steady_window: int = 10,
    persist: int = 10,
    v_guard: float = V_COUNT_GUARD_PU,
) -> KpiReport:
    """KPIs of one run: settling, steady-state error, band violations, energy.

    Settling is measured from the last request change to the first sample
    whose tracking error stays below tolerance for ``persist`` consecutive
    samples (later disturbances do not reopen the clock).
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
    idx = np.nonzero(eligible)[0]
    below = err < settle_tol_kw
    for i in idx:
        if np.all(below[i : i + persist]):
            settled = True
            settling_time = float(times[i] - request_time)
            settling_iterations = int(round(settling_time / log.t_sample_s))
            break

    tail = err[-min(steady_window, err.size):]
    steady_err = float(np.max(tail))

    v = log.voltages_pu()
    over = np.maximum(v - log.v_max, log.v_min - v)
    max_violation = float(np.max(over))
    oob = log.out_of_band(v_guard)
    violation_samples = int(np.count_nonzero(oob))

    s_kw = log.s_base_va / 1e3
    u = log.setpoints_pu()
    energy = []
    seen: dict[int, int] = {}
    for j, bus in enumerate(log.fpu_buses):
        seen[bus] = seen.get(bus, 0) + 1
        tag = f"fpu{bus}" if seen[bus] == 1 else f"fpu{bus}_{seen[bus]}"
        kwh = float(np.sum(u[:, 2 * j]) * s_kw * log.t_sample_s / 3600.0)
        energy.append((tag, kwh))

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
        settle_tol_kw=settle_tol_kw,
        steady_tol_kw=steady_tol_kw,
    )


def time_to_recover(log: TelemetryLog, event_time_s: float, tol_kw: float = SETTLE_TOL_KW) -> int | None:
    """Samples until tracking error stays below ``tol_kw`` after an event."""
    times = log.times()
    err = np.abs(log.tracking_error_kw())
    for i in np.nonzero(times > event_time_s)[0]:
        if np.all(err[i:] < tol_kw):
            return int(round((times[i] - event_time_s) / log.t_sample_s))
    return None


def trailing_violation_counts(log: TelemetryLog, window: int = 10, after_s: float = 0.0) -> np.ndarray:
    """Count of out-of-band samples in each trailing window after ``after_s``."""
    oob = log.out_of_band().astype(int)
    times = log.times()
    counts = []
    for i in range(len(oob)):
        if times[i] < after_s:
            continue
        lo = max(0, i - window + 1)
        counts.append(int(np.sum(oob[lo : i + 1])))
    return np.array(counts, dtype=int)


# --- model-based oracle ------------------------------------------------------


@dataclass(frozen=True)
class OpfResult:
    u: np.ndarray
    phi: float
    p_pcc_pu: float
    stationarity: float
    binding: tuple[str, ...]


def _default_band(net: NetworkModel, band: float = 0.05):
    v_nom = np.array(
        [net.v_to_pu(net.buses[net.index(b)].v_nominal, b) for b in net.pq_ids]
    )
    return v_nom * (1.0 - band), v_nom * (1.0 + band)


def reference_opf(
    net: NetworkModel,
    devices: DeviceSet,
    *,
    p_set_pu: float,
    v_min: np.ndarray | None = None,
    v_max: np.ndarray | None = None,
    slack_v: float = 1.0,
    droop_enabled: bool = True,
    loads_pu: np.ndarray | None = None,
    ev_pu: np.ndarray | None = None,
    restarts: int = 10,
    seed: int = 0,
    step: float = 0.5,
    max_iter: int = 200,
) -> OpfResult:
    """Minimize total squared feed-in subject to the band, the device boxes
    and exact PCC tracking, against the true steady-state plant response.

    Projected-gradient descent with locally refreshed analytic
    linearizations (the legacy Q(V) slopes folded into the power-flow
    Jacobian at the droop fixed point), restarted from random interior
    points; the best feasible stationary point wins. Raises
    :class:`InfeasibleRequestError` with the closest attainable PCC power
    and the binding limits when the request is out of reach.
    """
    from .qp import QpProblem, solve_qp, STATUS_OPTIMAL

    p = devices.n_setpoints
    lb, ub = devices.setpoint_bounds_pu(net.s_base_va)
    if v_min is None or v_max is None:
        v_min, v_max = _default_band(net)
    curves = droop_curves(net, devices) if droop_enabled else ()

    def respond(u, q0=None):
        # tight droop tolerance: the linearization assumes q = Q(V) exactly; at the
        # plant's 1e-8 the stationarity certificate degrades ~20x on a droop ramp
        sol, q, _ = steady_state_response(
            net, devices, u,
            loads_pu=loads_pu, ev_pu=ev_pu, slack_v=slack_v,
            droop_enabled=droop_enabled, droop_q0=q0, tol=1e-13, max_iter=200,
        )
        return sol.v_mag[1:].copy(), sol.pcc_power_pu, q, sol

    def local_jacobian(sol):
        slopes = [qv_droop_slope(c, sol.v_mag[i]) for c, i in curves] if curves else None
        return linearize(net, devices, sol, net.pq_ids, slopes)

    def descend(u_start):
        u = np.clip(u_start, lb, ub)
        q0 = None
        u_lin = None
        dv = dpcc = None
        best_gap = np.inf
        best_phi = np.inf
        stall = 0
        for _ in range(max_iter):
            try:
                v, pcc, q0, pf = respond(u, q0)
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
            if u_lin is None or np.max(np.abs(u - u_lin)) > 0.02:
                dv, dpcc = local_jacobian(pf)
                u_lin = u.copy()
            qp = QpProblem(
                g=2.0 * u,
                alpha=step,
                a_eq=dpcc[None, :],
                b_eq=np.array([p_set_pu - pcc]),
                eq_soft=np.array([True]),
                a_in=dv,
                lb_in=v_min - v,
                ub_in=v_max - v,
                lb_box=lb - u,
                ub_box=ub - u,
            )
            sol = solve_qp(qp)
            if sol.status != STATUS_OPTIMAL:
                return None
            u_new = np.clip(u + step * sol.w, lb, ub)
            if np.max(np.abs(u_new - u)) < 1e-10:
                if np.max(np.abs(u - u_lin)) < 1e-9:
                    u = u_new
                    break
                # converged on a stale linearization: refresh and keep going
                dv, dpcc = local_jacobian(pf)
                u_lin = u.copy()
                continue
            u = u_new
        v, pcc, _, pf = respond(u, q0)
        dv, dpcc = local_jacobian(pf)
        stat, binding = _stationarity(u, v, pcc, dv, dpcc, lb, ub, v_min, v_max)
        return u, float(np.sum(u * u)), pcc, stat, binding

    rng = np.random.default_rng(seed)
    span = np.where(np.isfinite(ub - lb), ub - lb, 2.0)
    lo = np.where(np.isfinite(lb), lb, -1.0)
    starts = [np.zeros(p)]
    for _ in range(max(0, restarts - 1)):
        starts.append(lo + rng.uniform(0.1, 0.9, p) * span)

    best = None
    for u0 in starts:
        out = descend(u0)
        if out is None:
            continue
        if abs(out[2] - p_set_pu) > 1e-6:
            continue
        if best is None or out[1] < best[1]:
            best = out
    if best is None:
        closest, binding = _closest_attainable(
            respond, local_jacobian, p_set_pu, lb, ub, v_min, v_max, p
        )
        raise InfeasibleRequestError(p_set_pu, closest, binding, net.s_base_va)
    u, phi, pcc, stat, binding = best
    return OpfResult(u=u, phi=phi, p_pcc_pu=pcc, stationarity=stat, binding=binding)


def _stationarity(u, v, pcc, dv, dpcc, lb, ub, v_min, v_max):
    """Projected-gradient stationarity: distance of -grad to the active cone."""
    cols = [dpcc, -dpcc]  # equality, free sign
    binding: list[str] = []
    for i in range(dv.shape[0]):
        if v[i] >= v_max[i] - 1e-6:
            cols.append(dv[i])
            binding.append(f"v_max@row{i}")
        if v[i] <= v_min[i] + 1e-6:
            cols.append(-dv[i])
            binding.append(f"v_min@row{i}")
    for j in range(u.shape[0]):
        e = np.zeros(u.shape[0])
        e[j] = 1.0
        if u[j] >= ub[j] - 1e-9:
            cols.append(e)
            binding.append(f"u_max[{j}]")
        if u[j] <= lb[j] + 1e-9:
            cols.append(-e)
            binding.append(f"u_min[{j}]")
    N = np.column_stack(cols)
    coef, _ = nnls(N, -2.0 * u)
    resid = 2.0 * u + N @ coef
    return float(np.max(np.abs(resid))), tuple(binding)


def _closest_attainable(respond, local_jacobian, p_set_pu, lb, ub, v_min, v_max, p):
    """Best-effort tracking point used in infeasibility reports."""
    from .qp import QpProblem, solve_qp, STATUS_OPTIMAL

    u = np.clip(np.zeros(p), lb, ub)
    q0 = None
    pcc = 0.0
    u_lin = None
    dv = dpcc = None
    for _ in range(150):
        v, pcc, q0, pf = respond(u, q0)
        if u_lin is None or np.max(np.abs(u - u_lin)) > 0.02:
            dv, dpcc = local_jacobian(pf)
            u_lin = u.copy()
        gap = pcc - p_set_pu
        if abs(gap) < 1e-9:
            break
        scale = max(float(dpcc @ dpcc), 1e-12)
        qp = QpProblem(
            g=dpcc * gap / scale,
            alpha=1.0,
            a_in=dv,
            lb_in=v_min - v,
            ub_in=v_max - v,
            lb_box=lb - u,
            ub_box=ub - u,
        )
        sol = solve_qp(qp)
        if sol.status != STATUS_OPTIMAL:
            break
        u_new = np.clip(u + sol.w, lb, ub)
        if np.max(np.abs(u_new - u)) < 1e-11:
            u = u_new
            break
        u = u_new
    v, pcc, _, _ = respond(u, q0)
    binding = []
    for j in range(p):
        if u[j] >= ub[j] - 1e-9:
            binding.append(f"u_max[{j}]")
        if u[j] <= lb[j] + 1e-9:
            binding.append(f"u_min[{j}]")
    for i in range(v.shape[0]):
        if v[i] >= v_max[i] - 1e-6:
            binding.append(f"v_max@row{i}")
        if v[i] <= v_min[i] + 1e-6:
            binding.append(f"v_min@row{i}")
    return pcc, tuple(binding)


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

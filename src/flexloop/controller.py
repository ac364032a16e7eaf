"""Measurement-feedback projected-gradient controller.

Each sample the controller takes the latest grid measurement, projects the
objective gradient onto the linearized feasible set by solving a small QP,
and applies ``u <- u + alpha * w``. The objective is the total squared
(P, Q) feed-in of the controllable units, so the projection trades tracking
of the requested PCC exchange against minimal actuation, with measured (not
modeled) voltages in the constraint rows.

Safety rules baked in: the emitted setpoints always satisfy the device
boxes exactly; on an invalid measurement or an infeasible projection the
controller holds the previous setpoints and raises an alarm record instead
of extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import DeviceSet, NetworkModel
from .qp import STATUS_OPTIMAL, QpProblem, QpSolution, solve_qp
from .sensitivity import SensitivityMatrix

DEFAULT_ALPHA = 0.3
DEFAULT_RHO = 1e4
DEFAULT_BAND = 0.05  # +/- around nominal voltage, p.u.
DEFAULT_TRACKING_GAIN = 0.85
SLACK_FLAG_TOL = 1e-6  # p.u.; equality slack above this is flagged


class InvalidMeasurementError(ValueError):
    """Measurement is stale or has invalid channels."""


@dataclass(frozen=True)
class Measurement:
    """One sample of grid feedback: bus voltages and PCC active power."""

    v: np.ndarray
    bus_ids: tuple[int, ...]
    p_pcc: float
    timestamp: float
    v_valid: np.ndarray
    pcc_valid: bool = True
    flags: tuple[str, ...] = ()

    @staticmethod
    def make(v, bus_ids, p_pcc, timestamp, flags=()) -> "Measurement":
        """Measurement whose channels are valid exactly where they are finite."""
        v = np.asarray(v, dtype=float)
        return Measurement(
            v=v,
            bus_ids=tuple(bus_ids),
            p_pcc=float(p_pcc),
            timestamp=float(timestamp),
            v_valid=np.isfinite(v),
            pcc_valid=bool(np.isfinite(p_pcc)),
            flags=tuple(flags),
        )

    @property
    def all_valid(self) -> bool:
        """Every channel flagged valid and finite; a flag alone is not trusted."""
        finite = np.isfinite(self.p_pcc) and np.all(np.isfinite(self.v))
        return bool(self.pcc_valid and np.all(self.v_valid) and finite)


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning, limits and model information for the feedback loop."""

    alpha: float
    rho: float
    p_set_pu: float
    monitored: tuple[int, ...]
    v_min: np.ndarray
    v_max: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    s_base_va: float
    sensitivity: SensitivityMatrix | None = None
    max_step_pu: float | None = None
    # Fraction of the measured gap the sensitivity-based rows (PCC tracking
    # and voltage band) close per step. 1.0 is a one-step (deadbeat)
    # correction; values below 1 damp the loop so it stays contractive
    # under sensitivity-matrix mismatch (entry scalings down to 0.5 leave
    # a >=0.3 contraction margin). Device boxes are never damped; they are
    # exact.
    tracking_gain: float = DEFAULT_TRACKING_GAIN

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("step size alpha must be positive")
        if self.rho <= 0:
            raise ValueError("soft-equality weight rho must be positive")
        if np.any(self.v_min >= self.v_max):
            raise ValueError("voltage band is empty at some bus")
        if self.max_step_pu is not None and self.max_step_pu <= 0:
            raise ValueError("per-step saturation limit must be positive")
        if not 0.0 < self.tracking_gain <= 1.0:
            raise ValueError("tracking gain must be in (0, 1]")

    @staticmethod
    def for_network(
        net: NetworkModel,
        devices: DeviceSet,
        *,
        alpha: float = DEFAULT_ALPHA,
        rho: float = DEFAULT_RHO,
        p_set_kw: float = 0.0,
        band: float = DEFAULT_BAND,
        sensitivity: SensitivityMatrix | None = None,
        max_step_pu: float | None = None,
        tracking_gain: float = DEFAULT_TRACKING_GAIN,
    ) -> "ControllerConfig":
        monitored = (
            sensitivity.monitored_buses if sensitivity is not None else net.pq_ids
        )
        v_nom = np.array([net.v_to_pu(net.buses[net.index(b)].v_nominal, b) for b in monitored])
        u_min, u_max = devices.setpoint_bounds_pu(net.s_base_va)
        return ControllerConfig(
            alpha=alpha,
            rho=rho,
            p_set_pu=p_set_kw * 1e3 / net.s_base_va,
            monitored=tuple(monitored),
            v_min=v_nom * (1.0 - band),
            v_max=v_nom * (1.0 + band),
            u_min=u_min,
            u_max=u_max,
            s_base_va=net.s_base_va,
            sensitivity=sensitivity,
            max_step_pu=max_step_pu,
            tracking_gain=tracking_gain,
        )


def set_flexibility_request(cfg: ControllerConfig, p_set_kw: float) -> ControllerConfig:
    """New config with an updated PCC target; applies from the next step."""
    return replace(cfg, p_set_pu=p_set_kw * 1e3 / cfg.s_base_va)


def objective_gradient(u: np.ndarray) -> np.ndarray:
    """Gradient of the total squared feed-in, mapped through the identity
    input block of the sensitivity; the measurement block multiplies a zero
    output gradient, so the result is simply ``2 u``."""
    return 2.0 * np.asarray(u, dtype=float)


def assemble_projection_qp(
    u: np.ndarray, y: Measurement, cfg: ControllerConfig
) -> QpProblem:
    """Build the projection QP from the current setpoints and measurement.

    Box rows keep ``u + alpha w`` inside the device limits, two-sided rows
    keep the linearized voltages inside the band around the measured values,
    and the (soft) equality row pins the linearized PCC power to the target.
    """
    if not y.all_valid:
        raise InvalidMeasurementError("measurement has invalid channels")
    sens = cfg.sensitivity
    if sens is None:
        raise ValueError("controller config carries no sensitivity matrix")
    u = np.asarray(u, dtype=float)
    p = sens.n_setpoints
    if u.shape != (p,):
        raise ValueError(f"setpoint vector must have shape ({p},)")
    if not (y.bus_ids == cfg.monitored == sens.monitored_buses) or y.v.shape != (len(y.bus_ids),):
        raise InvalidMeasurementError("measurement buses or voltages do not match the monitored set")

    lb_box = cfg.u_min - u
    ub_box = cfg.u_max - u
    if cfg.max_step_pu is not None:
        lb_box = np.maximum(lb_box, -cfg.max_step_pu)
        ub_box = np.minimum(ub_box, cfg.max_step_pu)

    kappa = cfg.tracking_gain
    return QpProblem(
        g=objective_gradient(u),
        alpha=cfg.alpha,
        a_eq=sens.dpcc[None, :],
        b_eq=np.array([kappa * (cfg.p_set_pu - y.p_pcc)]),
        eq_soft=np.array([True]),
        rho=cfg.rho,
        a_in=sens.dv,
        lb_in=kappa * (cfg.v_min - y.v),
        ub_in=kappa * (cfg.v_max - y.v),
        lb_box=lb_box,
        ub_box=ub_box,
    )


@dataclass(frozen=True)
class StepRecord:
    """Telemetry for one controller invocation (one CSV row)."""

    iteration: int
    timestamp: float
    u: np.ndarray
    v: np.ndarray
    p_pcc: float
    p_set: float
    qp_status: str
    eq_slack: float
    active_mask: int
    soft_fallback: bool
    alarm: bool


def _held_record(u, y, cfg, reason: str) -> StepRecord:
    return StepRecord(
        iteration=-1,
        timestamp=y.timestamp,
        u=np.array(u, copy=True),
        v=np.array(y.v, copy=True),
        p_pcc=y.p_pcc,
        p_set=cfg.p_set_pu,
        qp_status=reason,
        eq_slack=float("nan"),
        active_mask=0,
        soft_fallback=False,
        alarm=True,
    )


def controller_step(
    u: np.ndarray, y: Measurement, cfg: ControllerConfig
) -> tuple[np.ndarray, StepRecord]:
    """One feedback iteration: gradient, projection QP, setpoint update.

    Returns the next setpoint vector and its telemetry record. The update is
    clipped to the device boxes so the emitted setpoints satisfy them
    exactly; holds with an alarm if the setpoints have the wrong shape or a
    non-finite entry, if the measurement is invalid (a non-finite or invalid
    channel, or buses that do not match the monitored set) or if the
    projection has no feasible direction even after softening the tracking
    row.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != cfg.u_min.shape or not np.all(np.isfinite(u)):
        return u.copy(), _held_record(u, y, cfg, "held_invalid_setpoints")
    try:
        problem = assemble_projection_qp(u, y, cfg)
    except InvalidMeasurementError:
        return u.copy(), _held_record(u, y, cfg, "held_invalid_measurement")
    sol: QpSolution = solve_qp(problem)
    if sol.status != STATUS_OPTIMAL:
        return u.copy(), _held_record(u, y, cfg, f"held_{sol.status}")

    u_next = np.clip(u + cfg.alpha * sol.w, cfg.u_min, cfg.u_max)
    slack = float(np.max(np.abs(sol.eq_slack), initial=0.0))
    return u_next, StepRecord(
        iteration=-1,
        timestamp=y.timestamp,
        u=u_next,
        v=np.array(y.v, copy=True),
        p_pcc=y.p_pcc,
        p_set=cfg.p_set_pu,
        qp_status=sol.status,
        eq_slack=slack,
        active_mask=sol.active_mask,
        soft_fallback=sol.softened and slack > SLACK_FLAG_TOL,
        alarm=False,
    )

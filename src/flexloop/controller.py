"""Measurement-feedback projected-gradient controller.

Each sample the controller takes the latest grid measurement, projects the
objective gradient onto the linearized feasible set by solving a small QP,
and applies ``u <- u + alpha * w``. The objective is the total squared
(P, Q) feed-in of the controllable units, so the projection trades tracking
of the requested PCC exchange against minimal actuation, with measured (not
modeled) voltages in the constraint rows.

Safety rules baked in: the emitted setpoints always satisfy the device
boxes exactly; on an invalid input or an infeasible projection the
controller holds the previous setpoints and raises an alarm record instead
of extrapolating, and never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import DeviceSet, NetworkModel
from .qp import DEFAULT_RHO, STATUS_OPTIMAL, QpProblem, QpSolution, solve_qp
from .sensitivity import SensitivityMatrix

DEFAULT_ALPHA = 0.3
DEFAULT_BAND = 0.05  # +/- around nominal voltage, p.u.
DEFAULT_TRACKING_GAIN = 0.85
SLACK_FLAG_TOL = 1e-6  # p.u.; equality slack above this is flagged
MAX_MEASURED_PU = 1e3  # |v|, |p_pcc|, |p_set| or |u| above this is no physical value; also alpha's cap


class InvalidMeasurementError(ValueError):
    """Measurement or PCC request has a non-finite or unphysical channel
    (beyond ``MAX_MEASURED_PU``), a non-finite timestamp (its order is not
    checked), or buses or voltages that do not match the monitored set."""


def _not_complex(x):  # float() takes NumPy's complex values with a ComplexWarning, dropping the imaginary part
    if np.iscomplexobj(x):
        raise TypeError(f"a real number is required, not {type(x).__name__}")
    return x


def real_request(p_set_pu) -> float:
    """The PCC request as a float; NaN if it is not a real number (complex, or not convertible by ``float()``)."""
    try:
        return float(_not_complex(p_set_pu))
    except (TypeError, ValueError):
        return float("nan")


def check_request(p_set_pu: float) -> None:
    """Raise :class:`InvalidMeasurementError` unless the PCC request (p.u.) is finite and within ``MAX_MEASURED_PU``."""
    if not abs(p_set_pu) <= MAX_MEASURED_PU:
        raise InvalidMeasurementError(
            f"PCC power request must be finite and within {MAX_MEASURED_PU:g} p.u., got {p_set_pu:g} p.u."
        )


@dataclass(frozen=True)
class Measurement:
    """One sample of grid feedback: bus voltages and PCC active power.

    Validity is the value: a channel is valid exactly when it is finite and within
    ``MAX_MEASURED_PU`` in magnitude, so a dropout is a NaN channel, and the timestamp
    when finite. Channels are coerced to floats when built; a complex one raises ``TypeError``.
    """

    v: np.ndarray
    bus_ids: tuple[int, ...]
    p_pcc: float
    timestamp: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", np.asarray(_not_complex(self.v), dtype=float))
        object.__setattr__(self, "bus_ids", tuple(self.bus_ids))
        object.__setattr__(self, "p_pcc", float(_not_complex(self.p_pcc)))
        object.__setattr__(self, "timestamp", float(_not_complex(self.timestamp)))

    @property
    def all_valid(self) -> bool:
        """Every channel finite and within ``MAX_MEASURED_PU``, and the timestamp finite."""
        return bool(abs(self.p_pcc) <= MAX_MEASURED_PU and np.all(np.abs(self.v) <= MAX_MEASURED_PU)
                    and np.isfinite(self.timestamp))


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning, limits and model information, fixed for a run (the request is a per-sample input)."""

    alpha: float
    rho: float
    monitored: tuple[int, ...]
    v_min: np.ndarray
    v_max: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    sensitivity: SensitivityMatrix | None = None
    # Fraction of the measured gap the sensitivity-based rows (PCC tracking
    # and voltage band) close per step. 1.0 is a one-step (deadbeat)
    # correction; values below 1 damp the loop so it stays contractive
    # under sensitivity-matrix mismatch (entry scalings down to 0.5 leave
    # a >=0.3 contraction margin). Device boxes are never damped; they are
    # exact.
    tracking_gain: float = DEFAULT_TRACKING_GAIN

    def __post_init__(self) -> None:
        # comparisons with NaN are false, so each check also rejects NaN
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"step size alpha must be positive and finite, got {self.alpha}")
        if self.alpha > MAX_MEASURED_PU:
            raise ValueError(f"step size alpha must be at most {MAX_MEASURED_PU:g}, got {self.alpha:g}")
        if not 0.0 < self.rho < np.inf:
            raise ValueError(f"soft-equality weight rho must be positive and finite, got {self.rho}")
        if not (np.all(np.isfinite(self.v_min)) and np.all(np.isfinite(self.v_max))):
            raise ValueError("voltage band limits must be finite")
        if np.any(self.v_min >= self.v_max):
            raise ValueError("voltage band is empty at some bus")
        if not 0.0 < self.tracking_gain <= 1.0:
            raise ValueError("tracking gain must be in (0, 1]")
        # every shape the projection QP combines, so a mismatch cannot raise
        # inside controller_step
        n_v, p = len(self.monitored), len(self.u_min)
        if not np.shape(self.v_min) == np.shape(self.v_max) == (n_v,) or np.shape(self.u_max) != (p,):
            raise ValueError("voltage band or setpoint box does not match the monitored buses or setpoints")
        if not np.all(self.u_min <= self.u_max):
            raise ValueError("setpoint box is empty or NaN at some entry")
        sens = self.sensitivity
        if sens is not None and (np.shape(sens.dv) != (n_v, p) or np.shape(sens.dpcc) != (p,)):
            raise ValueError(f"sensitivity must map {p} setpoints to {n_v} voltages and the PCC power")
        if sens is not None and not (np.all(np.isfinite(sens.dv)) and np.all(np.isfinite(sens.dpcc))):
            raise ValueError("sensitivity entries must be finite")

    @cached_property
    def _projection(self) -> QpProblem:
        """The projection QP's rows, built at this config's first step, so
        once per run."""
        return QpProblem(g=np.zeros(len(self.u_min)), alpha=self.alpha, a_eq=self.sensitivity.dpcc[None, :],
                         eq_soft=True, rho=self.rho, a_in=self.sensitivity.dv)

    @staticmethod
    def for_network(
        net: NetworkModel,
        devices: DeviceSet,
        *,
        alpha: float = DEFAULT_ALPHA,
        rho: float = DEFAULT_RHO,
        band: float = DEFAULT_BAND,
        sensitivity: SensitivityMatrix | None = None,
        tracking_gain: float = DEFAULT_TRACKING_GAIN,
    ) -> "ControllerConfig":
        monitored = net.pq_ids
        u_min, u_max = devices.setpoint_bounds_pu(net.s_base_va)
        return ControllerConfig(
            alpha=alpha,
            rho=rho,
            monitored=monitored,
            v_min=np.full(len(monitored), 1.0 - band),
            v_max=np.full(len(monitored), 1.0 + band),
            u_min=u_min,
            u_max=u_max,
            sensitivity=sensitivity,
            tracking_gain=tracking_gain,
        )


def objective_gradient(u: np.ndarray) -> np.ndarray:
    """Gradient of the total squared feed-in, mapped through the identity
    input block of the sensitivity; the measurement block multiplies a zero
    output gradient, so the result is simply ``2 u``."""
    return 2.0 * np.asarray(u, dtype=float)


def assemble_projection_qp(
    u: np.ndarray, y: Measurement, p_set_pu: float, cfg: ControllerConfig
) -> QpProblem:
    """Build the projection QP from the setpoints, measurement and request,
    on the rows of ``cfg``, which must carry a sensitivity.

    Box rows keep ``u + alpha w`` inside the device limits, two-sided rows
    keep the linearized voltages inside the band around the measured values,
    and the (soft) equality row pins the linearized PCC power to the request.
    """
    if not y.all_valid:
        raise InvalidMeasurementError("measurement has invalid channels")
    check_request(p_set_pu)
    if y.bus_ids != cfg.monitored or y.v.shape != (len(y.bus_ids),):
        raise InvalidMeasurementError("measurement buses or voltages do not match the monitored set")

    kappa = cfg.tracking_gain
    return cfg._projection.with_sample(
        g=objective_gradient(u),
        b_eq=np.array([kappa * (p_set_pu - y.p_pcc)]),
        lb_in=kappa * (cfg.v_min - y.v),
        ub_in=kappa * (cfg.v_max - y.v),
        lb_box=cfg.u_min - u,
        ub_box=cfg.u_max - u,
    )


@dataclass(frozen=True)
class StepRecord:
    """Telemetry for one controller invocation (one CSV row)."""

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


def _record(u, y, p_set_pu, status: str, eq_slack=float("nan"), active_mask=0, soft_fallback=False) -> StepRecord:
    """A step's telemetry; a ``held_*`` status is an alarm."""
    return StepRecord(
        timestamp=y.timestamp, u=u.copy(), v=np.array(y.v, copy=True), p_pcc=y.p_pcc,
        p_set=p_set_pu, qp_status=status, eq_slack=eq_slack, active_mask=active_mask,
        soft_fallback=soft_fallback, alarm=status.startswith("held_"),
    )


def controller_step(
    u: np.ndarray, y: Measurement, p_set_pu: float, cfg: ControllerConfig, warm_start: int = 0
) -> tuple[np.ndarray, StepRecord]:
    """One feedback iteration toward the PCC request ``p_set_pu`` (p.u.).

    Returns the next setpoint vector and its telemetry record. The update is
    clipped to the device boxes so the emitted setpoints satisfy them
    exactly. It raises nothing: it holds with an alarm if the setpoints are
    complex, have the wrong shape or an entry beyond ``MAX_MEASURED_PU``, if
    the config has no sensitivity, if the measurement or request is invalid (a
    non-finite or unphysical channel or timestamp, buses that do not match the
    monitored set, or a request that is not a real number, recorded as NaN) or
    if the projection has no feasible direction even after softening the
    tracking row. The projection starts from ``warm_start``, the previous
    record's ``active_mask`` (:func:`~flexloop.qp.solve_qp`).
    """
    complex_u = np.iscomplexobj(u)  # a float cast would drop the imaginary part, with a ComplexWarning
    u = np.asarray(u, dtype=complex if complex_u else float)
    p_set_pu = real_request(p_set_pu)  # held below if NaN
    if complex_u or u.shape != cfg.u_min.shape or not np.all(np.abs(u) <= MAX_MEASURED_PU):
        return u.copy(), _record(u, y, p_set_pu, "held_invalid_setpoints")
    if cfg.sensitivity is None:
        return u.copy(), _record(u, y, p_set_pu, "held_invalid_config")
    try:
        problem = assemble_projection_qp(u, y, p_set_pu, cfg)
    except InvalidMeasurementError:
        return u.copy(), _record(u, y, p_set_pu, "held_invalid_measurement")
    sol: QpSolution = solve_qp(problem, warm_start=warm_start)
    if sol.status != STATUS_OPTIMAL:
        return u.copy(), _record(u, y, p_set_pu, f"held_{sol.status}")

    u_next = np.clip(u + cfg.alpha * sol.w, cfg.u_min, cfg.u_max)
    slack = float(np.max(np.abs(sol.eq_slack), initial=0.0))
    return u_next, _record(u_next, y, p_set_pu, sol.status, slack, sol.active_mask,
                           sol.softened and slack > SLACK_FLAG_TOL)

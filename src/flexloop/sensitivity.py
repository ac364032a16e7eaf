"""Steady-state input-output sensitivities of the grid.

The controller needs one piece of model information: how a change in each
controllable (P, Q) setpoint moves the monitored bus voltages and the active
power exchanged at the PCC. The map is the analytic linearization of the
power-flow equations at one operating point (implicit-function theorem, one
solve with the Newton Jacobian) and is then held fixed; the feedback loop
tolerates the resulting model mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import DeviceSet, NetworkModel, add_setpoint_injections, base_injections, pq_positions
from .powerflow import PowerFlowSolution, power_jacobian, solve_power_flow


class SensitivityError(RuntimeError):
    """The operating point has no usable linearization."""


@dataclass(frozen=True)
class SensitivityMatrix:
    """Linear response of (bus voltages, PCC power) to setpoint changes.

    ``dv`` has one row per monitored bus and one column per setpoint entry,
    in p.u. voltage per p.u. power; ``dpcc`` is the PCC-power row in p.u.
    per p.u. The operating point the map was linearized at is kept for
    bookkeeping and re-linearization decisions.
    """

    dv: np.ndarray
    dpcc: np.ndarray
    monitored_buses: tuple[int, ...]
    operating_point: np.ndarray

    @property
    def n_setpoints(self) -> int:
        return self.dpcc.shape[0]

    def combined(self) -> np.ndarray:
        """Voltage rows stacked on top of the PCC row."""
        return np.vstack([self.dv, self.dpcc[None, :]])

    def scaled(self, factors_v: np.ndarray, factors_pcc: np.ndarray) -> "SensitivityMatrix":
        """Entry-wise scaled copy, used for model-mismatch studies."""
        return replace(self, dv=self.dv * factors_v, dpcc=self.dpcc * factors_pcc)


def linearize(
    net: NetworkModel,
    devices: DeviceSet,
    sol: PowerFlowSolution,
    monitored: tuple[int, ...],
    droop_slopes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(dv, dpcc)`` at a converged power flow, by the implicit-function theorem.

    The PQ mismatch ``S(x) - S_spec(u) = 0`` gives ``J dx = C du``; ``C``
    places each setpoint at its :func:`~flexloop.grid.pq_positions` entry,
    the map :func:`add_setpoint_injections` uses. ``dv`` is the
    monitored-magnitude part of ``dx``, ``dpcc`` the slack's active-power
    row applied to it. ``droop_slopes`` (dQ/dV per legacy inverter) lets
    each inverter's reactive output follow its terminal voltage; without it
    the droop output is held fixed.
    """
    full = power_jacobian(net, sol.v_mag, sol.v_ang)
    jac = np.delete(full, (0, net.n_buses), axis=0)
    if droop_slopes is not None:
        dq_dv = pq_positions(net, [inv.bus for inv in devices.legacy])[1::2]
        np.subtract.at(jac, (dq_dv, dq_dv), droop_slopes)
    p = devices.n_setpoints
    c = np.zeros((len(jac), p))
    c[pq_positions(net, devices.fpu_buses), np.arange(p)] = 1.0
    try:
        dx = np.linalg.solve(jac, c)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError("singular Jacobian at the operating point") from exc
    dv = dx[pq_positions(net, monitored)[1::2]]
    return dv, full[0] @ dx


def compute_sensitivity(
    net: NetworkModel,
    devices: DeviceSet,
    u0: np.ndarray,
    *,
    slack_v: float = 1.0,
    monitored: tuple[int, ...] | None = None,
) -> SensitivityMatrix:
    """Analytic sensitivities around setpoint vector ``u0``.

    One power flow at ``u0`` on top of the static loads and legacy feed-in,
    then :func:`linearize` at that solution; legacy droop output is held at
    zero, as in the static model. Raises :class:`SensitivityError` when the
    operating point does not converge.
    """
    u0 = np.asarray(u0, dtype=float)
    p = devices.n_setpoints
    if u0.shape != (p,):
        raise ValueError(f"operating point must have shape ({p},), got {u0.shape}")
    monitored = net.pq_ids if monitored is None else tuple(monitored)

    inj = add_setpoint_injections(base_injections(net, devices), net, devices, u0)
    ref = solve_power_flow(net, inj, slack_v)
    if not ref.converged:
        raise SensitivityError("power flow does not converge at the operating point")
    dv, dpcc = linearize(net, devices, ref, monitored)
    return SensitivityMatrix(dv, dpcc, monitored_buses=monitored, operating_point=u0.copy())

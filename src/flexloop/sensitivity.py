"""Steady-state input-output sensitivities of the grid.

The controller needs one piece of model information: how a change in each
controllable (P, Q) setpoint moves the voltage of every PQ bus and the
active power exchanged at the PCC. The map is the analytic linearization of
the power-flow equations at one operating point (implicit-function theorem:
one band LU solve with the Newton Jacobian, through the power flow's own
solve helper) and is then held fixed; the feedback loop tolerates the
resulting model mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DeviceSet, DroopLaw, NetworkModel, injections, pq_positions
from .powerflow import PowerFlowSolution, _band_solve, _evaluate, _jacobian, solve_power_flow


class SensitivityError(RuntimeError):
    """The operating point has no usable linearization."""


@dataclass(frozen=True)
class SensitivityMatrix:
    """Linear response of (bus voltages, PCC power) to setpoint changes.

    ``dv`` has one row per PQ bus, in ``net.pq_ids`` order, and one column
    per setpoint entry, in p.u. voltage per p.u. power; ``dpcc`` is the
    PCC-power row in p.u. per p.u.
    """

    dv: np.ndarray
    dpcc: np.ndarray


def linearize(
    net: NetworkModel,
    devices: DeviceSet,
    sol: PowerFlowSolution,
    droop: DroopLaw | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(dv, dpcc)`` at a converged power flow, by the implicit-function theorem.

    The PQ mismatch ``S(x) - S_spec(u) = 0`` gives ``J dx = C du``; ``C``
    places each setpoint at its :func:`~flexloop.grid.pq_positions` entry,
    the map :func:`~flexloop.grid.injections` uses. ``dv`` is the magnitude
    half of ``dx`` (every PQ bus, in ``net.pq_ids`` order), ``dpcc`` the
    slack's active-power row applied to it. With ``droop``, each legacy
    inverter's reactive output follows its terminal voltage, as in the power
    flow; without it the droop output is held fixed.
    """
    dq_dv = None if droop is None else droop.response(sol.v_mag[droop.buses])[1]
    band, slack = _jacobian(net, sol.v_mag, _evaluate(net, sol.v_mag, sol.v_ang), droop, dq_dv)
    p = devices.n_setpoints
    c = np.zeros((len(band), p))
    c[pq_positions(net, devices.fpu_buses), np.arange(p)] = 1.0
    try:
        dx = _band_solve(net, band, c)
    except np.linalg.LinAlgError as exc:
        raise SensitivityError("singular Jacobian at the operating point") from exc
    return dx[len(net.pq_ids):], slack[0] @ dx


def compute_sensitivity(
    net: NetworkModel,
    devices: DeviceSet,
    u0: np.ndarray,
) -> SensitivityMatrix:
    """Analytic sensitivities around setpoint vector ``u0``.

    One power flow at ``u0`` on top of the static loads and legacy feed-in,
    at slack voltage 1.0 p.u., then :func:`linearize` at that solution;
    legacy droop output is held at zero, as in the static model. Raises :class:`SensitivityError` when the
    operating point does not converge.
    """
    u0 = np.asarray(u0, dtype=float)
    p = devices.n_setpoints
    if u0.shape != (p,):
        raise ValueError(f"operating point must have shape ({p},), got {u0.shape}")

    ref = solve_power_flow(net, injections(net, devices, u0))
    if not ref.converged:
        raise SensitivityError("power flow does not converge at the operating point")
    return SensitivityMatrix(*linearize(net, devices, ref))

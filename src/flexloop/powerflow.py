"""Newton-Raphson AC power flow for PQ-bus networks.

State vector is polar: voltage angles and magnitudes at the PQ buses. The
slack bus holds the commanded magnitude at zero angle. Power mismatches and
the analytic Jacobian are evaluated from the trigonometric kernels

    t1[i,k] = G[i,k] cos(th_i - th_k) + B[i,k] sin(th_i - th_k)
    t2[i,k] = G[i,k] sin(th_i - th_k) - B[i,k] cos(th_i - th_k)

so that P_i = V_i * sum_k V_k t1[i,k] and Q_i = V_i * sum_k V_k t2[i,k].
This formulation avoids divisions by V and stays well defined (and exactly
singular) at collapsed states, which the solver reports explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import NetworkModel

MISMATCH_TOL = 1e-8
MAX_ITERATIONS = 30


class PowerFlowError(RuntimeError):
    """Power-flow evaluation failed in a way that has no usable result."""


class SingularJacobianError(PowerFlowError):
    """The Newton Jacobian is singular at the current iterate."""


@dataclass(frozen=True)
class PowerFlowSolution:
    """Converged (or explicitly non-converged) operating point.

    Voltages are per-unit over the full bus set in model order.
    """

    v_mag: np.ndarray
    v_ang: np.ndarray
    pcc_power_w: float
    pcc_power_pu: float
    losses_w: float
    converged: bool
    iterations: int
    max_mismatch_pu: float


def _power_kernels(g: np.ndarray, b: np.ndarray, v_ang: np.ndarray):
    dth = v_ang[:, None] - v_ang[None, :]
    cs = np.cos(dth)
    sn = np.sin(dth)
    t1 = g * cs + b * sn
    t2 = g * sn - b * cs
    return t1, t2


def bus_powers(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray):
    """Active/reactive injections implied by a voltage state, per-unit."""
    y = net.ybus
    t1, t2 = _power_kernels(y.real, y.imag, v_ang)
    p = v_mag * (t1 @ v_mag)
    q = v_mag * (t2 @ v_mag)
    return p, q


def power_jacobian(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of every bus injection with respect to the PQ unknowns.

    Ordering: rows are [dP; dQ] over the full bus set (slack first), columns
    [d theta_pq; d V_pq]. Row 0 is the slack's active power, the PCC exchange.
    """
    y = net.ybus
    g, b = y.real, y.imag
    t1, t2 = _power_kernels(g, b, v_ang)
    vv = np.outer(v_mag, v_mag)
    c = vv * t1
    s = vv * t2

    dp_dth = s.copy()
    np.fill_diagonal(dp_dth, -(s.sum(axis=1) - np.diag(s)))
    dq_dth = -c
    np.fill_diagonal(dq_dth, c.sum(axis=1) - np.diag(c))
    dp_dv = v_mag[:, None] * t1
    np.fill_diagonal(dp_dv, t1 @ v_mag + v_mag * np.diag(t1))
    dq_dv = v_mag[:, None] * t2
    np.fill_diagonal(dq_dv, t2 @ v_mag + v_mag * np.diag(t2))

    pq = slice(1, None)
    return np.block([[dp_dth[:, pq], dp_dv[:, pq]], [dq_dth[:, pq], dq_dv[:, pq]]])


def newton_jacobian(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray) -> np.ndarray:
    """Mismatch Jacobian: :func:`power_jacobian` without the slack rows.

    Ordering: rows are [dP_pq; dQ_pq], columns [d theta_pq; d V_pq].
    """
    return np.delete(power_jacobian(net, v_mag, v_ang), (0, net.n_buses), axis=0)


def solve_power_flow(
    net: NetworkModel,
    injections_pu: np.ndarray,
    slack_v: float = 1.0,
    *,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
) -> PowerFlowSolution:
    """Solve the network at the given per-PQ-bus (P, Q) injections.

    Parameters
    ----------
    injections_pu:
        Array of shape ``(n_pq, 2)`` ordered like ``net.pq_ids``; positive
        values inject power into the grid.
    slack_v:
        Slack voltage magnitude in per-unit, restricted to [0.8, 1.2].
    x0:
        Optional warm start ``(v_mag, v_ang)`` over the full bus set.

    Returns a :class:`PowerFlowSolution`. Non-convergence is reported via the
    ``converged`` flag, never silently; an exactly singular Jacobian raises
    :class:`SingularJacobianError`.
    """
    inj = np.asarray(injections_pu, dtype=float)
    n_pq = net.n_buses - 1
    if inj.shape != (n_pq, 2):
        raise ValueError(f"injections must have shape ({n_pq}, 2), got {inj.shape}")
    if not np.all(np.isfinite(inj)):
        raise ValueError("injections contain non-finite values")
    if not 0.8 <= slack_v <= 1.2:
        raise ValueError(f"slack voltage {slack_v} outside [0.8, 1.2] p.u.")

    if x0 is None:
        v_mag = np.full(net.n_buses, float(slack_v))
        v_ang = np.zeros(net.n_buses)
    else:
        v_mag = np.array(x0[0], dtype=float, copy=True)
        v_ang = np.array(x0[1], dtype=float, copy=True)
    v_mag[0] = slack_v
    v_ang[0] = 0.0

    p_spec = inj[:, 0]
    q_spec = inj[:, 1]
    pq = slice(1, net.n_buses)

    def _mismatch():
        p, q = bus_powers(net, v_mag, v_ang)
        return np.concatenate([p[pq] - p_spec, q[pq] - q_spec])

    def _newton_step(f, it):
        jac = newton_jacobian(net, v_mag, v_ang)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {it} "
                f"(max mismatch {np.max(np.abs(f)):.3e} p.u.)"
            ) from exc
        if not np.all(np.isfinite(step)):
            return False
        v_ang[pq] += step[:n_pq]
        v_mag[pq] += step[n_pq:]
        return True

    converged = False
    iterations = 0
    mismatch = np.inf
    for it in range(MAX_ITERATIONS + 1):
        f = _mismatch()
        mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        if mismatch < MISMATCH_TOL:
            converged = True
            iterations = it
            break
        if it == MAX_ITERATIONS:
            iterations = it
            break
        if not _newton_step(f, it):
            iterations = it
            break

    if converged and 1e-14 < mismatch:
        # one polishing step: quadratic convergence pulls the aggregate
        # balance residual far below the per-bus stopping tolerance
        if _newton_step(_mismatch(), iterations):
            f = _mismatch()
            mismatch = float(np.max(np.abs(f))) if f.size else 0.0

    return _package(net, v_mag, v_ang, converged, iterations, mismatch)


def _package(
    net: NetworkModel,
    v_mag: np.ndarray,
    v_ang: np.ndarray,
    converged: bool,
    iterations: int,
    mismatch: float,
) -> PowerFlowSolution:
    volts = v_mag * np.exp(1j * v_ang)
    s_base = net.s_base_va
    # slack injection equals the power imported from the upstream grid
    i_slack = net.ybus[0, :] @ volts
    s_slack = volts[0] * np.conj(i_slack)
    # losses are what all buses inject together, the slack included
    losses = float(np.sum(volts * np.conj(net.ybus @ volts)).real) * s_base

    return PowerFlowSolution(
        v_mag=v_mag,
        v_ang=v_ang,
        pcc_power_w=float(s_slack.real) * s_base,
        pcc_power_pu=float(s_slack.real),
        losses_w=losses,
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )


def kirchhoff_residual_pu(
    net: NetworkModel, sol: PowerFlowSolution, injections_pu: np.ndarray
) -> float:
    """Active-power balance residual: injections + import - losses, per-unit."""
    total_inj = float(np.sum(np.asarray(injections_pu)[:, 0]))
    return abs(total_inj + sol.pcc_power_pu - sol.losses_w / net.s_base_va)

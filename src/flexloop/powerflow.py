"""Newton-Raphson AC power flow for PQ-bus networks.

State vector is polar: voltage angles and magnitudes at the PQ buses. The
slack bus holds the commanded magnitude at zero angle. Power mismatches and
the analytic Jacobian are evaluated over the nonzeros (i, k) of the bus
admittance matrix only (``NetworkModel.ybus_nonzeros``), from the
trigonometric terms

    t1[i,k] = G[i,k] cos(th_i - th_k) + B[i,k] sin(th_i - th_k)
    t2[i,k] = G[i,k] sin(th_i - th_k) - B[i,k] cos(th_i - th_k)

summed per row: P_i = V_i * sum_k V_k t1[i,k], Q_i = V_i * sum_k V_k t2[i,k].
An evaluation costs one pass over the nonzeros; the Newton step itself is a
dense solve. This formulation avoids divisions by V and stays well defined
(and exactly singular) at collapsed states, which the solver reports
explicitly.

Legacy inverters' piecewise-linear Q(V) droop (:class:`~flexloop.grid.DroopLaw`)
can be solved in the same system: the specified Q at an inverter's bus
becomes its base value plus Q(V_i), so its mismatch row subtracts Q(V_i) and
its dQ/dV Jacobian diagonal subtracts the law's slope, a semismooth Newton
method for piecewise-linear equations (Qi & Sun, Math. Programming 58,
1993). Each Newton step is globalised by Armijo backtracking on the squared
mismatch norm: the full step first, halved up to ``MAX_HALVINGS`` times;
the mismatch at the accepted point is the next iterate's, so a full step
costs no extra evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DroopLaw, NetworkModel

MISMATCH_TOL = 1e-8
MAX_ITERATIONS = 30
MAX_HALVINGS = 10  # backtracking halvings of one Newton step


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


def _kernels(net: NetworkModel, v_ang: np.ndarray):
    """``t1``, ``t2`` (module docstring) at every nonzero of ``net.ybus``."""
    i, k, g, b = net.ybus_nonzeros
    dth = v_ang[i] - v_ang[k]
    cs = np.cos(dth)
    sn = np.sin(dth)
    return g * cs + b * sn, g * sn - b * cs


def bus_powers(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray):
    """Active/reactive injections implied by a voltage state, per-unit."""
    i, k = net.ybus_nonzeros[:2]
    t1, t2 = _kernels(net, v_ang)
    vk = v_mag[k]
    n = net.n_buses
    return v_mag * np.bincount(i, vk * t1, n), v_mag * np.bincount(i, vk * t2, n)


def power_jacobian(
    net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray, droop: DroopLaw | None = None
) -> np.ndarray:
    """Analytic Jacobian of every bus injection with respect to the PQ unknowns.

    Ordering: rows are [dP_pq; dQ_pq; dP_slack; dQ_slack], columns
    [d theta_pq; d V_pq]. The first ``2 (n - 1)`` rows are the Newton
    Jacobian; row ``-2`` is the slack's active power, the PCC exchange.
    With ``droop``, each legacy inverter's dQ/dV is subtracted on its bus's
    dQ/dV diagonal: the Jacobian of the mismatch with ``q = Q(V)``.
    """
    i, k = net.ybus_nonzeros[:2]
    n = net.n_buses
    m = 2 * n - 2
    t1, t2 = _kernels(net, v_ang)
    vi, vk = v_mag[i], v_mag[k]
    r1 = np.bincount(i, vk * t1, n)  # P_i = V_i r1_i
    r2 = np.bincount(i, vk * t2, n)  # Q_i = V_i r2_i
    # [[dP/dth_k, dP/dV_k], [dQ/dth_k, dQ/dV_k]] per nonzero (i, k); the
    # diagonal entries, one per row in row order, add the row sums
    terms = np.array([[vi * vk * t2, vi * t1], [-vi * vk * t1, vi * t2]])
    terms[..., i == k] += np.array([[-v_mag * r2, r1], [v_mag * r1, r2]])
    # bus i > 0 owns rows i - 1 (P) and n - 2 + i (Q), the slack the last
    # two; column k > 0 is angle k - 1 or magnitude n - 2 + k
    pq = k > 0
    rows = np.where(i > 0, [i - 1, i + n - 2], [[m], [m + 1]])[:, None, pq]
    cols = np.stack([k[pq] - 1, k[pq] + n - 2])[None]
    jac = np.zeros((m + 2, m))
    jac[rows, cols] = terms[..., pq]
    if droop is not None:
        np.subtract.at(jac, (droop.rows, droop.rows), droop.response(v_mag[droop.buses])[1])
    return jac


def newton_jacobian(
    net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray, droop: DroopLaw | None = None
) -> np.ndarray:
    """Mismatch Jacobian: :func:`power_jacobian` without the slack rows.

    Ordering: rows are [dP_pq; dQ_pq], columns [d theta_pq; d V_pq].
    """
    return power_jacobian(net, v_mag, v_ang, droop)[:-2]


def solve_power_flow(
    net: NetworkModel,
    injections_pu: np.ndarray,
    slack_v: float = 1.0,
    *,
    x0: tuple[np.ndarray, np.ndarray] | None = None,
    droop: DroopLaw | None = None,
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
    droop:
        Legacy inverters whose reactive output ``Q(V)`` is solved together
        with the grid, on top of ``injections_pu``.

    Returns a :class:`PowerFlowSolution`. Non-convergence (the iteration
    cap, or a step that no halving makes descend) is reported via the
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

    spec = np.concatenate([inj[:, 0], inj[:, 1]])
    pq = slice(1, net.n_buses)
    if droop is not None and not droop.rows.size:
        droop = None

    def _mismatch():
        p, q = bus_powers(net, v_mag, v_ang)
        f = np.concatenate([p[pq], q[pq]]) - spec
        if droop is not None:
            np.subtract.at(f, droop.rows, droop.response(v_mag[droop.buses])[0])
        return f

    def _newton_step(f, it):
        """Newton direction, then Armijo backtracking on ||f||^2 from the
        full step: the mismatch at the new point, and whether it descended."""
        jac = newton_jacobian(net, v_mag, v_ang, droop)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {it} "
                f"(max mismatch {np.max(np.abs(f)):.3e} p.u.)"
            ) from exc
        if not np.all(np.isfinite(step)):
            return f, False
        ang, mag = v_ang[pq].copy(), v_mag[pq].copy()
        norm2 = f @ f
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            v_ang[pq] = ang + t * step[:n_pq]
            v_mag[pq] = mag + t * step[n_pq:]
            f_new = _mismatch()
            # sufficient decrease (Armijo, c = 1e-4): the Newton step's
            # directional derivative of ||f||^2 is -2 ||f||^2
            if f_new @ f_new <= (1.0 - 2e-4 * t) * norm2:
                return f_new, True
            t *= 0.5
        return f_new, False

    converged = False
    descended = True
    f = _mismatch()
    for it in range(MAX_ITERATIONS + 1):
        iterations = it
        mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        if mismatch < MISMATCH_TOL:
            converged = True
            break
        if it == MAX_ITERATIONS or not descended:
            break
        f, descended = _newton_step(f, it)

    if converged and 1e-14 < mismatch:
        # one polishing step: quadratic convergence pulls the aggregate
        # balance residual far below the per-bus stopping tolerance
        f, _ = _newton_step(f, iterations)
        mismatch = float(np.max(np.abs(f)))

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

"""Newton-Raphson AC power flow for PQ-bus networks.

State vector is polar: voltage angles and magnitudes at the PQ buses. The
slack bus holds the commanded magnitude at zero angle. Power mismatches and
the analytic Jacobian are evaluated over the nonzeros (i, k) of the bus
admittance matrix only (``NetworkModel.ybus_nonzeros``), from the
trigonometric terms

    t1[i,k] = G[i,k] cos(th_i - th_k) + B[i,k] sin(th_i - th_k)
    t2[i,k] = G[i,k] sin(th_i - th_k) - B[i,k] cos(th_i - th_k)

summed per row: P_i = V_i * sum_k V_k t1[i,k], Q_i = V_i * sum_k V_k t2[i,k].
An evaluation costs one pass over the nonzeros, and each voltage point is
evaluated once: the Newton loop builds the mismatch, the Jacobian and the
reported PCC power and losses from the same evaluation. The Jacobian is
assembled straight into LAPACK band storage, with the PQ buses in
breadth-first order from the slack (``NetworkModel.jacobian_scatter``), and
the Newton step is one band LU solve (``dgbsv``), the sparsity-ordered
Newton power flow of Tinney & Hart (1967): a radial feeder's Jacobian is a
band about twice as wide as the widest breadth-first level.
:func:`~flexloop.sensitivity.linearize` solves with the same helper. This
formulation avoids divisions by V and stays well defined (and exactly
singular) at collapsed states, which the solver reports explicitly.

Legacy inverters' piecewise-linear Q(V) droop (:class:`~flexloop.grid.DroopLaw`)
can be solved in the same system: the specified Q at an inverter's bus
becomes its base value plus Q(V_i), so its mismatch row subtracts Q(V_i) and
its dQ/dV Jacobian diagonal subtracts the law's slope, a semismooth Newton
method for piecewise-linear equations (Qi & Sun, Math. Programming 58,
1993). Each Newton step is globalised by Armijo backtracking on the squared
mismatch norm: the full step first, halved up to ``MAX_HALVINGS`` times;
the droop law is evaluated once per point too, for both its output and its
slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv

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
    pcc_power_pu: float
    losses_w: float
    converged: bool
    iterations: int
    max_mismatch_pu: float


def _evaluate(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray):
    """``t1``, ``t2`` (module docstring) at every nonzero of ``net.ybus`` and
    their row sums ``r1``, ``r2``: ``P = V r1``, ``Q = V r2``."""
    i, k, g, b = net.ybus_nonzeros
    dth = v_ang[i] - v_ang[k]
    cs = np.cos(dth)
    sn = np.sin(dth)
    t1, t2 = g * cs + b * sn, g * sn - b * cs
    vk = v_mag[k]
    n = net.n_buses
    return t1, t2, np.bincount(i, vk * t1, n), np.bincount(i, vk * t2, n)


def _jacobian(net: NetworkModel, v_mag: np.ndarray, ev, droop: DroopLaw | None, dq_dv):
    """Analytic Jacobian of every bus injection with respect to the PQ
    unknowns, assembled from the evaluation ``ev`` at ``v_mag``: ``(band,
    slack)``, the Newton Jacobian [dP_pq; dQ_pq] by [d theta_pq; d V_pq] in
    ``net.jacobian_scatter``'s permuted band storage, and the slack's
    (P, Q) rows over the unpermuted columns; ``slack[0]`` is the PCC
    exchange. With ``droop``, each legacy inverter's slope ``dq_dv`` is
    subtracted on its bus's dQ/dV diagonal: the Jacobian of the mismatch
    with ``q = Q(V)``."""
    t1, t2, r1, r2 = ev
    i, k = net.ybus_nonzeros[:2]
    diag, pq, flat, kl, _, inv = net.jacobian_scatter
    m = 2 * net.n_buses - 2
    vi, vk = v_mag[i], v_mag[k]
    # [[dP/dth_k, dP/dV_k], [dQ/dth_k, dQ/dV_k]] per nonzero (i, k); the
    # diagonal entries, one per row in row order, add the row sums
    terms = np.array([[vi * vk * t2, vi * t1], [-vi * vk * t1, vi * t2]])
    terms[..., diag] += np.array([[-v_mag * r2, r1], [v_mag * r1, r2]])
    buf = np.zeros(m * (3 * kl + 3))
    buf[flat] = terms[..., pq]
    band = buf[:m * (3 * kl + 1)].reshape(m, 3 * kl + 1)
    if droop is not None:
        np.subtract.at(band[:, 2 * kl], inv[droop.rows], dq_dv)
    return band, buf[m * (3 * kl + 1):].reshape(2, m)


def _band_solve(net: NetworkModel, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the Newton Jacobian ``band`` (:func:`_jacobian`, overwritten by
    its LU factors) for ``rhs``, both in the unpermuted order: one LAPACK
    band LU with partial pivoting. An exactly zero pivot raises
    ``LinAlgError``, as a dense solve would."""
    kl, perm, inv = net.jacobian_scatter[3:]
    x, info = dgbsv(kl, kl, band.T, rhs[perm], overwrite_ab=1, overwrite_b=1)[2:]
    if info:
        raise np.linalg.LinAlgError(f"zero pivot in column {info} of the band LU")
    return x[inv]


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

    def _point():
        """The evaluation at the current voltages, its mismatch and, with
        droop, the law's slopes there: everything a Newton step reads."""
        ev = _evaluate(net, v_mag, v_ang)
        f = np.concatenate([v_mag[pq] * ev[2][pq], v_mag[pq] * ev[3][pq]]) - spec
        if droop is None:
            return f, ev, None
        q, dq_dv = droop.response(v_mag[droop.buses])
        np.subtract.at(f, droop.rows, q)
        return f, ev, dq_dv

    def _newton_step(point, it):
        """Newton direction from ``point``, then Armijo backtracking on
        ||f||^2 from the full step: the new point, and whether it descended."""
        f, ev, dq_dv = point
        try:
            step = _band_solve(net, _jacobian(net, v_mag, ev, droop, dq_dv)[0], -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {it} "
                f"(max mismatch {np.max(np.abs(f)):.3e} p.u.)"
            ) from exc
        if not np.all(np.isfinite(step)):
            return point, False
        ang, mag = v_ang[pq].copy(), v_mag[pq].copy()
        norm2 = f @ f
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            v_ang[pq] = ang + t * step[:n_pq]
            v_mag[pq] = mag + t * step[n_pq:]
            new = _point()
            # sufficient decrease (Armijo, c = 1e-4): the Newton step's
            # directional derivative of ||f||^2 is -2 ||f||^2
            if new[0] @ new[0] <= (1.0 - 2e-4 * t) * norm2:
                return new, True
            t *= 0.5
        return new, False

    converged = False
    descended = True
    point = _point()
    for it in range(MAX_ITERATIONS + 1):
        iterations = it
        mismatch = float(np.max(np.abs(point[0]))) if point[0].size else 0.0
        if mismatch < MISMATCH_TOL:
            converged = True
            break
        if it == MAX_ITERATIONS or not descended:
            break
        point, descended = _newton_step(point, it)

    if converged and 1e-14 < mismatch:
        # one polishing step: quadratic convergence pulls the aggregate
        # balance residual far below the per-bus stopping tolerance
        point, _ = _newton_step(point, iterations)
        mismatch = float(np.max(np.abs(point[0])))

    # the slack injection is the power imported from the upstream grid;
    # losses are what all buses inject together, the slack included
    p = v_mag * point[1][2]
    return PowerFlowSolution(
        v_mag=v_mag,
        v_ang=v_ang,
        pcc_power_pu=float(p[0]),
        losses_w=float(np.sum(p)) * net.s_base_va,
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )

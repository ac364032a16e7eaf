"""Independent oracles used by the test suite.

These deliberately avoid the implementation paths they check: the two-bus
voltage comes from the closed-form quadratic, the power-flow sweep is a
fixed-point (impedance-matrix) iteration rather than Newton, and the QP
oracle enumerates active sets by brute force.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from flexloop.grid import NetworkModel
from flexloop.qp import QpProblem


def two_bus_voltage(r_pu: float, x_pu: float, p_load_pu: float, q_load_pu: float, v1: float = 1.0) -> float:
    """Receiving-end voltage magnitude of a single feeder section.

    For consumption (P, Q) at the receiving end behind impedance R + jX the
    squared magnitude solves

        t^2 + t (2 (P R + Q X) - V1^2) + (P^2 + Q^2) (R^2 + X^2) = 0

    and the physical (high-voltage) root is the larger one.
    """
    b = 2.0 * (p_load_pu * r_pu + q_load_pu * x_pu) - v1 * v1
    c = (p_load_pu**2 + q_load_pu**2) * (r_pu**2 + x_pu**2)
    disc = b * b - 4.0 * c
    if disc < 0:
        raise ValueError("load beyond maximum transfer")
    t = (-b + math.sqrt(disc)) / 2.0
    return math.sqrt(t)


def zbus_power_flow(
    net: NetworkModel,
    injections_pu: np.ndarray,
    slack_v: float = 1.0,
    tol: float = 1e-12,
    max_iter: int = 500,
):
    """Fixed-point power flow: V_r = Y_rr^-1 (I_r - Y_rs V_s), iterated.

    Returns (v complex over all buses, pcc power p.u.) or None if the sweep
    does not converge.
    """
    y = net.ybus
    n = net.n_buses
    inj = np.asarray(injections_pu, dtype=float)
    s = inj[:, 0] + 1j * inj[:, 1]
    y_rr = y[1:, 1:]
    y_rs = y[1:, 0]
    v_s = slack_v + 0.0j
    z = np.linalg.inv(y_rr)
    v_r = np.full(n - 1, slack_v, dtype=complex)
    for _ in range(max_iter):
        i_r = np.conj(s / v_r)
        v_new = z @ (i_r - y_rs * v_s)
        if np.max(np.abs(v_new - v_r)) < tol:
            v_r = v_new
            break
        v_r = v_new
    else:
        return None
    v = np.concatenate([[v_s], v_r])
    s_slack = v[0] * np.conj(y[0, :] @ v)
    return v, float(s_slack.real)


def _one_sided_rows(p: QpProblem):
    """All hard one-sided rows (a, rhs) of a problem, plus hard equalities.

    Mirrors the canonical constraint structure, including the alpha scaling,
    but is built independently of the solver internals.
    """
    rows = []
    for i in range(p.n_in):
        a = p.alpha * p.a_in[i]
        if np.isfinite(p.lb_in[i]):
            rows.append((-a, -p.lb_in[i]))
        if np.isfinite(p.ub_in[i]):
            rows.append((a, p.ub_in[i]))
    for j in range(p.n):
        e = np.zeros(p.n)
        e[j] = p.alpha
        if np.isfinite(p.lb_box[j]):
            rows.append((-e, -p.lb_box[j]))
        if np.isfinite(p.ub_box[j]):
            rows.append((e, p.ub_box[j]))
    return rows


def enumerate_qp(p: QpProblem, soften: bool = False):
    """Global minimizer by brute-force active-set enumeration.

    Solves every equality-constrained subproblem over subsets of the
    one-sided rows, keeps the feasible candidates and returns the best; the
    strictly convex objective guarantees the true minimizer is among them.
    Returns None if no subset yields a feasible point.
    """
    rows = _one_sided_rows(p)
    n = p.n
    if soften:
        soft = p.eq_soft
        e_hard = p.alpha * p.a_eq[~soft]
        b_hard = p.b_eq[~soft]
        e_pen = p.alpha * p.a_eq[soft]
        b_pen = p.b_eq[soft]
        h = 2.0 * p.scale * (np.eye(n) + p.rho * e_pen.T @ e_pen)
        c = 2.0 * p.scale * (p.g - p.rho * e_pen.T @ b_pen)
    else:
        e_hard = p.alpha * p.a_eq
        b_hard = p.b_eq
        h = 2.0 * p.scale * np.eye(n)
        c = 2.0 * p.scale * p.g

    def objective(w):
        base = p.scale * float(np.dot(w + p.g, w + p.g))
        if soften and e_pen.size:
            r = e_pen @ w - b_pen
            base += p.scale * p.rho * float(np.dot(r, r))
        return base

    def feasible(w, tol=1e-8):
        if e_hard.size and np.max(np.abs(e_hard @ w - b_hard)) > tol:
            return False
        return all(a @ w <= rhs + tol for a, rhs in rows)

    best = None
    m_eq = e_hard.shape[0]
    # a zero or dependent equality row leaves room for more one-sided rows
    max_extra = n - np.linalg.matrix_rank(e_hard)
    for size in range(0, max(0, max_extra) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            a_act = [e_hard[i] for i in range(m_eq)] + [rows[i][0] for i in subset]
            d_act = [b_hard[i] for i in range(m_eq)] + [rows[i][1] for i in subset]
            if a_act:
                A = np.vstack(a_act)
                d = np.asarray(d_act)
                K = np.block([[h, A.T], [A, np.zeros((A.shape[0], A.shape[0]))]])
                rhs = np.concatenate([-c, d])
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
                w = sol[:n]
                if np.max(np.abs(A @ w - d)) > 1e-8:
                    continue
            else:
                w = np.linalg.solve(h, -c)
            if feasible(w):
                val = objective(w)
                if best is None or val < best[1] - 1e-12:
                    best = (w, val)
    return best

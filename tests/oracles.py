"""Independent oracles used by the test suite.

These deliberately avoid the implementation paths they check: the two-bus
voltage comes from the closed-form quadratic, the power-flow sweep is a
fixed-point (impedance-matrix) iteration rather than Newton, bus powers come
from the dense complex admittance product rather than the per-nonzero
kernels, losses are summed branch by branch, the legacy droop's steady
state is a Picard iteration over plain power flows rather than one Newton
solve with the droop in its mismatch, and the QP oracle enumerates active
sets by brute force. The oracle's certificate is checked against a cone
distance: the limits binding by a tolerance scan, and a nonnegative least
squares over their normals. The oracle's optimum is checked against SLSQP
(sequential quadratic programming) on the same exact plant response, from
several starts, rather than against more starts of its projected-gradient
descent. Two helpers are the exception and unpack production kernels on
purpose: :func:`bus_powers` reads the per-nonzero row sums of
the power flow's evaluation, and :func:`power_jacobian` unpacks the dense
Jacobian from the band the power flow factors, so that finite differences
and dense solves check the production kernels and the band layout.
Two telemetry readings that only the tests take, :func:`time_to_recover`
and :func:`trailing_violation_counts`, also live here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import minimize, nnls

from flexloop.controller import DEFAULT_BAND
from flexloop.grid import DeviceSet, DroopInverter, NetworkModel, droop_law, injections
from flexloop.harness import SETTLE_TOL_KW, TelemetryLog
from flexloop.plant import PlantDivergedError, steady_state_response
from flexloop.powerflow import PowerFlowSolution, _evaluate, _jacobian, solve_power_flow
from flexloop.qp import QpProblem
from flexloop.sensitivity import linearize


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


def dense_bus_powers(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray):
    """Bus injections ``S = V * conj(Ybus V)`` from the dense matrix, as (P, Q)."""
    volts = v_mag * np.exp(1j * v_ang)
    s = volts * np.conj(net.ybus @ volts)
    return s.real, s.imag


def bus_powers(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray):
    """Active/reactive injections implied by a voltage state, per-unit, from
    the power flow's per-nonzero evaluation."""
    r1, r2 = _evaluate(net, v_mag, v_ang)[2:]
    return v_mag * r1, v_mag * r2


def power_jacobian(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray) -> np.ndarray:
    """The power flow's analytic Jacobian, unpacked to a dense matrix.

    Ordering: rows are [dP_pq; dQ_pq; dP_slack; dQ_slack], columns
    [d theta_pq; d V_pq]. The first ``2 (n - 1)`` rows are the Newton
    Jacobian, read back from the band storage of ``powerflow._jacobian``
    through ``net.jacobian_scatter``'s permutation; row ``-2`` is the
    slack's active power, the PCC exchange.
    """
    band, slack = _jacobian(net, v_mag, _evaluate(net, v_mag, v_ang), None, None)
    kl, perm = net.jacobian_scatter[3:5]
    m = len(band)
    r, c = np.nonzero(np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= kl)
    permuted = np.zeros((m, m))
    permuted[r, c] = band[c, 2 * kl + r - c]
    jac = np.zeros((m + 2, m))
    jac[np.ix_(perm, perm)] = permuted
    jac[m:] = slack
    return jac


def newton_jacobian(net: NetworkModel, v_mag: np.ndarray, v_ang: np.ndarray) -> np.ndarray:
    """Mismatch Jacobian: :func:`power_jacobian` without the slack rows.

    Ordering: rows are [dP_pq; dQ_pq], columns [d theta_pq; d V_pq].
    """
    return power_jacobian(net, v_mag, v_ang)[:-2]


def kirchhoff_residual_pu(net: NetworkModel, sol: PowerFlowSolution, injections_pu: np.ndarray) -> float:
    """Active-power balance residual: injections + import - losses, per-unit."""
    total_inj = float(np.sum(np.asarray(injections_pu)[:, 0]))
    return abs(total_inj + sol.pcc_power_pu - sol.losses_w / net.s_base_va)


def branch_losses_w(net: NetworkModel, volts: np.ndarray) -> float:
    """Series losses summed branch by branch, ``|V_i - V_j|^2 Re(y_ij)``, in W."""
    total = 0.0
    for br in net.branches:
        i, j = net.index(br.from_bus), net.index(br.to_bus)
        y = net.z_base(br.from_bus) / complex(br.r_ohm, br.x_ohm)
        total += abs(volts[i] - volts[j]) ** 2 * y.real
    return total * net.s_base_va


def _one_sided_rows(p: QpProblem):
    """All hard one-sided rows (a, rhs) of a problem, grouped by the bound
    they come from: one group holds a two-sided row's finite lower and upper
    row.

    Mirrors the canonical constraint structure, including the alpha scaling,
    but is built independently of the solver internals.
    """
    groups = []
    bounds = [(p.alpha * p.a_in[i], p.lb_in[i], p.ub_in[i]) for i in range(p.n_in)]
    bounds += [(p.alpha * np.eye(p.n)[j], p.lb_box[j], p.ub_box[j]) for j in range(p.n)]
    for a, lo, hi in bounds:
        group = [(-a, -lo)] if np.isfinite(lo) else []
        group += [(a, hi)] if np.isfinite(hi) else []
        if group:
            groups.append(group)
    return groups


def enumerate_qp(p: QpProblem, soften: bool = False):
    """Global minimizer by brute-force active-set enumeration.

    Solves every equality-constrained subproblem over subsets of the
    one-sided rows, keeps the feasible candidates and returns the best; the
    strictly convex objective guarantees the true minimizer is among them.
    A subset holds at most one row per bound: a bound's lower and upper row
    together are inconsistent, or, when the two are equal, give the point
    of either row alone. Feasibility is tested to 1e-8 relative to
    ``max(1, |w|)``. Returns None if no subset yields a feasible point.
    """
    groups = _one_sided_rows(p)
    rows = [row for group in groups for row in group]
    n = p.n
    if soften:
        k = 0 if p.eq_soft else p.n_eq  # the rows [k:] are penalized
        e_hard = p.alpha * p.a_eq[:k]
        b_hard = p.b_eq[:k]
        e_pen = p.alpha * p.a_eq[k:]
        b_pen = p.b_eq[k:]
        h = 2.0 * (np.eye(n) + p.rho * e_pen.T @ e_pen)
        c = 2.0 * (p.g - p.rho * e_pen.T @ b_pen)
    else:
        e_hard = p.alpha * p.a_eq
        b_hard = p.b_eq
        h = 2.0 * np.eye(n)
        c = 2.0 * p.g

    def objective(w):
        base = float(np.dot(w + p.g, w + p.g))
        if soften and e_pen.size:
            r = e_pen @ w - b_pen
            base += p.rho * float(np.dot(r, r))
        return base

    def feasible(w):
        tol = 1e-8 * max(1.0, float(np.max(np.abs(w))))
        if e_hard.size and np.max(np.abs(e_hard @ w - b_hard)) > tol:
            return False
        return all(a @ w <= rhs + tol for a, rhs in rows)

    best = None
    m_eq = e_hard.shape[0]
    # a zero or dependent equality row leaves room for more one-sided rows
    max_extra = n - np.linalg.matrix_rank(e_hard)
    subsets = (
        itertools.product(*chosen)
        for size in range(0, max(0, max_extra) + 1)
        for chosen in itertools.combinations(groups, size)
    )
    for subset in itertools.chain.from_iterable(subsets):
        a_act = [e_hard[i] for i in range(m_eq)] + [a for a, _ in subset]
        d_act = [b_hard[i] for i in range(m_eq)] + [rhs for _, rhs in subset]
        if a_act:
            A = np.vstack(a_act)
            d = np.asarray(d_act)
            K = np.block([[h, A.T], [A, np.zeros((A.shape[0], A.shape[0]))]])
            rhs = np.concatenate([-c, d])
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            w = sol[:n]
            if np.max(np.abs(A @ w - d)) > 1e-8 * max(1.0, float(np.max(np.abs(w)))):
                continue
        else:
            w = np.linalg.solve(h, -c)
        if feasible(w):
            val = objective(w)
            if best is None or val < best[1] - 1e-12:
                best = (w, val)
    return best


def qv_droop(inv: DroopInverter, v: float, s_base_va: float) -> float:
    """One legacy inverter's Q(V) in p.u. at terminal voltage ``v``, read off
    its knees as a fraction of full output."""
    q_max = inv.q_max_var / s_base_va
    if v > inv.v_db_hi:
        return -q_max * min(1.0, (v - inv.v_db_hi) / (inv.v_hi - inv.v_db_hi))
    if v < inv.v_db_lo:
        return q_max * min(1.0, (inv.v_db_lo - v) / (inv.v_db_lo - inv.v_lo))
    return 0.0


def picard_droop_response(
    net: NetworkModel,
    devices: DeviceSet,
    u_pu: np.ndarray,
    slack_v: float = 1.0,
    tol: float = 1e-13,
    max_iter: int = 200,
):
    """The plant's steady state by the fixed-point iteration q <- Q(V(q)):
    one plain power flow per iterate, each legacy inverter's output held as
    a fixed Q injection.

    Returns (solution, q), or None if the iteration does not settle.
    """
    base = injections(net, devices, u_pu)
    rows = [net.pq_row(inv.bus) for inv in devices.legacy]
    q = np.zeros(len(rows))
    for _ in range(max_iter):
        inj = base.copy()
        np.add.at(inj[:, 1], rows, q)
        sol = solve_power_flow(net, inj, slack_v)
        v = [sol.v_mag[net.index(inv.bus)] for inv in devices.legacy]
        q_new = np.array([qv_droop(inv, vi, net.s_base_va) for inv, vi in zip(devices.legacy, v)])
        if np.max(np.abs(q_new - q), initial=0.0) < tol:
            return sol, q_new
        q = q_new
    return None


def binding_limits(u, v, dv, lb, ub, v_min, v_max) -> list[tuple[str, np.ndarray]]:
    """Limits binding at setpoints ``u`` and voltages ``v``, voltage rows
    first, each with its cone column: the limit's outward normal in ``u``
    (a voltage row's from the sensitivities ``dv``)."""
    eye = np.eye(u.shape[0])
    limits = []
    for i in range(v.shape[0]):
        if v[i] >= v_max[i] - 1e-6:
            limits.append((f"v_max@row{i}", dv[i]))
        if v[i] <= v_min[i] + 1e-6:
            limits.append((f"v_min@row{i}", -dv[i]))
    for j in range(u.shape[0]):
        if u[j] >= ub[j] - 1e-9:
            limits.append((f"u_max[{j}]", eye[j]))
        if u[j] <= lb[j] + 1e-9:
            limits.append((f"u_min[{j}]", -eye[j]))
    return limits


def cone_stationarity(u, v, dv, dpcc, lb, ub, v_min, v_max):
    """Projected-gradient stationarity of min ``|u|^2``: the distance of
    ``-2 u`` to the cone of the PCC row (either sign) and the
    :func:`binding_limits`' normals, with those limits' labels."""
    limits = binding_limits(u, v, dv, lb, ub, v_min, v_max)
    N = np.column_stack([dpcc, -dpcc] + [col for _, col in limits])  # equality, free sign
    coef, _ = nnls(N, -2.0 * u)
    resid = 2.0 * u + N @ coef
    return float(np.max(np.abs(resid))), tuple(label for label, _ in limits)


def slsqp_opf(
    net: NetworkModel,
    devices: DeviceSet,
    p_set_pu: float,
    *,
    slack_v: float = 1.0,
):
    """``min sum(u**2)`` by SciPy's SLSQP (Kraft 1988) over the exact plant
    response: the PCC exchange equals ``p_set_pu``, every PQ voltage stays
    within ``DEFAULT_BAND`` of 1 p.u. and ``u`` within the device boxes.
    Constraint Jacobians come from :func:`~flexloop.sensitivity.linearize`
    with the droop law. Runs from zero and from two seeded points drawn
    uniformly in the (finite) boxes.

    Returns ``(phi, u)`` of the best start that converges to a feasible
    point, or None if none does. ``ftol`` is 1e-9: at 1e-10 some starts
    stall on the PCC row's last digits and run to the iteration cap, while
    at 1e-9 every start converges, within 3e-8 relative of the optimum on
    ``random_feeder`` seeds 0-9.
    """
    lb, ub = devices.setpoint_bounds_pu(net.s_base_va)
    droop = droop_law(net, devices)
    cache: dict[bytes, tuple] = {}

    def response(u):
        key = u.tobytes()
        if key not in cache:
            sol = steady_state_response(net, devices, u, slack_v=slack_v)[0]
            cache[key] = (sol.v_mag[1:], sol.pcc_power_pu, *linearize(net, devices, sol, droop))
        return cache[key]

    band = DEFAULT_BAND
    constraints = (
        {"type": "eq", "fun": lambda u: [response(u)[1] - p_set_pu], "jac": lambda u: response(u)[3][None, :]},
        {"type": "ineq", "fun": lambda u: response(u)[0] - (1.0 - band), "jac": lambda u: response(u)[2]},
        {"type": "ineq", "fun": lambda u: (1.0 + band) - response(u)[0], "jac": lambda u: -response(u)[2]},
    )
    rng = np.random.default_rng(0)
    starts = [np.clip(np.zeros(lb.shape), lb, ub)] + [rng.uniform(lb, ub) for _ in range(2)]
    best = None
    for u0 in starts:
        try:
            res = minimize(
                lambda u: float(u @ u), u0, jac=lambda u: 2.0 * u, method="SLSQP",
                bounds=list(zip(lb, ub)), constraints=constraints,
                options={"ftol": 1e-9, "maxiter": 100},
            )
            v, pcc = response(res.x)[:2]
        except PlantDivergedError:
            continue
        feasible = abs(pcc - p_set_pu) < 1e-8 and np.all(np.abs(v - 1.0) <= band + 1e-8)
        if res.success and feasible and (best is None or res.fun < best[0]):
            best = (float(res.fun), res.x)
    return best


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

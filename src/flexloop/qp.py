"""Small dense convex QP solver with certified KKT residuals.

Solves

    min  || w + g ||^2
    s.t. alpha * A_eq w  = b_eq          (equality rows, may be declared soft)
         lb_in <= alpha * A_in w <= ub_in   (two-sided rows)
         lb_box <= alpha * w <= ub_box      (box rows)

with the dual active-set method of Goldfarb and Idnani ("A numerically
stable dual method for solving strictly convex quadratic programs", Math.
Programming 27, 1983). All rows are stacked once per solve as ``N w <= h``
in canonical row-id order (:meth:`QpProblem.row_labels`): the equality
rows, then a (lower, upper) pair per two-sided row, then per box entry. The
same ids name the active set, the most violated row and the entries of the
one multiplier vector. The loop starts at the minimizer on the hard
equality rows, so it needs no feasible point, and adds the most violated
inequality row until none is left. The objective Hessian is a positive
multiple of the identity (plus a penalty term when soft equality rows are
engaged), so every subproblem is strictly convex and the minimizer is
unique.

Soft equality rows are a fallback: the solver first treats every equality
as hard; only if that system is infeasible are the rows flagged soft moved
into the objective as a quadratic penalty with weight ``rho``, and the
residual is reported as slack. If the remaining hard constraints are still
inconsistent the result is an infeasibility certificate naming the
maximally violated row at the least-violation point, the one LP the solver
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"

KKT_TOL = 1e-8
ACTIVE_TOL = 1e-7
DEFAULT_RHO = 1e4  # weight of the soft equality rows' penalty

_VIOL_TOL = 0.1 * KKT_TOL  # a row violated by no more than this is met
_SPAN_EPS = 1e-11  # |H z| <= this * |N_row|: the row lies in the working rows' span


def _as_matrix(a, p: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, p))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.zeros((0, p))
    return a


def _as_vector(v, n: int, fill: float) -> np.ndarray:
    if v is None:
        return np.full(n, fill)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return v


@dataclass
class QpProblem:
    """One projection problem over the step direction ``w``.

    ``lb_box``/``ub_box`` bound the applied update ``alpha * w`` (device
    limits shifted by the current setpoint), ``lb_in``/``ub_in`` bound the
    linearized voltage response, and the equality rows pin the linearized
    PCC power.
    """

    g: np.ndarray
    alpha: float = 1.0
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    eq_soft: np.ndarray | None = None
    rho: float = DEFAULT_RHO
    a_in: np.ndarray | None = None
    lb_in: np.ndarray | None = None
    ub_in: np.ndarray | None = None
    lb_box: np.ndarray | None = None
    ub_box: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.g = np.atleast_1d(np.asarray(self.g, dtype=float))
        p = self.g.shape[0]
        self.a_eq = _as_matrix(self.a_eq, p)
        m = self.a_eq.shape[0]
        self.b_eq = _as_vector(self.b_eq, m, 0.0)
        if self.eq_soft is None:
            self.eq_soft = np.zeros(m, dtype=bool)
        else:
            self.eq_soft = np.atleast_1d(np.asarray(self.eq_soft, dtype=bool))
        self.a_in = _as_matrix(self.a_in, p)
        k = self.a_in.shape[0]
        self.lb_in = _as_vector(self.lb_in, k, -np.inf)
        self.ub_in = _as_vector(self.ub_in, k, np.inf)
        self.lb_box = _as_vector(self.lb_box, p, -np.inf)
        self.ub_box = _as_vector(self.ub_box, p, np.inf)

        if self.a_eq.shape != (m, p) or self.b_eq.shape != (m,):
            raise ValueError("inconsistent equality dimensions")
        if self.eq_soft.shape != (m,):
            raise ValueError("eq_soft must have one flag per equality row")
        if self.a_in.shape != (k, p):
            raise ValueError("inconsistent inequality dimensions")
        if self.lb_in.shape != (k,) or self.ub_in.shape != (k,):
            raise ValueError("inconsistent inequality bound dimensions")
        if self.lb_box.shape != (p,) or self.ub_box.shape != (p,):
            raise ValueError("inconsistent box dimensions")
        if not all(np.all(np.isfinite(a)) for a in (self.g, self.a_eq, self.b_eq, self.a_in)):
            raise ValueError("g, a_eq, b_eq and a_in must be finite")
        if any(np.any(np.isnan(b)) for b in (self.lb_in, self.ub_in, self.lb_box, self.ub_box)):
            raise ValueError("a bound is NaN; an absent bound is +/-inf")
        if np.any(self.lb_in > self.ub_in) or np.any(self.lb_box > self.ub_box):
            raise ValueError("lower bound above upper bound")
        if not all(np.isfinite(x) and x > 0 for x in (self.alpha, self.rho)):
            raise ValueError("alpha and rho must be positive and finite")

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def n_eq(self) -> int:
        return self.a_eq.shape[0]

    @property
    def n_in(self) -> int:
        return self.a_in.shape[0]

    # Constraint row ids used for active sets and telemetry bitmasks:
    # equality rows first, then (lower, upper) pairs per inequality row,
    # then (lower, upper) pairs per box entry.
    def row_labels(self) -> tuple[str, ...]:
        labels = [f"eq[{i}]" for i in range(self.n_eq)]
        for i in range(self.n_in):
            labels += [f"in[{i}]:lo", f"in[{i}]:hi"]
        for j in range(self.n):
            labels += [f"box[{j}]:lo", f"box[{j}]:hi"]
        return tuple(labels)

    @property
    def n_rows(self) -> int:
        return self.n_eq + 2 * self.n_in + 2 * self.n

    # JSON-friendly round trip so problems can be attached to telemetry and
    # replayed offline
    def to_dict(self) -> dict:
        return {
            "g": self.g.tolist(),
            "alpha": self.alpha,
            "a_eq": self.a_eq.tolist(),
            "b_eq": self.b_eq.tolist(),
            "eq_soft": self.eq_soft.tolist(),
            "rho": self.rho,
            "a_in": self.a_in.tolist(),
            "lb_in": self.lb_in.tolist(),
            "ub_in": self.ub_in.tolist(),
            "lb_box": self.lb_box.tolist(),
            "ub_box": self.ub_box.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "QpProblem":
        return QpProblem(**{k: np.asarray(v) if isinstance(v, list) else v for k, v in data.items()})


@dataclass(frozen=True)
class QpSolution:
    w: np.ndarray
    status: str
    stationarity: float
    primal: float
    complementarity: float
    active_set: tuple[int, ...]
    multipliers: np.ndarray | None  # one per row, in row-id order
    eq_slack: np.ndarray
    softened: bool
    iterations: int
    most_violated: int | None = None

    @property
    def active_mask(self) -> int:
        mask = 0
        for i in self.active_set:
            mask |= 1 << i
        return mask


def _stacked_rows(p: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Every constraint row as ``N w <= h`` in canonical row-id order.

    Equality rows read ``N w = h``. Lower rows are negated so every
    inequality points the same way; an absent bound is ``h = +inf``, a row
    that is never violated and never binding.
    """
    m, k = p.n_eq, p.n_eq + 2 * p.n_in
    N = np.zeros((p.n_rows, p.n))
    h = np.empty(p.n_rows)
    N[:m], h[:m] = p.alpha * p.a_eq, p.b_eq
    N[m:k:2], h[m:k:2] = p.alpha * -p.a_in, -p.lb_in
    N[m + 1 : k : 2], h[m + 1 : k : 2] = p.alpha * p.a_in, p.ub_in
    j = np.arange(p.n)
    N[k + 2 * j, j], h[k::2] = -p.alpha, -p.lb_box
    N[k + 1 + 2 * j, j], h[k + 1 :: 2] = p.alpha, p.ub_box
    return N, h


def _least_violation(E: np.ndarray, b: np.ndarray, G: np.ndarray, h: np.ndarray):
    """Chebyshev-style least-infeasible point: min s, all violations <= s."""
    rows = np.vstack([G, E, -E])
    n = rows.shape[1]
    res = linprog(
        c=np.append(np.zeros(n), 1.0),
        A_ub=np.hstack([rows, -np.ones((rows.shape[0], 1))]),
        b_ub=np.concatenate([h, b, -b]),
        bounds=[(None, None)] * n + [(0, None)],
        method="highs",
    )
    if not res.success:  # pragma: no cover - feasibility LP of this form is solvable
        return np.zeros(n)
    return np.asarray(res.x[:n], dtype=float)


def _kkt_solve(H: np.ndarray, c: np.ndarray, A: np.ndarray, d: np.ndarray):
    """Solve the equality-constrained QP min 0.5 w'Hw + c'w s.t. Aw = d."""
    n = H.shape[0]
    m = A.shape[0]
    if m == 0:
        return np.linalg.solve(H, -c), np.zeros(0)
    K = np.block([[H, A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([-c, d])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    if not np.all(np.isfinite(sol)):
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _dual_solve(
    H: np.ndarray,
    c: np.ndarray,
    N: np.ndarray,
    h: np.ndarray,
    eq_rows: np.ndarray,
    ineq: np.ndarray,
    max_iter: int,
):
    """Dual active-set loop of Goldfarb and Idnani.

    ``eq_rows`` index the rows of ``N`` held as equalities; ``ineq`` masks
    the rows held as ``N_i w <= h_i``. The loop starts at the minimizer on
    the equality rows and adds the most violated inequality row by raising
    its multiplier, dropping a working row whose multiplier reaches zero on
    the way. Returns ``(status, w, lam, iterations)`` with ``lam`` over all
    rows of ``N``. Ties go to the lowest row id.
    """
    n_eq = len(eq_rows)
    work = list(eq_rows)
    # inequality rows that fit beside the equality rows, which may be dependent
    room = H.shape[0] - np.linalg.matrix_rank(N[work])
    lam = np.zeros(N.shape[0])
    w, lam[work] = _kkt_solve(H, c, N[work], h[work])
    if n_eq and np.max(np.abs(N[work] @ w - h[work])) > _VIOL_TOL:
        return STATUS_INFEASIBLE, w, lam, 0
    row = -1  # the row being added; kept until it joins the working set
    steps = 0
    while True:
        if row < 0:
            viol = np.where(ineq, N @ w - h, -np.inf)
            viol[work] = -np.inf
            row = int(np.argmax(viol))
            if viol[row] <= _VIOL_TOL:
                return STATUS_OPTIMAL, w, lam, steps
        if steps == max_iter:
            return STATUS_MAX_ITER, w, lam, steps
        steps += 1
        z, y = _kkt_solve(H, N[row], N[work], np.zeros(len(work)))
        # a dual step raises lam[row] by t and moves the working multipliers
        # by t * y; the first inequality multiplier to reach zero limits it
        shrinking = np.flatnonzero(y[n_eq:] < 0.0)
        t_drop = np.inf
        if shrinking.size:
            ratios = lam[[work[n_eq + i] for i in shrinking]] / -y[n_eq + shrinking]
            drop = int(np.argmin(ratios))
            t_drop = max(float(ratios[drop]), 0.0)
        # a full working set, or a row in its span, leaves no primal direction
        curvature = -float(N[row] @ z)
        if len(work) - n_eq >= room or curvature <= 0.0 or (
            np.max(np.abs(H @ z)) <= _SPAN_EPS * np.max(np.abs(N[row]))
        ):
            if not np.isfinite(t_drop):
                return STATUS_INFEASIBLE, w, lam, steps
            t_add = np.inf
        else:
            t_add = max(float(N[row] @ w - h[row]) / curvature, 0.0)
            w = w + min(t_add, t_drop) * z
        t = min(t_add, t_drop)
        lam[work] += t * y
        lam[row] += t
        if t_add <= t_drop:
            work.append(row)
            row = -1
            # re-solve on the new working set so round-off does not build up
            w, lam[work] = _kkt_solve(H, c, N[work], h[work])
            lam[work[n_eq:]] = np.maximum(lam[work[n_eq:]], 0.0)
        else:
            lam[work.pop(n_eq + int(shrinking[drop]))] = 0.0


def _objective_terms(p: QpProblem, soften: bool):
    """Hessian and linear term, optionally with the soft-row penalty."""
    H = 2.0 * np.eye(p.n)
    c = 2.0 * p.g
    if soften and np.any(p.eq_soft):
        Es = p.alpha * p.a_eq[p.eq_soft]
        bs = p.b_eq[p.eq_soft]
        H = H + 2.0 * p.rho * (Es.T @ Es)
        c = c - 2.0 * p.rho * (Es.T @ bs)
    return H, c


def _kkt(p: QpProblem, N: np.ndarray, h: np.ndarray, w: np.ndarray, lam: np.ndarray, penalized):
    """:func:`kkt_residuals` over the stacked rows ``N w <= h`` of ``p``."""
    grad = 2.0 * (w + p.g)
    if penalized is not None and np.any(penalized):
        Es = p.alpha * p.a_eq[penalized]
        bs = p.b_eq[penalized]
        grad = grad + 2.0 * p.rho * (Es.T @ (Es @ w - bs))
    stationarity = float(np.max(np.abs(grad + N.T @ lam), initial=0.0))
    m = p.n_eq
    r = N @ w - h  # -inf on absent bounds
    hard = np.ones(m, dtype=bool) if penalized is None else ~penalized
    primal = max(np.max(np.abs(r[:m][hard]), initial=0.0), np.max(r[m:], initial=0.0))
    gap = np.where(np.isfinite(h[m:]), r[m:], 0.0)
    comp = float(np.max(np.abs(lam[m:] * gap), initial=0.0))
    return stationarity, float(primal), comp


def kkt_residuals(
    p: QpProblem,
    w: np.ndarray,
    multipliers: np.ndarray,
    *,
    penalized: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Stationarity, primal-feasibility and complementarity infinity norms.

    ``multipliers`` holds one entry per row, in row-id order
    (:meth:`QpProblem.row_labels`), as in :attr:`QpSolution.multipliers`.
    ``penalized`` marks equality rows handled as a quadratic penalty; those
    rows contribute a gradient term instead of a primal residual.
    """
    N, h = _stacked_rows(p)
    return _kkt(p, N, h, np.asarray(w, dtype=float), np.asarray(multipliers, dtype=float), penalized)


def solve_qp(problem: QpProblem, *, max_iter: int | None = None) -> QpSolution:
    """Solve the projection QP with a certified result.

    The returned solution carries the KKT residual triple; for ``optimal``
    status the residuals are below :data:`KKT_TOL`, stationarity and
    complementarity relative to the largest multiplier (at least 1).
    Infeasible hard systems yield ``status="infeasible"`` with the id of the
    maximally violated row, after the soft-equality fallback (if any rows
    allow it) has been tried.
    """
    p = problem
    if max_iter is None:
        max_iter = 100 + 10 * p.n_rows
    N, h = _stacked_rows(p)
    m = p.n_eq
    ineq = np.isfinite(h)
    ineq[:m] = False
    cap_iters = 0

    for soften in (False, True):
        if soften and not np.any(p.eq_soft):
            break
        eq_rows = np.flatnonzero(~p.eq_soft) if soften else np.arange(m)
        H, c = _objective_terms(p, soften)
        status, w, lam, iters = _dual_solve(H, c, N, h, eq_rows, ineq, max_iter)
        cap_iters += iters
        if status == STATUS_INFEASIBLE:
            continue
        stat, primal, comp = _kkt(p, N, h, w, lam, p.eq_soft if soften else None)
        size = max(1.0, float(np.max(np.abs(lam), initial=0.0)))
        if status == STATUS_OPTIMAL and max(stat / size, primal, comp / size) > KKT_TOL:
            status = STATUS_MAX_ITER  # uncertified result, do not overclaim
        binding = np.abs(N @ w - h) <= ACTIVE_TOL
        binding[:m] = ~p.eq_soft if soften else True
        return QpSolution(
            w=w,
            status=status,
            stationarity=stat,
            primal=primal,
            complementarity=comp,
            active_set=tuple(np.flatnonzero(binding).tolist()) if status == STATUS_OPTIMAL else (),
            multipliers=lam,
            eq_slack=N[:m] @ w - p.b_eq,
            softened=soften,
            iterations=cap_iters,
        )

    # both attempts infeasible: certify with the least-violation point
    w_lv = _least_violation(N[:m], p.b_eq, N[ineq], h[ineq])
    r = N @ w_lv - h
    viol = np.where(ineq, np.maximum(r, 0.0), -np.inf)
    viol[:m] = np.abs(r[:m])
    worst = float(np.max(viol))
    return QpSolution(
        w=w_lv,
        status=STATUS_INFEASIBLE,
        stationarity=float("nan"),
        primal=worst,
        complementarity=float("nan"),
        active_set=(),
        multipliers=None,
        eq_slack=r[:m],
        softened=bool(np.any(p.eq_soft)),
        iterations=cap_iters,
        most_violated=int(np.flatnonzero(viol >= worst - 1e-12)[0]),
    )

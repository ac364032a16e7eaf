"""Small dense convex QP solver with certified KKT residuals.

Solves

    min  || w + g ||^2
    s.t. alpha * A_eq w  = b_eq          (equality rows, may soften together)
         lb_in <= alpha * A_in w <= ub_in   (two-sided rows)
         lb_box <= alpha * w <= ub_box      (box rows)

with the dual active-set method of Goldfarb and Idnani ("A numerically
stable dual method for solving strictly convex quadratic programs", Math.
Programming 27, 1983, sections 3-4) in range-space form. All rows are
stacked once per problem as ``N w <= h`` in canonical row-id order
(:meth:`QpProblem.row_labels`): the equality rows, then a (lower, upper)
pair per two-sided row, then per box entry; the copies
:meth:`QpProblem.with_sample` makes share ``N``. The same ids name the
active set, the most violated row and the entries of the one multiplier
vector. The Hessian is ``2 I`` plus a low-rank penalty term, so ``H^-1`` is
applied in closed form. The loop starts at the minimizer on the hard
equality rows (plus the rows of a warm start's earlier active set, as in
Ferreau, Bock and Diehl, Int. J. Robust Nonlinear Control 18, 2008), so it
needs no feasible point, and adds the most violated inequality row until
none is left, keeping one Cholesky factor of ``N_W H^-1 N_W'`` over its
working rows ``W``. A row whose pivot vanishes against the terms it is
computed from lies in their span; with no working row to drop for it, the
rows are infeasible.

Softening is a fallback: the solver first treats the equality rows as hard;
only if that system is infeasible, and ``eq_soft`` is set, do they all move
into the objective as a quadratic penalty with weight ``rho``, and the
residual is reported as slack. If the remaining hard constraints are still
inconsistent the result is an infeasibility certificate naming the
maximally violated row at the least-violation point, the one LP the solver
runs. That LP is SciPy's HiGHS (:func:`linprog`), imported at the first
certificate, so a run that never certifies loads no ``scipy.optimize``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"

KKT_TOL = 1e-8
ACTIVE_TOL = 1e-7
DEFAULT_RHO = 1e4  # weight of the soft equality rows' penalty

_PER_SAMPLE = ("g", "b_eq", "lb_in", "ub_in", "lb_box", "ub_box")  # scaling these scales w
_VIOL_TOL = 0.1 * KKT_TOL  # a row violated by no more than this is met
_PIVOT_EPS = 1e-11  # a pivot within this share of its terms' size: the row is in the working rows' span


def _as_matrix(a, p: int) -> np.ndarray:
    a = None if a is None else np.atleast_2d(np.asarray(a, dtype=float))
    return np.zeros((0, p)) if a is None or a.size == 0 else a


def _as_vector(v, n: int, fill: float) -> np.ndarray:
    return np.full(n, fill) if v is None else np.atleast_1d(np.asarray(v, dtype=float))


@dataclass
class QpProblem:
    """One projection problem over the step direction ``w``.

    ``lb_box``/``ub_box`` bound the applied update ``alpha * w`` (device
    limits shifted by the current setpoint), ``lb_in``/``ub_in`` bound the
    linearized voltage response, and the equality rows pin the linearized
    PCC power; with ``eq_soft`` they soften, together, if they are infeasible.
    """

    g: np.ndarray
    alpha: float = 1.0
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    eq_soft: bool = False
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
        if np.unique(np.asarray(self.eq_soft, dtype=bool)).size > 1:
            raise ValueError("eq_soft is one flag for all equality rows, not a mask of mixed values")
        self.eq_soft = bool(np.any(self.eq_soft))
        self.a_in = _as_matrix(self.a_in, p)
        k = self.a_in.shape[0]
        self.lb_in = _as_vector(self.lb_in, k, -np.inf)
        self.ub_in = _as_vector(self.ub_in, k, np.inf)
        self.lb_box = _as_vector(self.lb_box, p, -np.inf)
        self.ub_box = _as_vector(self.ub_box, p, np.inf)

        want = dict(a_eq=(m, p), b_eq=(m,), a_in=(k, p), lb_in=(k,), ub_in=(k,), lb_box=(p,), ub_box=(p,))
        bad = [name for name, shape in want.items() if getattr(self, name).shape != shape]
        if bad:
            raise ValueError(f"inconsistent dimensions of {', '.join(bad)} with {p} variables and {m} + {k} rows")
        if not (np.all(np.isfinite(self.a_eq)) and np.all(np.isfinite(self.a_in))):
            raise ValueError("a_eq and a_in must be finite")
        if not all(np.isfinite(x) and x > 0 for x in (self.alpha, self.rho)):
            raise ValueError("alpha and rho must be positive and finite")
        self._check_sample()

    def _check_sample(self) -> None:
        if not np.isfinite(np.concatenate((self.g, self.b_eq))).all():
            raise ValueError("g and b_eq must be finite")
        if not (np.concatenate((self.lb_in, self.lb_box)) <= np.concatenate((self.ub_in, self.ub_box))).all():
            raise ValueError("a bound is NaN or a lower bound is above its upper one; an absent bound is +/-inf")

    def with_sample(self, **sample) -> "QpProblem":
        """This problem with new ``g``, ``b_eq`` or bounds, sharing its rows,
        built once. Only the new fields are checked."""
        q = copy.copy(self)
        q._rows = self._rows
        for name, v in sample.items():
            if name not in _PER_SAMPLE or np.shape(v) != getattr(self, name).shape:
                raise ValueError(f"{name} is not a per-sample field of this problem's shape")
            setattr(q, name, np.asarray(v, dtype=float))
        q._check_sample()
        return q

    _rows = cached_property(lambda self: _Rows(self))  # the fixed part, built at its first use

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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

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


def _stacked_rows(p: QpProblem) -> np.ndarray:
    """``N`` of every constraint row as ``N w <= h`` in canonical row-id
    order. Equality rows read ``N w = h``. Lower rows are negated so every
    inequality points the same way."""
    m, k = p.n_eq, p.n_eq + 2 * p.n_in
    N = np.zeros((p.n_rows, p.n))
    N[:m], N[m:k:2], N[m + 1 : k : 2] = p.alpha * p.a_eq, p.alpha * -p.a_in, p.alpha * p.a_in
    j = np.arange(p.n)
    N[k + 2 * j, j], N[k + 1 + 2 * j, j] = -p.alpha, p.alpha
    return N


def _rhs(p: QpProblem) -> np.ndarray:  # h of each sample; an absent bound is +inf, never violated or binding
    m, k = p.n_eq, p.n_eq + 2 * p.n_in
    h = np.empty(p.n_rows)
    h[:m], h[m:k:2], h[m + 1 : k : 2], h[k::2], h[k + 1 :: 2] = p.b_eq, -p.lb_in, p.ub_in, -p.lb_box, p.ub_box
    return h


class _Rows:
    """A problem's fixed part: ``N`` and per stage ``(H^-1, N H^-1)``, the
    full ``N H^-1 N'`` never formed. ``H`` is ``2 I``, plus ``2 rho Es' Es``
    when ``eq_soft`` penalizes the equality rows ``Es``: by Woodbury ``H^-1 = (I - Es'
    (I / rho + Es Es')^-1 Es) / 2``, applied to the rows of an array."""

    def __init__(self, p: QpProblem):
        self.N = _stacked_rows(p)
        self.Es, self.rho = self.N[: p.n_eq if p.eq_soft else 0], p.rho
        self.hard = self._stage(lambda x: 0.5 * x)

    def _stage(self, hinv):
        return hinv, hinv(self.N)

    @cached_property
    def soft(self):
        Es = self.Es
        K = np.linalg.solve(np.eye(len(Es)) / self.rho + Es @ Es.T, Es)
        return self._stage(lambda x: 0.5 * (x - (x @ Es.T) @ K))


def linprog(*args, **kwargs):
    """:func:`scipy.optimize.linprog`, imported at the first call: the
    import costs ~20 MB of RSS and ~0.2 s that only an infeasibility certificate needs."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


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


def _tri(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:  # L^-1 b, or L^-T b with trans=1
    return dtrtrs(L, b, lower=1, trans=trans)[0] if len(b) else b


def _dual_solve(NH_all: np.ndarray, w_free: np.ndarray, N: np.ndarray, h: np.ndarray, m: int,
                seed: list[int], ineq: np.ndarray, max_iter: int):
    """Dual active-set loop of Goldfarb and Idnani in range-space form.

    Minimizes ``0.5 w'Hw + c'w`` given ``N H^-1`` as ``NH_all`` and the free
    minimizer ``w_free = -H^-1 c``. It starts from the first ``m`` rows, as
    equalities, and the inequality rows ``seed`` (each skipped if in the span
    of the earlier ones), less one at a time the seed row of most negative
    multiplier; ``ineq`` masks the rows held as ``N_i w <= h_i``.
    ``L`` is the lower Cholesky factor of ``N_W H^-1 N_W'``; a row ``r``
    extends it by ``l = L^-1 N_W H^-1 N_r'`` and the pivot ``N_r H^-1 N_r' -
    |l|^2``, the curvature of the step that adds it. Returns ``(status, w,
    lam, iterations)`` with ``lam`` over all rows of ``N``. Ties go to the
    lowest row id.
    """
    r_free = N @ w_free - h
    work: list[int] = []
    L = np.zeros((0, 0))
    size = np.zeros(0)  # the root of the diagonal of N_W H^-1 N_W'

    def candidate(row):  # l, the dual direction y and the pivot
        col = _tri(L, NH_all[work] @ N[row])
        y = -_tri(L, col, trans=1)
        diag = float(N[row] @ NH_all[row])
        pivot = diag - float(col @ col)
        # the difference keeps the round-off of the terms it cancels, which
        # grow with y; a pivot within it puts the row in the working rows' span
        if pivot <= _PIVOT_EPS * (math.sqrt(diag) + np.abs(y) @ size) ** 2:
            pivot = 0.0
        return col, y, pivot

    def grow(row, col, pivot):  # the factor with one more row
        work.append(row)
        k = len(col)
        out = np.zeros((k + 1, k + 1))
        out[:k, :k], out[k, :k], out[k, k] = L, col, math.sqrt(pivot)
        return out, np.append(size, math.sqrt(col @ col + pivot))

    def shrink(k):  # the factor without working row k
        lam[work.pop(k)] = 0.0
        rest = np.delete(L, k, axis=0)
        return dpotrf(rest @ rest.T, lower=1)[0], np.delete(size, k)

    def resolve():  # the minimizer on the working rows, by two solves on L
        y = _tri(L, _tri(L, r_free[work]), trans=1)
        return w_free - y @ NH_all[work], y

    for row in (*range(m), *seed):
        col, _, pivot = candidate(row)
        if pivot:
            L, size = grow(row, col, pivot)
    n_eq = int(np.count_nonzero(~ineq[work]))  # the equality rows come first
    lam = np.zeros(N.shape[0])
    while True:
        w, lam[work] = resolve()
        seeded = lam[work[n_eq:]]
        if not np.any(seeded < 0.0):
            break
        L, size = shrink(n_eq + int(np.argmin(seeded)))
    if m and np.max(np.abs(N[:m] @ w - h[:m])) > _VIOL_TOL:
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
        col, y, pivot = candidate(row)
        # a dual step raises lam[row] by t and moves the working multipliers
        # by t * y; the first inequality multiplier to reach zero limits it
        shrinking = np.nonzero(y[n_eq:] < 0.0)[0]
        t_drop = np.inf
        if shrinking.size:
            ratios = lam[[work[n_eq + i] for i in shrinking]] / -y[n_eq + shrinking]
            drop = int(np.argmin(ratios))
            t_drop = max(float(ratios[drop]), 0.0)
        if pivot and float(N[row] @ w - h[row]) <= pivot * t_drop:  # the full step adds the row
            L, size = grow(row, col, pivot)
            row = -1
            # re-solve on the new working set so round-off does not build up
            w, y = resolve()
            y[n_eq:] = np.maximum(y[n_eq:], 0.0)
            lam[work] = y
            continue
        if not np.isfinite(t_drop):  # a spanned row, and nothing to drop for it
            return STATUS_INFEASIBLE, w, lam, steps
        if pivot:  # a partial step, up to the drop
            w = w - t_drop * (NH_all[row] + y @ NH_all[work])
        lam[work] += t_drop * y
        lam[row] += t_drop
        L, size = shrink(n_eq + int(shrinking[drop]))


def _kkt(p: QpProblem, N: np.ndarray, h: np.ndarray, w: np.ndarray, lam: np.ndarray, penalized: bool,
         r: np.ndarray):
    """:func:`kkt_residuals` over the stacked rows ``N w <= h`` of ``p``,
    given their residual ``r = N w - h``."""
    grad = 2.0 * (w + p.g)
    m = p.n_eq
    if penalized:
        grad = grad + 2.0 * p.rho * (N[:m].T @ (N[:m] @ w - p.b_eq))
    stationarity = float(np.max(np.abs(grad + N.T @ lam), initial=0.0))
    primal = max(np.max(np.abs(r[: 0 if penalized else m]), initial=0.0), np.max(r[m:], initial=0.0))
    gap = np.where(np.isfinite(h[m:]), r[m:], 0.0)
    comp = float(np.max(np.abs(lam[m:] * gap), initial=0.0))
    return stationarity, float(primal), comp


def kkt_residuals(
    p: QpProblem, w: np.ndarray, multipliers: np.ndarray, *, penalized: bool = False
) -> tuple[float, float, float]:
    """Stationarity, primal-feasibility and complementarity infinity norms.

    ``multipliers`` holds one entry per row, in row-id order
    (:meth:`QpProblem.row_labels`), as in :attr:`QpSolution.multipliers`.
    ``penalized`` (:attr:`QpSolution.softened`) says the equality rows were a
    quadratic penalty: they give a gradient term, not a primal residual.
    """
    N, h, w = p._rows.N, _rhs(p), np.asarray(w, dtype=float)
    return _kkt(p, N, h, w, np.asarray(multipliers, dtype=float), penalized, N @ w - h)


def solve_qp(problem: QpProblem, *, max_iter: int | None = None, warm_start: int = 0) -> QpSolution:
    """Solve the projection QP with a certified result.

    The returned solution carries the KKT residual triple; for ``optimal``
    status the residuals are below :data:`KKT_TOL`, stationarity and
    complementarity relative to the largest multiplier (at least 1).
    Infeasible hard systems yield ``status="infeasible"`` with the id of the
    maximally violated row, after the soft-equality fallback (if ``eq_soft``
    allows it) has been tried. As ``w`` scales with ``g`` and the right-hand
    sides, a ``g``, ``b_eq`` or bound excluding ``w = 0`` beyond 2 in size is
    solved and certified at an exact power-of-two scale, free of overflow.
    Each stage's loop starts from the inequality rows set in the bitmask
    ``warm_start`` (as :attr:`QpSolution.active_mask`), 0 from none.
    """
    p = problem
    reach = np.concatenate((np.abs(p.g), np.abs(p.b_eq), p.lb_in, -p.ub_in, p.lb_box, -p.ub_box))
    scale = math.ldexp(1.0, max(math.frexp(np.max(reach, initial=0.0))[1] - 1, 0))
    if scale > 1.0:
        sol = solve_qp(p.with_sample(**{k: getattr(p, k) / scale for k in _PER_SAMPLE}), max_iter=max_iter,
                       warm_start=warm_start)
        with np.errstate(over="ignore"):  # what exceeds the float range is inf
            lam = None if sol.multipliers is None else sol.multipliers * scale
            return replace(sol, w=sol.w * scale, stationarity=sol.stationarity * scale, primal=sol.primal * scale,
                           complementarity=sol.complementarity * scale * scale, multipliers=lam,
                           eq_slack=sol.eq_slack * scale)
    if max_iter is None:
        max_iter = 100 + 10 * p.n_rows
    rows, h, m = p._rows, _rhs(p), p.n_eq
    ineq = np.isfinite(h)
    ineq[:m] = False
    bits = np.frombuffer(bin(warm_start)[:1:-1].encode(), np.uint8)[: len(h)] == ord("1")  # bit r: character r
    seed = np.flatnonzero(bits & ineq[: len(bits)]).tolist() if warm_start else []
    cap_iters = 0

    for soften in (False, True):
        if soften and not (p.eq_soft and m):
            break
        hinv, NH = rows.soft if soften else rows.hard
        c = p.g - p.rho * (rows.Es.T @ p.b_eq) if soften else p.g
        status, w, lam, iters = _dual_solve(NH, -hinv(2.0 * c), rows.N, h, 0 if soften else m, seed, ineq, max_iter)
        cap_iters += iters
        if status == STATUS_INFEASIBLE:
            continue
        r = rows.N @ w - h  # -inf on absent bounds
        stat, primal, comp = _kkt(p, rows.N, h, w, lam, soften, r)
        size = max(1.0, float(np.max(np.abs(lam), initial=0.0)))
        if status == STATUS_OPTIMAL and max(stat / size, primal, comp / size) > KKT_TOL:
            status = STATUS_MAX_ITER  # uncertified result, do not overclaim
        binding = np.abs(r) <= ACTIVE_TOL
        binding[:m] = not soften
        return QpSolution(
            w=w,
            status=status,
            stationarity=stat, primal=primal, complementarity=comp,
            active_set=tuple(np.flatnonzero(binding).tolist()) if status == STATUS_OPTIMAL else (),
            multipliers=lam,
            eq_slack=rows.N[:m] @ w - p.b_eq,
            softened=soften,
            iterations=cap_iters,
        )

    # both attempts infeasible: certify with the least-violation point
    w_lv = _least_violation(rows.N[:m], p.b_eq, rows.N[ineq], h[ineq])
    r = rows.N @ w_lv - h
    viol = np.where(ineq, np.maximum(r, 0.0), -np.inf)
    viol[:m] = np.abs(r[:m])
    worst = float(np.max(viol))
    return QpSolution(
        w=w_lv,
        status=STATUS_INFEASIBLE,
        stationarity=float("nan"), primal=worst, complementarity=float("nan"),
        active_set=(), multipliers=None,
        eq_slack=r[:m],
        softened=p.eq_soft and m > 0,
        iterations=cap_iters,
        most_violated=int(np.flatnonzero(viol >= worst - 1e-12)[0]),
    )

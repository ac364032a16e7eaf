import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flexloop.qp
from flexloop.controller import ControllerConfig
from flexloop.harness import run_closed_loop
from flexloop.plant import PlantConfig
from flexloop.qp import (
    KKT_TOL,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    STATUS_OPTIMAL,
    QpProblem,
    kkt_residuals,
    solve_qp,
)

from oracles import enumerate_qp


def test_unconstrained_projection_is_negated_gradient():
    sol = solve_qp(QpProblem(g=np.array([1.0, -2.0])))
    assert sol.status == STATUS_OPTIMAL
    np.testing.assert_allclose(sol.w, [-1.0, 2.0], atol=1e-12)
    assert sol.stationarity < 1e-12
    assert sol.active_set == ()


def test_one_dimensional_box_active():
    # g = -3, u = 0, alpha = 1, device box forces alpha*w <= 1
    p = QpProblem(g=np.array([-3.0]), alpha=1.0, ub_box=np.array([1.0]))
    sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL
    assert sol.w[0] == pytest.approx(1.0, abs=1e-10)
    # row ids: no eq, no ineq -> box[0]:hi is id 1
    assert sol.active_set == (1,)
    assert sol.multipliers.box_hi[0] == pytest.approx(4.0, abs=1e-8)


def _random_problem(rng, n, with_eq=True, soft=False):
    g = rng.uniform(-2, 2, n)
    w_feas = rng.uniform(-1, 1, n)
    a_eq = b_eq = eq_soft = None
    alpha = float(rng.uniform(0.2, 1.5))
    if with_eq:
        m = int(rng.integers(1, 3))
        a_eq = rng.uniform(-1, 1, (m, n))
        b_eq = alpha * (a_eq @ w_feas)
        eq_soft = np.full(m, soft)
    # box on a subset of coordinates, centered to keep w_feas feasible
    lb_box = np.full(n, -np.inf)
    ub_box = np.full(n, np.inf)
    for j in rng.choice(n, size=min(n, 3), replace=False):
        lb_box[j] = alpha * w_feas[j] - rng.uniform(0.1, 1.5)
        ub_box[j] = alpha * w_feas[j] + rng.uniform(0.1, 1.5)
    # up to two two-sided rows around the feasible point
    k = int(rng.integers(0, 3))
    a_in = lb_in = ub_in = None
    if k:
        a_in = rng.uniform(-1, 1, (k, n))
        mid = alpha * (a_in @ w_feas)
        lb_in = mid - rng.uniform(0.05, 1.0, k)
        ub_in = mid + rng.uniform(0.05, 1.0, k)
    return QpProblem(
        g=g, alpha=alpha, a_eq=a_eq, b_eq=b_eq, eq_soft=eq_soft,
        a_in=a_in, lb_in=lb_in, ub_in=ub_in, lb_box=lb_box, ub_box=ub_box,
    )


def test_random_problems_match_enumeration_oracle():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        p = _random_problem(rng, n, with_eq=trial % 2 == 0)
        sol = solve_qp(p)
        assert sol.status == STATUS_OPTIMAL, f"trial {trial}"
        oracle = enumerate_qp(p)
        assert oracle is not None
        np.testing.assert_allclose(sol.w, oracle[0], atol=1e-7)
        assert max(sol.stationarity, sol.primal, sol.complementarity) < 1e-8


def test_objective_never_above_oracle():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        p = _random_problem(rng, n)
        sol = solve_qp(p)
        oracle = enumerate_qp(p)
        obj = float(np.dot(sol.w + p.g, sol.w + p.g))
        assert obj <= oracle[1] + 1e-9


def test_kkt_residuals_zero_at_unconstrained_optimum():
    p = QpProblem(g=np.array([1.0, -2.0]))
    sol = solve_qp(p)
    stat, primal, comp = kkt_residuals(p, sol.w, sol.multipliers)
    assert stat < 1e-12 and primal < 1e-12 and comp < 1e-12


def test_kkt_stationarity_of_perturbed_point():
    p = QpProblem(g=np.array([1.0, -2.0]))
    sol = solve_qp(p)
    w = sol.w.copy()
    w[0] += 1e-3  # free coordinate; objective gradient is 2(w + g)
    stat, _, _ = kkt_residuals(p, w, sol.multipliers)
    assert stat == pytest.approx(2e-3, rel=1e-6)


def test_kkt_residuals_on_oracle_solution():
    rng = np.random.default_rng(5)
    p = _random_problem(rng, 5)
    sol = solve_qp(p)
    stat, primal, comp = kkt_residuals(p, sol.w, sol.multipliers)
    assert max(stat, primal, comp) < 1e-8


def test_scaling_invariance_of_minimizer():
    rng = np.random.default_rng(9)
    base = _random_problem(rng, 4)
    scaled = QpProblem(
        g=base.g, alpha=base.alpha, a_eq=base.a_eq, b_eq=base.b_eq,
        eq_soft=base.eq_soft, a_in=base.a_in, lb_in=base.lb_in, ub_in=base.ub_in,
        lb_box=base.lb_box, ub_box=base.ub_box, scale=7.5,
    )
    s1 = solve_qp(base)
    s2 = solve_qp(scaled)
    np.testing.assert_allclose(s1.w, s2.w, atol=1e-9)
    # multipliers scale with the objective
    np.testing.assert_allclose(7.5 * s1.multipliers.eq, s2.multipliers.eq, atol=1e-6)
    np.testing.assert_allclose(7.5 * s1.multipliers.box_hi, s2.multipliers.box_hi, atol=1e-6)


def test_determinism():
    rng = np.random.default_rng(3)
    p = _random_problem(rng, 6)
    a = solve_qp(p)
    b = solve_qp(p)
    assert np.array_equal(a.w, b.w)
    assert a.active_set == b.active_set


def test_soft_equality_fallback_reports_slack():
    # box forces alpha*w <= 0.5 but the (soft) equality asks for 2.0
    p = QpProblem(
        g=np.zeros(1),
        alpha=1.0,
        a_eq=np.array([[1.0]]),
        b_eq=np.array([2.0]),
        eq_soft=np.array([True]),
        ub_box=np.array([0.5]),
    )
    sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL
    assert sol.softened
    assert sol.w[0] == pytest.approx(0.5, abs=1e-9)  # best effort at the box
    assert sol.eq_slack[0] == pytest.approx(-1.5, abs=1e-8)
    # oracle on the penalized objective agrees
    oracle = enumerate_qp(p, soften=True)
    np.testing.assert_allclose(sol.w, oracle[0], atol=1e-9)


def test_hard_equality_preferred_when_feasible():
    p = QpProblem(
        g=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, -1.0]]),
        b_eq=np.array([0.4]),
        eq_soft=np.array([True]),
    )
    sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL
    assert not sol.softened
    assert abs(sol.eq_slack[0]) < 1e-10


def test_infeasible_names_most_violated_row():
    # two hard box rows that contradict a hard equality
    p = QpProblem(
        g=np.zeros(2),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([4.0]),
        eq_soft=np.array([False]),
        ub_box=np.array([1.0, 1.0]),
    )
    sol = solve_qp(p)
    assert sol.status == STATUS_INFEASIBLE
    assert sol.most_violated == 0  # the equality row is the unreachable one
    assert sol.primal > 0.5


def test_infeasible_between_boxes():
    p = QpProblem(
        g=np.zeros(1),
        a_in=np.array([[1.0]]),
        lb_in=np.array([2.0]),
        ub_in=np.array([3.0]),
        ub_box=np.array([1.0]),
    )
    sol = solve_qp(p)
    assert sol.status == STATUS_INFEASIBLE
    assert sol.most_violated is not None


def test_iteration_cap_reports_max_iter():
    rng = np.random.default_rng(11)
    p = _random_problem(rng, 6)
    sol = solve_qp(p, max_iter=1)
    assert sol.status in (STATUS_MAX_ITER, STATUS_OPTIMAL)
    # with a real budget the same problem certifies
    assert solve_qp(p).status == STATUS_OPTIMAL


def test_degenerate_equal_bounds():
    # lb == ub on a box entry pins that coordinate
    p = QpProblem(
        g=np.array([1.0, 1.0]),
        lb_box=np.array([0.25, -np.inf]),
        ub_box=np.array([0.25, np.inf]),
    )
    sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL
    assert sol.w[0] == pytest.approx(0.25, abs=1e-10)
    assert sol.w[1] == pytest.approx(-1.0, abs=1e-10)


def test_replay_round_trip_via_json():
    import json

    rng = np.random.default_rng(21)
    p = _random_problem(rng, 5)
    blob = json.dumps(p.to_dict())
    replayed = QpProblem.from_dict(json.loads(blob))
    a = solve_qp(p)
    b = solve_qp(replayed)
    assert np.array_equal(a.w, b.w)
    assert a.active_set == b.active_set


def test_dimension_validation():
    with pytest.raises(ValueError):
        QpProblem(g=np.array([1.0]), a_eq=np.array([[1.0, 2.0]]), b_eq=np.array([0.0]))
    with pytest.raises(ValueError, match="lower bound"):
        QpProblem(g=np.array([1.0]), lb_box=np.array([1.0]), ub_box=np.array([0.0]))


@pytest.mark.parametrize(
    "field, value",
    [
        ("g", [1.0, np.nan]),
        ("g", [1.0, np.inf]),
        ("a_eq", [[np.inf, 0.0]]),
        ("b_eq", [np.nan]),
        ("a_in", [[np.nan, 0.0]]),
        ("lb_in", [np.nan]),
        ("ub_in", [np.nan]),
        ("lb_box", [0.0, np.nan]),
        ("ub_box", [np.nan, 0.0]),
        ("alpha", np.nan),
    ],
)
def test_rejects_nan_and_non_finite_data(field, value):
    data = dict(
        g=[1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[0.5], a_in=[[1.0, -1.0]],
        lb_in=[-1.0], ub_in=[1.0], lb_box=[-1.0, -1.0], ub_box=[1.0, 1.0],
    )
    QpProblem(**{k: np.asarray(v) for k, v in data.items()})  # the base problem is valid
    data[field] = value
    with pytest.raises(ValueError):
        QpProblem(**{k: np.asarray(v) for k, v in data.items()})


def test_softened_optimum_certified_relative_to_multipliers():
    # rho = 1e4 puts the voltage-row multipliers near 1e6, so the absolute
    # complementarity residual of a correct answer is ~2e-5 from round-off
    p = QpProblem(
        g=np.array([-0.92085314, -1.8361059]),
        alpha=1.0280501935178907,
        a_eq=np.array([[-0.96694473, 0.62654048]]),
        b_eq=np.array([1.23826673]),
        eq_soft=np.array([True]),
        a_in=np.array([[0.21327155, 0.45899312], [0.08724998, 0.87014485]]),
        lb_in=np.array([0.13170711, -1.494523]),
        ub_in=np.array([1.41781352, -1.44414464]),
    )
    sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL
    assert sol.softened
    assert enumerate_qp(p) is None
    np.testing.assert_allclose(sol.w, enumerate_qp(p, soften=True)[0], atol=1e-9)
    m = sol.multipliers
    size = max(np.max(np.abs(np.concatenate([m.eq, m.in_lo, m.in_hi, m.box_lo, m.box_hi]))), 1.0)
    assert size > 1e5
    assert max(sol.stationarity / size, sol.primal, sol.complementarity / size) <= KKT_TOL
    # the reported triple stays absolute
    assert (sol.stationarity, sol.primal, sol.complementarity) == kkt_residuals(
        p, sol.w, m, penalized=p.eq_soft
    )


@st.composite
def projection_problems(draw):
    """Projection QPs shaped as the controller builds them: at most one
    tracking row, up to three voltage rows with open or finite bounds, and a
    finite box on every entry (two-sided, or pinned where a device has no
    range). Entries lie on a 1e-3 grid: exact zeros, ties and dependent rows
    occur, and no coefficient is so small that the oracle's absolute 1e-8
    feasibility test misjudges it."""
    n = draw(st.integers(1, 4))

    def grid(lo, hi):
        return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda i: i / 1000)

    def vec(k, elem=grid(-1.0, 1.0)):
        return np.array(draw(st.lists(elem, min_size=k, max_size=k)), dtype=float)

    alpha = draw(grid(0.2, 1.5))
    lb_box = vec(n)
    ub_box = lb_box + vec(n, st.just(0.0) | grid(0.05, 1.5))
    a_eq = b_eq = eq_soft = None
    if draw(st.booleans()):
        a_eq = vec(n)[None, :]
        b_eq = vec(1)
        eq_soft = np.array([draw(st.booleans())])
    k = draw(st.integers(0, 3))
    a_in = np.reshape(vec(k * n), (k, n))
    mid = vec(k)
    lb_in = mid - vec(k, grid(0.0, 1.0) | st.just(np.inf))
    ub_in = mid + vec(k, grid(0.0, 1.0) | st.just(np.inf))
    return QpProblem(
        g=2.0 * vec(n), alpha=alpha, a_eq=a_eq, b_eq=b_eq, eq_soft=eq_soft,
        a_in=a_in, lb_in=lb_in, ub_in=ub_in, lb_box=lb_box, ub_box=ub_box,
    )


@settings(max_examples=200, deadline=None)
@given(projection_problems())
def test_property_matches_enumeration_oracle(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_qp(p)
    hard = enumerate_qp(p)
    if hard is not None:
        assert sol.status == STATUS_OPTIMAL and not sol.softened
        np.testing.assert_allclose(sol.w, hard[0], atol=1e-7)
    elif np.any(p.eq_soft) and enumerate_qp(p, soften=True) is not None:
        assert sol.status == STATUS_OPTIMAL and sol.softened
    else:
        assert sol.status == STATUS_INFEASIBLE and sol.most_violated is not None


def test_no_lp_on_feasible_problems(monkeypatch, lab_net, lab_devices, exp_a):
    def refuse(*args, **kwargs):
        raise AssertionError("linprog called on a problem with a feasible projection")

    monkeypatch.setattr(flexloop.qp, "linprog", refuse)
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    assert all(r.qp_status == STATUS_OPTIMAL for r in log.records)
    rng = np.random.default_rng(42)
    for trial in range(40):
        p = _random_problem(rng, int(rng.integers(2, 7)), with_eq=trial % 2 == 0, soft=trial % 4 == 0)
        assert solve_qp(p).status == STATUS_OPTIMAL

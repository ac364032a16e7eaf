import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flexloop.controller
import flexloop.qp
from flexloop.controller import ControllerConfig, Measurement, assemble_projection_qp
from flexloop.harness import random_feeder, run_closed_loop
from flexloop.plant import PlantConfig, Scenario, ScenarioEvent
from flexloop.qp import (
    KKT_TOL,
    STATUS_INFEASIBLE,
    STATUS_MAX_ITER,
    STATUS_OPTIMAL,
    QpProblem,
    kkt_residuals,
    solve_qp,
)
from flexloop.sensitivity import compute_sensitivity

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
    assert sol.multipliers[1] == pytest.approx(4.0, abs=1e-8)


def _random_problem(rng, n, with_eq=True, soft=False):
    g = rng.uniform(-2, 2, n)
    w_feas = rng.uniform(-1, 1, n)
    a_eq = b_eq = None
    alpha = float(rng.uniform(0.2, 1.5))
    if with_eq:
        m = int(rng.integers(1, 3))
        a_eq = rng.uniform(-1, 1, (m, n))
        b_eq = alpha * (a_eq @ w_feas)
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
        g=g, alpha=alpha, a_eq=a_eq, b_eq=b_eq, eq_soft=soft,
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
        eq_soft=True,
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
        eq_soft=True,
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
        eq_soft=False,
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


def test_equality_rows_soften_together():
    # one flag per problem: a mask of mixed values is rejected, a uniform one
    # (as an older to_dict wrote) is read as its flag
    with pytest.raises(ValueError, match="eq_soft is one flag"):
        QpProblem(g=np.zeros(2), a_eq=np.eye(2), eq_soft=np.array([True, False]))
    assert QpProblem(g=np.zeros(2), a_eq=np.eye(2), eq_soft=np.array([True, True])).eq_soft is True
    assert QpProblem(g=np.zeros(2), a_eq=np.eye(2), eq_soft=np.array([False, False])).eq_soft is False


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
        eq_soft=True,
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
    size = max(np.max(np.abs(m)), 1.0)
    assert size > 1e5
    assert max(sol.stationarity / size, sol.primal, sol.complementarity / size) <= KKT_TOL
    # the reported triple stays absolute
    assert (sol.stationarity, sol.primal, sol.complementarity) == kkt_residuals(
        p, sol.w, m, penalized=sol.softened
    )


def test_rows_stacked_once_per_solve(monkeypatch):
    calls = []
    stacked_rows = flexloop.qp._stacked_rows

    def counting(p):
        calls.append(p)
        return stacked_rows(p)

    monkeypatch.setattr(flexloop.qp, "_stacked_rows", counting)
    rng = np.random.default_rng(8)
    problems = [_random_problem(rng, int(rng.integers(2, 7)), with_eq=t % 2 == 0) for t in range(6)]
    problems += [
        QpProblem(  # softened
            g=np.zeros(1), a_eq=np.array([[1.0]]), b_eq=np.array([2.0]),
            eq_soft=True, ub_box=np.array([0.5]),
        ),
        QpProblem(  # infeasible, certified by the least-violation LP
            g=np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([4.0]), ub_box=np.array([1.0, 1.0]),
        ),
    ]
    statuses = set()
    for k, p in enumerate(problems, start=1):
        sol = solve_qp(p)
        statuses.add((sol.status, sol.softened))
        assert len(calls) == k
    assert {(STATUS_OPTIMAL, True), (STATUS_INFEASIBLE, False)} <= statuses


def test_rows_stacked_once_per_run(monkeypatch, lab_net, lab_devices, exp_a):
    # the controller poses each sample's QP on rows its config built once:
    # the request at 10 s is a per-sample input, so exp_a runs on one config
    calls = []
    stacked_rows = flexloop.qp._stacked_rows
    monkeypatch.setattr(flexloop.qp, "_stacked_rows", lambda p: calls.append(p) or stacked_rows(p))
    sens = compute_sensitivity(lab_net, lab_devices, np.zeros(4))
    cfg = ControllerConfig.for_network(lab_net, lab_devices, sensitivity=sens)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    assert len(log.records) == 41 and len(calls) == 1


def test_with_sample_checks_only_the_sample():
    p = QpProblem(g=np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([0.5]), ub_box=np.array([1.0, 1.0]))
    q = p.with_sample(g=np.array([1.0, -1.0]), lb_box=np.array([-2.0, -2.0]))
    assert q._rows is p._rows and np.array_equal(p.g, [0.0, 0.0])
    fresh = replace(q)
    assert np.array_equal(solve_qp(q).w, solve_qp(fresh).w)
    for bad in (dict(g=np.array([np.nan, 0.0])), dict(lb_box=np.array([2.0, 0.0])), dict(g=np.zeros(3)),
                dict(alpha=2.0)):
        with pytest.raises(ValueError):
            p.with_sample(**bad)


def test_multipliers_are_one_vector_in_row_id_order():
    rng = np.random.default_rng(42)
    for trial in range(60):
        p = _random_problem(rng, int(rng.integers(2, 7)), with_eq=trial % 2 == 0, soft=trial % 4 == 0)
        sol = solve_qp(p)
        lam = sol.multipliers
        assert len(lam) == p.n_rows == len(p.row_labels())
        # inequality rows follow the equality rows as (lo, hi) pairs,
        # voltage rows first, then box entries
        absent = np.isinf(np.concatenate([
            np.column_stack([p.lb_in, p.ub_in]).ravel(),
            np.column_stack([p.lb_box, p.ub_box]).ravel(),
        ]))
        assert np.all(lam[p.n_eq:] >= 0.0)
        assert np.all(lam[p.n_eq:][absent] == 0.0)
        assert kkt_residuals(p, sol.w, lam, penalized=sol.softened) == (
            sol.stationarity, sol.primal, sol.complementarity
        )


def _posed_qp(monkeypatch, seed, p_set_kw, sample):
    """The projection QP the controller poses at ``sample`` of a closed loop
    on ``random_feeder(seed)`` with the request ``p_set_kw``."""
    net, devices, _ = random_feeder(seed)
    posed = []

    def record(problem, **kwargs):
        posed.append(problem)
        return solve_qp(problem, **kwargs)

    monkeypatch.setattr(flexloop.controller, "solve_qp", record)
    scenario = Scenario("r", 5.0 * max(sample, 1), (ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=p_set_kw),))
    run_closed_loop(net, devices, scenario, ControllerConfig.for_network(net, devices), PlantConfig())
    return posed[sample]


@pytest.mark.parametrize(
    "seed, request_kw, sample",
    [(5, -50.0, 0), (16, 50.0, 0), (18, "3x", 1)],
    ids=["seed5-minus50", "seed16-plus50", "seed18-3x-own"],
)
def test_tracking_row_near_box_rows_softens(monkeypatch, seed, request_kw, sample):
    # Out-of-reach requests whose tracking row is nearly a combination of
    # the P box rows (P entries near -1, Q entries below 1e-3). The hard
    # stage used to end with multipliers near 1e15 and no certificate, so
    # the loop held with held_max_iter on every sample.
    if request_kw == "3x":
        request_kw = 3.0 * random_feeder(seed)[2]
    p = _posed_qp(monkeypatch, seed, request_kw, sample)
    sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL and sol.softened
    # The oracle enumerates the box rows only, which keeps it fast. Dropping
    # rows relaxes the problem, so a relaxed hard problem without a solution
    # proves the hard problem has none, and a relaxed soft minimizer that
    # meets the dropped voltage rows is the soft minimizer.
    boxes = replace(p, a_in=None, lb_in=None, ub_in=None)
    assert enumerate_qp(boxes) is None
    w_soft = enumerate_qp(boxes, soften=True)[0]
    v = p.alpha * p.a_in @ w_soft
    assert np.all(p.lb_in - 1e-12 <= v) and np.all(v <= p.ub_in + 1e-12)
    np.testing.assert_allclose(sol.w, w_soft, rtol=0, atol=1e-9)


def test_absurd_tracking_target_leaks_no_warning(lab_net, lab_devices):
    # b_eq near 1e298 used to overflow in the dual step's ratio test; it is
    # solved at a power-of-two scale, where the O(1) box bounds are below
    # the round-off of the data
    sens = compute_sensitivity(lab_net, lab_devices, np.zeros(4))
    cfg = ControllerConfig.for_network(lab_net, lab_devices, sensitivity=sens)
    y = Measurement(v=np.ones(len(cfg.monitored)), bus_ids=cfg.monitored, p_pcc=0.0, timestamp=0.0)
    p = replace(assemble_projection_qp(np.zeros(4), y, 0.0, cfg), b_eq=np.array([8.5e297]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL and sol.softened
    assert np.all(np.isfinite(sol.w)) and np.all(np.isfinite(sol.multipliers))


def test_far_bound_leaves_the_scale_alone():
    # a finite bound on the far side of w = 0, as a device limit of 1e300 kW
    # gives, never binds: the problem keeps its scale and its tolerances
    near = QpProblem(g=np.array([-1.0, 0.5]), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([0.3]),
                     lb_box=np.array([0.0, -0.2]), ub_box=np.array([np.inf, 0.2]))
    far = replace(near, ub_box=np.array([1e298, 0.2]))
    a, b = solve_qp(near), solve_qp(far)
    assert np.array_equal(a.w, b.w) and a.active_set == b.active_set == (0, 3)
    assert (a.stationarity, a.primal, a.complementarity) == (b.stationarity, b.primal, b.complementarity)


@st.composite
def projection_problems(draw):
    """Projection QPs shaped as the controller builds them: at most one
    tracking row, up to three voltage rows with open or finite bounds, and a
    finite box on every entry (two-sided, or pinned where a device has no
    range). The tracking row may lie close to a combination of box rows,
    with entries of at most 3e-3 off them, as a PCC row does whose Q
    entries are small beside its P entries. Entries lie on a 1e-3 grid:
    exact zeros, ties and dependent rows occur."""
    n = draw(st.integers(1, 4))

    def grid(lo, hi):
        return st.integers(round(lo * 1000), round(hi * 1000)).map(lambda i: i / 1000)

    def vec(k, elem=grid(-1.0, 1.0)):
        return np.array(draw(st.lists(elem, min_size=k, max_size=k)), dtype=float)

    alpha = draw(grid(0.2, 1.5))
    lb_box = vec(n)
    ub_box = lb_box + vec(n, st.just(0.0) | grid(0.05, 1.5))
    a_eq = b_eq = None
    eq_soft = False
    if draw(st.booleans()):
        a_eq = vec(n)
        if draw(st.booleans()):
            off = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            a_eq = np.where(off, vec(n, grid(-0.003, 0.003)), a_eq)
        a_eq = a_eq[None, :]
        b_eq = vec(1)
        eq_soft = draw(st.booleans())
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
    elif p.eq_soft and enumerate_qp(p, soften=True) is not None:
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


_LAZY_LP_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys, tempfile
    import numpy as np
    from flexloop import cli
    from flexloop.controller import ControllerConfig
    from flexloop.fileio import parse_network_file, parse_scenario_file
    from flexloop.grid import build_devices, build_network
    from flexloop.harness import InfeasibleRequestError, reference_opf, run_closed_loop
    from flexloop.plant import PlantConfig
    from flexloop.qp import STATUS_INFEASIBLE, QpProblem, solve_qp

    spec = parse_network_file("flexloop/data/lv_feeder_5bus.net")
    net = build_network(spec)
    devices = build_devices(spec, net)
    for name in ("exp_a_14p5kw", "exp_b_ev_disturbance"):
        run_closed_loop(net, devices, parse_scenario_file(f"flexloop/data/{name}.scn"),
                        ControllerConfig.for_network(net, devices), PlantConfig())
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--mode", "compare-oracle", "--scenario", "exp_a_14p5kw", "--out", out]) == 0
    try:
        reference_opf(net, devices, p_set_pu=-0.60)
        raise AssertionError("the -60 kW request was reached")
    except InfeasibleRequestError:
        pass
    assert "scipy.optimize" not in sys.modules, "loaded before any infeasibility certificate"
    p = QpProblem(g=np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([4.0]), ub_box=np.array([1.0, 1.0]))
    sol = solve_qp(p)
    assert sol.status == STATUS_INFEASIBLE and sol.most_violated == 0
    assert "scipy.optimize" in sys.modules
""")


def test_highs_loads_at_the_first_certificate_only():
    # a fresh interpreter: this one has scipy.optimize from tests/oracles.py
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _LAZY_LP_SCRIPT],
                          cwd=src, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_oracle_feasibility_is_relative_to_w():
    # the softened optimum sits at w2 = 545, where an absolute 1e-8 test of
    # the pinned row read the oracle's own round-off as a violation
    p = QpProblem(
        g=np.zeros(2), alpha=0.334, a_eq=np.array([[0.05, 0.345]]), b_eq=np.array([0.0]),
        eq_soft=True, a_in=np.array([[0.0, 0.001]]), lb_in=np.array([0.182]),
        ub_in=np.array([0.182]), lb_box=np.array([0.0, -np.inf]), ub_box=np.array([0.0, np.inf]),
    )
    assert enumerate_qp(p) is None
    w_soft = enumerate_qp(p, soften=True)[0]
    assert w_soft[1] == pytest.approx(545.0, abs=0.5)
    sol = solve_qp(p)
    assert sol.status == STATUS_OPTIMAL and sol.softened
    np.testing.assert_allclose(sol.w, w_soft, rtol=0, atol=1e-7 * 545.0)


@settings(max_examples=200, deadline=None)
@given(projection_problems(), st.data())
def test_property_warm_start_solves_the_cold_problem(p, data):
    rows = data.draw(st.sets(st.integers(0, p.n_rows - 1)))
    cold = solve_qp(p)
    warm = solve_qp(p, warm_start=sum(1 << r for r in rows))
    assert (warm.status, warm.softened) == (cold.status, cold.softened)
    if cold.status == STATUS_OPTIMAL:
        assert warm.active_set == cold.active_set
        np.testing.assert_allclose(warm.w, cold.w, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(cold.w))))
    else:
        assert warm.most_violated == cold.most_violated

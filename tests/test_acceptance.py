"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (collected again in the terminal
summary). Run with ``pytest tests/test_acceptance.py -v`` or ``-s`` to see
the lines inline.
"""

import time

import numpy as np
import pytest

from flexloop.controller import ControllerConfig, objective_gradient
from flexloop.grid import injections
from flexloop.harness import (
    random_feeder,
    reference_opf,
    run_closed_loop,
    summarize,
)
from flexloop.plant import PlantConfig, Scenario, ScenarioEvent
from flexloop.powerflow import solve_power_flow
from flexloop.qp import solve_qp
from flexloop.sensitivity import SensitivityMatrix, compute_sensitivity

from conftest import make_two_bus, record_acceptance
from oracles import (
    bus_powers, enumerate_qp, newton_jacobian, time_to_recover, trailing_violation_counts, two_bus_voltage,
)
from test_qp import _random_problem


def _check(n, name, ok, detail=""):
    line = f"criterion {n:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    record_acceptance(line)
    assert ok, line


@pytest.fixture(scope="module")
def exp_a_log(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    return run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())


def test_criterion_1_flexibility_tracking(lab_net, lab_devices, exp_a):
    t0 = time.perf_counter()
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    elapsed = time.perf_counter() - t0
    kpi = summarize(log)
    ok = (
        kpi.settled
        and kpi.settling_iterations <= 10
        and kpi.settling_time_s <= 50.0
        and kpi.within_speed_requirement
        and kpi.steady_state_error_kw < 0.01
        and elapsed < 5.0
    )
    _check(
        1,
        "flexibility tracking",
        ok,
        f"settled in {kpi.settling_iterations} iterations, steady error "
        f"{kpi.steady_state_error_kw:.2e} kW, runtime {elapsed:.2f} s",
    )


def test_criterion_2_disaggregation_by_electrical_distance(lab_net, lab_devices, exp_a_log):
    log = exp_a_log
    last = log.records[-1]
    # binding voltage rows at steady state, from the QP active set
    sens = compute_sensitivity(lab_net, lab_devices, np.zeros(4))
    n_eq, n_in = 1, sens.dv.shape[0]
    binding_rows = [
        (i - n_eq) // 2
        for i in range(n_eq, n_eq + 2 * n_in)
        if last.active_mask >> i & 1
    ]
    p2_kw = last.u[0] * lab_net.s_base_va / 1e3
    p5_kw = last.u[2] * lab_net.s_base_va / 1e3
    norms = [
        float(np.linalg.norm(sens.dv[np.ix_(binding_rows, [2 * j])]))
        for j in range(2)
    ]
    shares = [p2_kw, p5_kw]
    closer = int(np.argmin(norms))  # smaller voltage-sensitivity column norm
    ok = bool(binding_rows) and shares[closer] > shares[1 - closer]
    _check(
        2,
        "disaggregation by electrical distance",
        ok,
        f"binding buses {[lab_net.pq_ids[r] for r in binding_rows]}, "
        f"shares P@2={p2_kw:.2f} kW vs P@5={p5_kw:.2f} kW, "
        f"column norms {norms[0]:.4f} vs {norms[1]:.4f}",
    )


def test_criterion_3_disturbance_rejection(lab_net, lab_devices, exp_b):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_b, cfg, PlantConfig())
    recovery = time_to_recover(log, 470.0, tol_kw=0.1)
    u = log.setpoints_pu()
    inside = bool(np.all(u >= log.u_min) and np.all(u <= log.u_max))  # zero tolerance
    ok = recovery is not None and recovery <= 10 and inside
    _check(
        3,
        "disturbance rejection",
        ok,
        f"recovered {recovery} samples after the EV step, device limits "
        f"{'respected' if inside else 'violated'}",
    )


def test_criterion_4_voltage_safety(lab_net, lab_devices, exp_a, exp_b):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    # actuation delay 0: no out-of-band sample at steady state
    steady_ok = True
    for scen in (exp_a, exp_b):
        log = run_closed_loop(lab_net, lab_devices, scen, cfg, PlantConfig(actuation_delay=0))
        steady_ok &= not np.any(log.out_of_band()[-10:])
    # actuation delay 1: excursions < 0.01 p.u. above the band and decaying;
    # a slack-voltage jump under heavy export provokes real excursions
    stress = Scenario(
        "stress",
        300.0,
        (
            ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=-14.5),
            ScenarioEvent.make(100.0, "slack_voltage_change", v_pu=1.048),
        ),
    )
    max_over = 0.0
    decay_ok = True
    excursions_seen = False
    for scen, after in ((exp_a, 10.0), (exp_b, 470.0), (stress, 100.0)):
        log = run_closed_loop(lab_net, lab_devices, scen, cfg, PlantConfig(actuation_delay=1))
        v = log.voltages_pu()
        max_over = max(max_over, float(np.max(v - log.v_max)))
        excursions_seen |= bool(np.any(log.out_of_band()))
        counts = trailing_violation_counts(log, window=10, after_s=after)
        peak = int(np.argmax(counts))
        decay_ok &= bool(np.all(np.diff(counts[peak:]) <= 0)) and counts[-1] == 0
    ok = steady_ok and max_over < 0.01 and decay_ok and excursions_seen
    _check(
        4,
        "voltage safety",
        ok,
        f"steady in-band (delay 0): {steady_ok}; worst transient excursion "
        f"{max_over:.2e} p.u. above the band, decays: {decay_ok}",
    )


def test_criterion_5_optimality_vs_oracle():
    t0 = time.perf_counter()
    gaps = []
    for seed in range(5):
        net, devices, p_set_kw = random_feeder(seed)
        scen = Scenario(
            "rand", 150.0, (ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=p_set_kw),)
        )
        cfg = ControllerConfig.for_network(net, devices)
        log = run_closed_loop(net, devices, scen, cfg, PlantConfig())
        phi_loop = float(np.sum(log.records[-1].u ** 2))
        opf = reference_opf(net, devices, p_set_pu=p_set_kw * 1e3 / net.s_base_va)
        gaps.append(abs(phi_loop - opf.phi) / max(abs(opf.phi), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = all(g < 0.01 for g in gaps) and elapsed < 60.0
    _check(
        5,
        "optimality vs oracle",
        ok,
        f"worst relative gap {max(gaps):.2e} over 5 feeders, runtime {elapsed:.1f} s",
    )


def test_criterion_6_model_mismatch_robustness(lab_net, lab_devices, exp_a):
    sens = compute_sensitivity(lab_net, lab_devices, np.zeros(4))
    worst = 0
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(seed + 1000)
        scaled = SensitivityMatrix(
            sens.dv * rng.uniform(0.5, 1.5, sens.dv.shape), sens.dpcc * rng.uniform(0.5, 1.5, sens.dpcc.shape)
        )
        cfg = ControllerConfig.for_network(lab_net, lab_devices, sensitivity=scaled)
        log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
        kpi = summarize(log)
        if kpi.settled and kpi.settling_iterations <= 25:
            worst = max(worst, kpi.settling_iterations)
        else:
            failures.append(seed)
    ok = not failures
    _check(
        6,
        "model-mismatch robustness",
        ok,
        f"20 scaled-sensitivity runs, worst settling {worst} iterations"
        + (f", failures {failures}" if failures else ""),
    )


def test_criterion_7_qp_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_w = 0.0
    worst_kkt = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        p = _random_problem(rng, n, with_eq=trial % 2 == 0)
        sol = solve_qp(p)
        assert sol.status == "optimal"
        oracle = enumerate_qp(p)
        worst_w = max(worst_w, float(np.max(np.abs(sol.w - oracle[0]))))
        worst_kkt = max(worst_kkt, sol.stationarity, sol.primal, sol.complementarity)
    elapsed = time.perf_counter() - t0
    ok = worst_w < 1e-7 and worst_kkt < 1e-8 and elapsed < 10.0
    _check(
        7,
        "QP correctness",
        ok,
        f"100 problems: worst |w - oracle| {worst_w:.1e}, worst KKT residual "
        f"{worst_kkt:.1e}, runtime {elapsed:.1f} s",
    )


def test_criterion_8_power_flow_correctness(lab_net, lab_devices):
    # two-bus closed form to 1e-10
    net2, _ = make_two_bus()
    sol = solve_power_flow(net2, np.array([[-0.1, 0.0]]), 1.0)
    closed_form_err = abs(sol.v_mag[1] - two_bus_voltage(0.01, 0.01, 0.1, 0.0))
    # Newton Jacobian against finite differences, relative 1e-6
    rng = np.random.default_rng(8)
    vm = 1.0 + rng.uniform(-0.03, 0.03, lab_net.n_buses)
    va = np.concatenate([[0.0], rng.uniform(-0.02, 0.02, lab_net.n_buses - 1)])
    jac = newton_jacobian(lab_net, vm, va)
    h = 1e-6
    n_pq = lab_net.n_buses - 1
    fd = np.zeros_like(jac)
    for col in range(2 * n_pq):
        vmp, vap = vm.copy(), va.copy()
        vmm, vam = vm.copy(), va.copy()
        if col < n_pq:
            vap[col + 1] += h
            vam[col + 1] -= h
        else:
            vmp[col - n_pq + 1] += h
            vmm[col - n_pq + 1] -= h
        pp_, qp_ = bus_powers(lab_net, vmp, vap)
        pm_, qm_ = bus_powers(lab_net, vmm, vam)
        fd[:, col] = np.concatenate([(pp_[1:] - pm_[1:]) / (2 * h), (qp_[1:] - qm_[1:]) / (2 * h)])
    jac_err = float(np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(fd))))
    # sensitivity columns against central differences at a different step
    u0 = np.array([0.03, 0.0, 0.02, -0.01])
    sens = compute_sensitivity(lab_net, lab_devices, u0)

    h2 = 3e-4
    sens_err = 0.0
    for j in range(4):
        up, um = u0.copy(), u0.copy()
        up[j] += h2
        um[j] -= h2
        sp = solve_power_flow(lab_net, injections(lab_net, lab_devices, up), 1.0)
        sm = solve_power_flow(lab_net, injections(lab_net, lab_devices, um), 1.0)
        col = (sp.v_mag[1:] - sm.v_mag[1:]) / (2 * h2)
        sens_err = max(sens_err, float(np.max(np.abs(sens.dv[:, j] - col))))
    ok = closed_form_err < 1e-10 and jac_err < 1e-6 and sens_err < 1e-5
    _check(
        8,
        "power-flow correctness",
        ok,
        f"closed form {closed_form_err:.1e}, Jacobian {jac_err:.1e} rel, "
        f"sensitivity {sens_err:.1e}",
    )


def test_criterion_9_gradient_check():
    rng = np.random.default_rng(99)
    phi = lambda u: float(np.sum(u * u))
    worst = 0.0
    for _ in range(20):
        u = rng.uniform(-1.5, 1.5, int(rng.integers(2, 9)))
        g = objective_gradient(u)
        h = 1e-6
        for j in range(u.size):
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            worst = max(worst, abs(g[j] - (phi(up) - phi(um)) / (2 * h)))
    ok = worst < 1e-7
    _check(9, "objective gradient", ok, f"worst |analytic - FD| {worst:.1e}")


def test_criterion_10_determinism(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    plant_cfg = PlantConfig(noise_sigma=1e-4, seed=7)
    h1 = run_closed_loop(lab_net, lab_devices, exp_a, cfg, plant_cfg).csv_hash()
    h2 = run_closed_loop(lab_net, lab_devices, exp_a, cfg, plant_cfg).csv_hash()
    ok = h1 == h2
    _check(10, "determinism", ok, f"telemetry sha256 {h1[:12]}... reproduced")

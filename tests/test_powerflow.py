import numpy as np
import pytest

import flexloop.powerflow
from flexloop.grid import Branch, Bus, DroopLaw, NetworkSpec, build_network, droop_law, injections
from flexloop.harness import random_feeder
from flexloop.powerflow import SingularJacobianError, _band_solve, _evaluate, _jacobian, solve_power_flow

from conftest import close_a_loop, make_depth_first_feeder, make_hair_thin_ramp
from oracles import (
    branch_losses_w,
    bus_powers,
    dense_bus_powers,
    kirchhoff_residual_pu,
    newton_jacobian,
    power_jacobian,
    two_bus_voltage,
    zbus_power_flow,
)


def _meshed_net():
    """Six buses with one loop (2-3-4-5) and two parallel branches 5-6."""
    buses = (Bus(1, 400.0, "slack"),) + tuple(Bus(i, 400.0, "pq") for i in range(2, 7))
    branches = (
        Branch(1, 2, 0.02, 0.01),
        Branch(2, 3, 0.05, 0.02),
        Branch(3, 4, 0.04, 0.03),
        Branch(2, 5, 0.06, 0.02),
        Branch(4, 5, 0.03, 0.015),
        Branch(5, 6, 0.08, 0.03),
        Branch(5, 6, 0.07, 0.035),
    )
    return build_network(NetworkSpec(buses=buses, branches=branches))


def _random_state(rng, n):
    vm = 1.0 + rng.uniform(-0.03, 0.03, n)
    va = np.concatenate([[0.0], rng.uniform(-0.02, 0.02, n - 1)])
    return vm, va


def test_flat_no_load(two_bus):
    net, _ = two_bus
    sol = solve_power_flow(net, np.zeros((1, 2)), 1.0)
    assert sol.converged
    np.testing.assert_allclose(sol.v_mag, 1.0, atol=1e-12)
    assert sol.pcc_power_pu * net.s_base_va == pytest.approx(0.0, abs=1e-10)
    assert sol.iterations == 0  # flat start is already the solution


def test_two_bus_closed_form(two_bus):
    # Z = 0.01 + j0.01 p.u., load 0.1 + j0.0 p.u.
    net, _ = two_bus
    inj = np.array([[-0.1, 0.0]])
    sol = solve_power_flow(net, inj, 1.0)
    assert sol.converged
    expected = two_bus_voltage(0.01, 0.01, 0.1, 0.0, 1.0)
    assert sol.v_mag[1] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("p,q,slack_v", [(0.05, 0.02, 1.0), (-0.12, 0.04, 1.05), (0.2, -0.1, 0.95)])
def test_two_bus_closed_form_grid(two_bus, p, q, slack_v):
    net, _ = two_bus
    sol = solve_power_flow(net, np.array([[-p, -q]]), slack_v)
    assert sol.converged
    expected = two_bus_voltage(0.01, 0.01, p, q, slack_v)
    assert sol.v_mag[1] == pytest.approx(expected, abs=1e-10)


def test_lab_feeder_against_zbus_oracle(lab_net, lab_devices):
    # total controllable feed-in of 15.5 kW on top of the static devices
    inj = injections(lab_net, lab_devices, np.zeros(lab_devices.n_setpoints))
    inj[lab_net.pq_row(2), 0] += 0.115
    inj[lab_net.pq_row(5), 0] += 0.040
    sol = solve_power_flow(lab_net, inj, 1.0)
    assert sol.converged

    v_oracle, pcc_oracle = zbus_power_flow(lab_net, inj, 1.0)
    np.testing.assert_allclose(sol.v_mag, np.abs(v_oracle), atol=1e-9)
    assert sol.pcc_power_pu == pytest.approx(pcc_oracle, abs=1e-9)
    assert sol.losses_w == pytest.approx(branch_losses_w(lab_net, v_oracle), rel=1e-9, abs=1e-6)

    # exports roughly injection minus local load, reduced by losses
    assert sol.pcc_power_pu * lab_net.s_base_va < 0
    assert sol.losses_w > 0
    local_load = 3e3 - 2e3  # loads minus legacy feed-in
    assert sol.pcc_power_pu * lab_net.s_base_va == pytest.approx(-(15.5e3 - local_load - sol.losses_w), abs=1e-6)


def test_kirchhoff_balance(lab_net, lab_devices):
    rng = np.random.default_rng(7)
    for _ in range(10):
        inj = rng.uniform(-0.08, 0.08, (4, 2))
        sol = solve_power_flow(lab_net, inj, 1.0)
        assert sol.converged
        assert kirchhoff_residual_pu(lab_net, sol, inj) < 1e-8
        volts = sol.v_mag * np.exp(1j * sol.v_ang)
        assert sol.losses_w == pytest.approx(branch_losses_w(lab_net, volts), rel=1e-9, abs=1e-6)


def test_bus_powers_match_dense_reference_on_meshed_feeder():
    net = _meshed_net()
    # the parallel branches share one entry pair; every diagonal is listed
    assert len(net.ybus_nonzeros[0]) == 6 + 2 * 6
    rng = np.random.default_rng(11)
    for _ in range(5):
        vm, va = _random_state(rng, net.n_buses)
        p, q = bus_powers(net, vm, va)
        p_ref, q_ref = dense_bus_powers(net, vm, va)
        assert np.max(np.abs(p - p_ref)) < 1e-12
        assert np.max(np.abs(q - q_ref)) < 1e-12


def test_power_jacobian_matches_dense_central_differences():
    # rows [P_pq; Q_pq; P_slack; Q_slack], columns [theta_pq; V_pq]
    net = _meshed_net()
    n = net.n_buses
    rng = np.random.default_rng(12)
    vm, va = _random_state(rng, n)
    jac = power_jacobian(net, vm, va)
    order = np.r_[1:n, 0]
    h = 1e-6
    x = np.concatenate([va[1:], vm[1:]])
    fd = np.zeros_like(jac)
    for col in range(2 * n - 2):
        powers = []
        for sign in (1.0, -1.0):
            xs = x.copy()
            xs[col] += sign * h
            p, q = dense_bus_powers(
                net, np.concatenate([vm[:1], xs[n - 1:]]), np.concatenate([[0.0], xs[:n - 1]])
            )
            powers.append(np.concatenate([p[order][:-1], q[order][:-1], [p[0], q[0]]]))
        fd[:, col] = (powers[0] - powers[1]) / (2 * h)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(jac - fd)) / scale < 1e-8
    assert np.array_equal(newton_jacobian(net, vm, va), jac[:-2])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(6):
        if trial == 5:
            net = _meshed_net()
            n = net.n_buses
        else:
            n = int(rng.integers(3, 6))
            buses = [Bus(1, 400.0, "slack")] + [Bus(i, 400.0, "pq") for i in range(2, n + 1)]
            branches = [
                Branch(int(rng.integers(1, i)), i, float(rng.uniform(0.01, 0.08)), float(rng.uniform(0.005, 0.04)))
                for i in range(2, n + 1)
            ]
            net = build_network(NetworkSpec(buses=tuple(buses), branches=tuple(branches)))
        vm, va = _random_state(rng, n)
        jac = newton_jacobian(net, vm, va)

        h = 1e-6
        n_pq = n - 1
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
            pp, qp_ = bus_powers(net, vmp, vap)
            pm, qm = bus_powers(net, vmm, vam)
            fd[:, col] = np.concatenate(
                [(pp[1:] - pm[1:]) / (2 * h), (qp_[1:] - qm[1:]) / (2 * h)]
            )
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(jac - fd)) / scale < 1e-6


def test_determinism_bit_identical(lab_net, lab_devices):
    inj = injections(lab_net, lab_devices, np.zeros(lab_devices.n_setpoints))
    inj[0, 0] += 0.1
    a = solve_power_flow(lab_net, inj, 1.02)
    b = solve_power_flow(lab_net, inj, 1.02)
    assert np.array_equal(a.v_mag, b.v_mag)
    assert np.array_equal(a.v_ang, b.v_ang)
    assert a.pcc_power_pu * lab_net.s_base_va == b.pcc_power_pu * lab_net.s_base_va
    assert a.iterations == b.iterations


def test_nonconvergence_flagged_not_raised(two_bus):
    net, _ = two_bus
    # far beyond the maximum transfer of the feeder section
    sol = solve_power_flow(net, np.array([[-30.0, -30.0]]), 1.0)
    assert not sol.converged
    assert sol.max_mismatch_pu > 0


def test_singular_jacobian_distinct_error(two_bus):
    net, _ = two_bus
    x0 = (np.zeros(2), np.zeros(2))  # collapsed voltages make J exactly singular
    with pytest.raises(SingularJacobianError):
        solve_power_flow(net, np.array([[0.1, 0.0]]), 1.0, x0=x0)


def test_slack_voltage_bounds_checked(two_bus):
    net, _ = two_bus
    with pytest.raises(ValueError, match="slack voltage"):
        solve_power_flow(net, np.zeros((1, 2)), 1.3)


def test_injections_shape_checked(two_bus):
    net, _ = two_bus
    with pytest.raises(ValueError, match="shape"):
        solve_power_flow(net, np.zeros((2, 2)), 1.0)


def test_slack_bus_state_pinned(lab_net, lab_devices):
    inj = injections(lab_net, lab_devices, np.zeros(lab_devices.n_setpoints))
    sol = solve_power_flow(lab_net, inj, 1.048)
    assert sol.v_mag[0] == 1.048
    assert sol.v_ang[0] == 0.0


def test_each_voltage_point_evaluated_once(monkeypatch, lab_net, lab_devices):
    # the mismatch, the Jacobian and the reported powers of a Newton point
    # share one evaluation of the kernels and of the droop law
    seen = {"evaluate": [], "response": []}
    evaluate, response = flexloop.powerflow._evaluate, DroopLaw.response

    def record_evaluate(net, v_mag, v_ang):
        seen["evaluate"].append(v_mag.tobytes() + v_ang.tobytes())
        return evaluate(net, v_mag, v_ang)

    def record_response(law, v):
        seen["response"].append(np.asarray(v).tobytes())
        return response(law, v)

    monkeypatch.setattr(flexloop.powerflow, "_evaluate", record_evaluate)
    monkeypatch.setattr(DroopLaw, "response", record_response)
    hair_net, hair_devices = make_hair_thin_ramp()
    for net, devices, slack_v in ((lab_net, lab_devices, 1.04), (hair_net, hair_devices, 1.02)):
        for calls in seen.values():
            calls.clear()
        inj = injections(net, devices, np.zeros(devices.n_setpoints))
        sol = solve_power_flow(net, inj, slack_v, droop=droop_law(net, devices))
        assert sol.converged and sol.iterations >= 2
        for name, calls in seen.items():
            assert len(set(calls)) == len(calls) >= sol.iterations + 1, name
    # the hair-thin ramp backtracks: more points than Newton steps
    assert len(seen["evaluate"]) > sol.iterations + 2


def _band_cases(lab_net, lab_devices):
    """(name, network, devices) of every layout the band LU must handle."""
    cases = [("lab5", lab_net, lab_devices)]
    cases += [(f"random{s}", *random_feeder(s)[:2]) for s in range(5)]
    net, devices = random_feeder(3)[:2]
    cases.append(("meshed", close_a_loop(net), devices))
    cases.append(("depth-first120", *make_depth_first_feeder()))
    return cases


def test_band_newton_step_matches_dense_solve(lab_net, lab_devices):
    # the Newton step through the permuted band LU equals a dense solve of
    # the unpermuted Jacobian, legacy droop slopes included where present
    rng = np.random.default_rng(21)
    for name, net, devices in _band_cases(lab_net, lab_devices):
        vm, va = _random_state(rng, net.n_buses)
        law = droop_law(net, devices)
        q, dq_dv = law.response(vm[law.buses])
        f = rng.normal(size=2 * net.n_buses - 2)
        dense = newton_jacobian(net, vm, va)
        np.subtract.at(dense, (law.rows, law.rows), dq_dv)
        ref = np.linalg.solve(dense, f)
        step = _band_solve(net, _jacobian(net, vm, _evaluate(net, vm, va), law, dq_dv)[0], f)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref)), name


def test_band_stays_narrow_in_breadth_first_order():
    # numbered depth-first, the 120-bus feeder's neighbours lie far apart in
    # id order; breadth-first from the slack they do not
    net, _ = make_depth_first_feeder()
    m = 2 * net.n_buses - 2
    kl = net.jacobian_scatter[3]
    i, k = net.ybus_nonzeros[:2]
    pq = (i > 0) & (k > 0)
    natural = 2 * int(np.max(np.abs(i[pq] - k[pq]))) + 1
    assert kl < m / 4 <= natural


def test_collapsed_state_raises_singular_on_lab_feeder(lab_net, lab_devices):
    # every PQ voltage at zero: the angle columns vanish, an exact zero pivot
    x0 = (np.zeros(lab_net.n_buses), np.zeros(lab_net.n_buses))
    with pytest.raises(SingularJacobianError, match="singular Jacobian at iteration 0"):
        solve_power_flow(lab_net, injections(lab_net, lab_devices, np.zeros(lab_devices.n_setpoints)), 1.0, x0=x0)

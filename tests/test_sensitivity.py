import numpy as np
import pytest

import flexloop.sensitivity as sensitivity
from flexloop.grid import Fpu, NetworkSpec, build_devices, build_network, droop_law, injections, pq_positions
from flexloop.harness import random_feeder
from flexloop.plant import steady_state_response
from flexloop.powerflow import PowerFlowSolution, solve_power_flow
from flexloop.sensitivity import SensitivityError, compute_sensitivity, linearize

from conftest import close_a_loop, make_depth_first_feeder, make_two_bus, random_injections
from oracles import power_jacobian, zbus_power_flow


def test_reactive_injection_raises_voltage():
    net, devices = make_two_bus(with_fpu=True)
    sens = compute_sensitivity(net, devices, np.zeros(2))
    # column order (P@2, Q@2); capacitive injection lifts the local voltage
    assert sens.dv[0, 1] > 0
    assert sens.dv[0, 0] > 0


def test_shape_one_controllable_four_monitored(lab_net):
    spec = NetworkSpec(
        buses=lab_net.buses,
        branches=lab_net.branches,
        devices=(Fpu(bus=3, p_min_w=-1e4, p_max_w=1e4, q_min_var=-1e4, q_max_var=1e4),),
    )
    net = build_network(spec)
    devices = build_devices(spec, net)
    sens = compute_sensitivity(net, devices, np.zeros(2))
    assert sens.dv.shape == (4, 2)
    assert sens.dpcc.shape == (2,)


def test_radial_distance_ordering(lab_net, lab_devices):
    sens = compute_sensitivity(lab_net, lab_devices, np.zeros(4))
    # column P@5: feed-in at the far end lifts each bus more the farther it
    # is from the PCC
    col = sens.dv[:, 2]
    assert np.all(np.diff(col) > 0)
    # and the P@2 column is flat across buses behind bus 2
    col2 = sens.dv[:, 0]
    assert col2[0] > 0
    assert np.allclose(col2[1:], col2[0], rtol=1e-3)


def test_columns_match_independent_central_differences(lab_net, lab_devices):
    u0 = np.array([0.02, 0.0, 0.01, -0.01])
    sens = compute_sensitivity(lab_net, lab_devices, u0)
    h = 2e-4  # different step than the implementation default
    for j in range(4):
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        vp, pccp = zbus_power_flow(lab_net, injections(lab_net, lab_devices, up), 1.0)
        vm, pccm = zbus_power_flow(lab_net, injections(lab_net, lab_devices, um), 1.0)
        dv = (np.abs(vp[1:]) - np.abs(vm[1:])) / (2 * h)
        dpcc = (pccp - pccm) / (2 * h)
        np.testing.assert_allclose(sens.dv[:, j], dv, atol=1e-5)
        assert sens.dpcc[j] == pytest.approx(dpcc, abs=1e-5)


def test_operating_point_recorded(lab_net, lab_devices):
    u0 = np.array([0.05, 0.01, -0.02, 0.0])
    sens = compute_sensitivity(lab_net, lab_devices, u0)
    # one voltage row per PQ bus, in pq_ids order
    assert lab_net.pq_ids == (2, 3, 4, 5)
    assert sens.dv.shape == (len(lab_net.pq_ids), 4)


def test_nonconverged_operating_point_rejected():
    net, devices = make_two_bus(with_fpu=True)
    with pytest.raises(SensitivityError, match="operating point"):
        compute_sensitivity(net, devices, np.array([-40.0, -40.0]))


def test_one_power_flow_per_sensitivity(monkeypatch, lab_net, lab_devices):
    calls = []
    solve = sensitivity.solve_power_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sensitivity, "solve_power_flow", counting)
    compute_sensitivity(lab_net, lab_devices, np.zeros(4))
    assert len(calls) == 1


@pytest.mark.parametrize("slack_v, on_ramp", [(1.03, True), (1.0, False)])
def test_droop_aware_linearization_matches_plant_central_differences(
    lab_net, lab_devices, slack_v, on_ramp
):
    # the oracle's linearization, Q(V) slopes included, checked against
    # central differences of the plant's steady state
    def respond(u):
        sol, _, ok = steady_state_response(lab_net, lab_devices, u, slack_v=slack_v)
        assert ok
        return sol

    u0 = np.array([0.05, 0.01, 0.03, -0.01])
    sol = respond(u0)
    law = droop_law(lab_net, lab_devices)
    slopes = law.response(sol.v_mag[law.buses])[1]
    assert (slopes[0] != 0.0) == on_ramp
    dv, dpcc = linearize(lab_net, lab_devices, sol, law)
    h = 1e-4
    for j in range(4):
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        plus, minus = respond(up), respond(um)
        np.testing.assert_allclose(dv[:, j], (plus.v_mag[1:] - minus.v_mag[1:]) / (2 * h), atol=1e-8)
        assert dpcc[j] == pytest.approx((plus.pcc_power_pu - minus.pcc_power_pu) / (2 * h), abs=1e-8)


def test_linearize_matches_dense_solve(lab_net, lab_devices):
    # the band LU's sensitivities equal a dense solve of the unpermuted
    # Jacobian, on radial, meshed and depth-first-numbered feeders
    net, devices = random_feeder(3)[:2]
    cases = [(lab_net, lab_devices), (close_a_loop(net), devices), make_depth_first_feeder()]
    cases += [random_feeder(s)[:2] for s in range(5)]
    rng = np.random.default_rng(4)
    for net, devices in cases:
        inj = injections(net, devices, np.zeros(devices.n_setpoints)) + random_injections(rng, net.n_buses - 1, 0.002)
        sol = solve_power_flow(net, inj)
        assert sol.converged
        full = power_jacobian(net, sol.v_mag, sol.v_ang)
        p = devices.n_setpoints
        c = np.zeros((len(full) - 2, p))
        c[pq_positions(net, devices.fpu_buses), np.arange(p)] = 1.0
        dx = np.linalg.solve(full[:-2], c)
        dv, dpcc = linearize(net, devices, sol)
        for got, ref in ((dv, dx[net.n_buses - 1:]), (dpcc, full[-2] @ dx)):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_linearize_at_collapsed_state_raises(lab_net, lab_devices):
    v_mag = np.concatenate([[1.0], np.zeros(lab_net.n_buses - 1)])
    collapsed = PowerFlowSolution(v_mag, np.zeros(lab_net.n_buses), 0.0, 0.0, False, 0, 1.0)
    with pytest.raises(SensitivityError, match="singular Jacobian"):
        linearize(lab_net, lab_devices, collapsed)

import numpy as np
import pytest

import flexloop.sensitivity as sensitivity
from flexloop.grid import Fpu, NetworkSpec, base_injections, build_devices, build_network
from flexloop.plant import droop_curves, qv_droop_slope, steady_state_response
from flexloop.sensitivity import SensitivityError, compute_sensitivity, linearize

from conftest import make_two_bus
from oracles import zbus_power_flow

import flexloop.grid as grid


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
    assert sens.combined().shape == (5, 2)  # monitored buses plus the PCC row


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
    base = base_injections(lab_net, lab_devices)
    for j in range(4):
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        vp, pccp = zbus_power_flow(lab_net, grid.add_setpoint_injections(base, lab_net, lab_devices, up), 1.0)
        vm, pccm = zbus_power_flow(lab_net, grid.add_setpoint_injections(base, lab_net, lab_devices, um), 1.0)
        dv = (np.abs(vp[1:]) - np.abs(vm[1:])) / (2 * h)
        dpcc = (pccp - pccm) / (2 * h)
        np.testing.assert_allclose(sens.dv[:, j], dv, atol=1e-5)
        assert sens.dpcc[j] == pytest.approx(dpcc, abs=1e-5)


def test_operating_point_recorded(lab_net, lab_devices):
    u0 = np.array([0.05, 0.01, -0.02, 0.0])
    sens = compute_sensitivity(lab_net, lab_devices, u0)
    np.testing.assert_array_equal(sens.operating_point, u0)
    assert sens.monitored_buses == (2, 3, 4, 5)


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
    # the oracle's linearization: Q(V) slopes at the droop fixed point,
    # checked against central differences of the plant's steady state
    def respond(u):
        sol, _, ok = steady_state_response(
            lab_net, lab_devices, u, slack_v=slack_v, tol=1e-13, max_iter=200
        )
        assert ok
        return sol

    u0 = np.array([0.05, 0.01, 0.03, -0.01])
    sol = respond(u0)
    slopes = [qv_droop_slope(c, sol.v_mag[i]) for c, i in droop_curves(lab_net, lab_devices)]
    assert (slopes[0] != 0.0) == on_ramp
    dv, dpcc = linearize(lab_net, lab_devices, sol, lab_net.pq_ids, slopes)
    h = 1e-4
    for j in range(4):
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        plus, minus = respond(up), respond(um)
        np.testing.assert_allclose(dv[:, j], (plus.v_mag[1:] - minus.v_mag[1:]) / (2 * h), atol=1e-8)
        assert dpcc[j] == pytest.approx((plus.pcc_power_pu - minus.pcc_power_pu) / (2 * h), abs=1e-8)

import numpy as np
import pytest

from flexloop.grid import (
    Branch,
    Bus,
    DeviceLimitError,
    DisconnectedGraphError,
    DroopInverter,
    DuplicateBusError,
    EvCharger,
    Fpu,
    Load,
    MissingSlackError,
    MultipleSlackError,
    NetworkSpec,
    NetworkValidationError,
    UnknownBusError,
    ZeroImpedanceBranchError,
    add_setpoint_injections,
    base_injections,
    build_devices,
    build_network,
)


def spec_2bus(**kwargs):
    base = dict(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq")),
        branches=(Branch(1, 2, 0.03, 0.012),),
    )
    base.update(kwargs)
    return NetworkSpec(**base)


def test_minimal_network():
    net = build_network(spec_2bus())
    assert net.n_buses == 2
    assert len(net.branches) == 1
    assert net.pcc_bus == 1
    assert net.pq_ids == (2,)


def test_multiple_slack_rejected():
    spec = spec_2bus(buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "slack")))
    with pytest.raises(MultipleSlackError, match="multiple slack buses"):
        build_network(spec)


def test_missing_slack_rejected():
    spec = spec_2bus(buses=(Bus(1, 400.0, "pq"), Bus(2, 400.0, "pq")))
    with pytest.raises(MissingSlackError):
        build_network(spec)


def test_duplicate_bus_rejected():
    spec = spec_2bus(buses=(Bus(1, 400.0, "slack"), Bus(1, 400.0, "pq")))
    with pytest.raises(DuplicateBusError):
        build_network(spec)


def test_zero_impedance_rejected():
    spec = spec_2bus(branches=(Branch(1, 2, 0.0, 0.0),))
    with pytest.raises(ZeroImpedanceBranchError):
        build_network(spec)


def test_disconnected_rejected():
    spec = NetworkSpec(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq"), Bus(3, 400.0, "pq")),
        branches=(Branch(1, 2, 0.03, 0.012),),
    )
    with pytest.raises(DisconnectedGraphError):
        build_network(spec)


def test_branch_unknown_bus_rejected():
    spec = spec_2bus(branches=(Branch(1, 7, 0.03, 0.012),))
    with pytest.raises(UnknownBusError):
        build_network(spec)


def test_bus_ordering_slack_first_then_ascending():
    spec = NetworkSpec(
        buses=(Bus(9, 400.0, "pq"), Bus(3, 400.0, "pq"), Bus(5, 400.0, "slack")),
        branches=(Branch(5, 3, 0.03, 0.012), Branch(3, 9, 0.03, 0.012)),
    )
    net = build_network(spec)
    assert net.bus_ids == (5, 3, 9)


def test_per_unit_involution():
    net = build_network(spec_2bus())
    for w in (1.0, -14.5e3, 123.456, 1e7):
        assert net.p_from_pu(net.p_to_pu(w)) == pytest.approx(w, rel=1e-12)
    for v in (380.0, 400.0, 420.0):
        assert net.v_from_pu(net.v_to_pu(v, 2), 2) == pytest.approx(v, rel=1e-12)


def test_device_on_slack_rejected():
    spec = spec_2bus(devices=(Load(bus=1, p_w=1e3),))
    net = build_network(spec)
    with pytest.raises(NetworkValidationError, match="slack"):
        build_devices(spec, net)


def test_device_unknown_bus_rejected():
    spec = spec_2bus(devices=(EvCharger(bus=9, max_charge_w=1e3),))
    net = build_network(spec)
    with pytest.raises(UnknownBusError):
        build_devices(spec, net)


def test_fpu_limits_ordered():
    spec = spec_2bus(devices=(Fpu(bus=2, p_min_w=1e3, p_max_w=0.0, q_min_var=0, q_max_var=0),))
    net = build_network(spec)
    with pytest.raises(DeviceLimitError):
        build_devices(spec, net)


def test_lab_fixture_shape(lab_net, lab_devices):
    assert lab_net.n_buses == 5
    assert len(lab_net.branches) == 4
    device_buses = {f.bus for f in lab_devices.controllables}
    device_buses |= {d.bus for d in lab_devices.legacy}
    device_buses |= {d.bus for d in lab_devices.loads}
    device_buses |= {d.bus for d in lab_devices.ev_points}
    assert device_buses == {2, 3, 4, 5}
    assert lab_devices.n_setpoints == 4
    assert lab_devices.setpoint_labels == ("P@2", "Q@2", "P@5", "Q@5")


def test_setpoint_bounds_units(lab_net, lab_devices):
    lb, ub = lab_devices.setpoint_bounds_pu(lab_net.s_base_va)
    assert ub[0] == pytest.approx(0.15)  # 15 kW on the 100 kVA base
    assert lb[0] == pytest.approx(0.0)
    assert lb[1] == pytest.approx(-0.10)


def test_base_injections_signs(lab_net, lab_devices):
    inj = base_injections(lab_net, lab_devices)
    row3 = lab_net.pq_row(3)
    row4 = lab_net.pq_row(4)
    assert inj[row3, 0] == pytest.approx(-0.02)  # 2 kW load consumes
    # bus 4: 1 kW load against 2 kW legacy feed-in
    assert inj[row4, 0] == pytest.approx(0.01)
    assert inj[row4, 1] == pytest.approx(-0.002)


def test_injection_overrides_sum_on_shared_buses(lab_net, lab_devices):
    inj = base_injections(
        lab_net, lab_devices,
        loads_pu=np.array([[0.03, 0.01], [0.0, 0.0]]), ev_pu=np.array([-0.05]), droop_q=np.array([0.04]),
    )
    row3, row4, row5 = (lab_net.pq_row(b) for b in (3, 4, 5))
    assert inj[row3] == pytest.approx([-0.08, -0.01])  # load and EV charger share bus 3
    assert inj[row4] == pytest.approx([0.02, 0.04])  # legacy feed-in and its droop output
    out = add_setpoint_injections(inj, lab_net, lab_devices, np.array([0.01, 0.02, 0.03, 0.04]))
    assert out[lab_net.pq_row(2)] == pytest.approx([0.01, 0.02])
    assert out[row5] == pytest.approx([0.03, 0.04])
    np.testing.assert_array_equal(out[[row3, row4]], inj[[row3, row4]])  # no setpoint there


def test_droop_curve_knees_validated():
    spec = spec_2bus(devices=(DroopInverter(bus=2, p_fixed_w=0.0, q_max_var=1e3, v_db_lo=0.9, v_lo=0.95),))
    net = build_network(spec)
    with pytest.raises(DeviceLimitError):
        build_devices(spec, net)

import numpy as np
import pytest

from flexloop.grid import (
    Branch,
    Bus,
    DroopInverter,
    Load,
    NetworkSpec,
    base_injections,
    build_devices,
    build_network,
)
from flexloop.plant import (
    DroopCurve,
    Plant,
    PlantConfig,
    PlantDivergedError,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    qv_droop,
    qv_droop_slope,
    schedule,
    steady_state_response,
    validate_scenario,
)
from flexloop.powerflow import solve_power_flow


# --- droop curve -------------------------------------------------------------


def test_droop_zero_in_deadband():
    c = DroopCurve(q_max=0.06)
    for v in (0.99, 1.0, 1.005, 1.01):
        assert qv_droop(c, v) == 0.0


def test_droop_full_absorption_at_upper_knee():
    c = DroopCurve(q_max=0.06)
    assert qv_droop(c, 1.05) == pytest.approx(-0.06)
    assert qv_droop(c, 1.08) == pytest.approx(-0.06)  # clamped


def test_droop_half_output_midway():
    c = DroopCurve(q_max=0.06)
    assert qv_droop(c, 1.03) == pytest.approx(-0.03)
    assert qv_droop(c, 0.97) == pytest.approx(0.03)


def test_droop_monotone_nonincreasing_and_continuous():
    c = DroopCurve(q_max=0.08, v_db_lo=0.985, v_db_hi=1.015, v_lo=0.94, v_hi=1.06)
    grid_v = np.linspace(0.9, 1.1, 2001)
    q = np.array([qv_droop(c, v) for v in grid_v])
    assert np.all(np.diff(q) <= 1e-12)
    assert np.max(np.abs(np.diff(q))) < 0.08 * (grid_v[1] - grid_v[0]) / (c.v_hi - c.v_db_hi) * 1.01


def test_droop_slope_matches_curve():
    c = DroopCurve(q_max=0.06)
    for v in (0.9, 0.97, 1.0, 1.03, 1.08):  # clamped, ramps, deadband
        fd = (qv_droop(c, v + 1e-6) - qv_droop(c, v - 1e-6)) / 2e-6
        assert qv_droop_slope(c, v) == pytest.approx(fd, abs=1e-6)
    assert qv_droop_slope(c, 1.03) == pytest.approx(-1.5)


def test_droop_curve_validation():
    with pytest.raises(ValueError):
        DroopCurve(q_max=0.05, v_db_lo=0.9, v_lo=0.95)
    with pytest.raises(ValueError):
        qv_droop(DroopCurve(q_max=0.05), -1.0)


# --- scenarios ---------------------------------------------------------------


def test_schedule_empty():
    assert schedule((), 0.0, 5.0) == ()


def test_schedule_half_open_interval_fires_once():
    ev = ScenarioEvent.make(470.0, "ev_charge_start", bus=3, p_kw=-14.0)
    events = (ev,)
    fired = []
    t = 0.0
    while t < 600.0:
        t_next = t + 5.0
        fired.extend(schedule(events, t, t_next))
        t = t_next
    assert fired == [ev]
    assert schedule(events, 465.0, 470.0) == (ev,)
    assert schedule(events, 470.0, 475.0) == ()


def test_schedule_ties_fire_in_file_order():
    a = ScenarioEvent.make(10.0, "set_flexibility", p_set_kw=-1.0)
    b = ScenarioEvent.make(10.0, "slack_voltage_change", v_pu=1.01)
    assert schedule((a, b), 5.0, 10.0) == (a, b)


def test_unsorted_scenario_rejected():
    a = ScenarioEvent.make(10.0, "set_flexibility", p_set_kw=-1.0)
    b = ScenarioEvent.make(5.0, "set_flexibility", p_set_kw=-2.0)
    with pytest.raises(ScenarioError, match="sorted"):
        Scenario("x", 100.0, (a, b))


def test_negative_event_time_rejected():
    with pytest.raises(ScenarioError, match="negative"):
        ScenarioEvent.make(-1.0, "set_flexibility", p_set_kw=-1.0)


def test_unknown_kind_and_payload_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown event kind"):
        ScenarioEvent.make(0.0, "frequency_change", hz=50.0)
    with pytest.raises(ScenarioError, match="payload"):
        ScenarioEvent.make(0.0, "slack_voltage_change", volts=1.0)


def test_validate_scenario_against_devices(lab_net, lab_devices):
    bad = Scenario(
        "x", 100.0, (ScenarioEvent.make(0.0, "ev_charge_start", bus=5, p_kw=-1.0),)
    )
    with pytest.raises(ScenarioError, match="no EV charger"):
        validate_scenario(bad, lab_net, lab_devices)
    too_big = Scenario(
        "x", 100.0, (ScenarioEvent.make(0.0, "ev_charge_start", bus=3, p_kw=-20.0),)
    )
    with pytest.raises(ScenarioError, match="rating"):
        validate_scenario(too_big, lab_net, lab_devices)


# --- plant stepping ----------------------------------------------------------


def _bare_net():
    spec = NetworkSpec(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq")),
        branches=(Branch(1, 2, 0.03, 0.012),),
    )
    net = build_network(spec)
    return net, build_devices(spec, net)


def test_no_devices_flat_measurement():
    net, devices = _bare_net()
    plant = Plant(net, devices, PlantConfig())
    state = plant.initial_state(np.zeros(0))
    state, y = plant.step(state, np.zeros(0))
    np.testing.assert_allclose(y.v, 1.0, atol=1e-12)
    assert y.p_pcc == pytest.approx(0.0, abs=1e-12)
    assert y.timestamp == 0.0


def test_droop_absorbs_against_droop_free_oracle(lab_net, lab_devices):
    # push the droop bus above its deadband with heavy feed-in
    u = np.array([0.12, 0.0, 0.12, 0.0])
    with_droop, q, ok = steady_state_response(lab_net, lab_devices, u, slack_v=1.03)
    without, _, _ = steady_state_response(
        lab_net, lab_devices, u, slack_v=1.03, droop_enabled=False
    )
    assert ok
    assert q[0] < -1e-4  # absorbing
    row4 = lab_net.pq_row(4) + 1
    assert with_droop.v_mag[row4] < without.v_mag[row4]


def test_droop_disabled_equals_power_flow(lab_net, lab_devices):
    u = np.array([0.05, 0.01, -0.02, 0.0])
    sol, q, ok = steady_state_response(lab_net, lab_devices, u, droop_enabled=False)
    from flexloop.grid import add_setpoint_injections

    inj = add_setpoint_injections(base_injections(lab_net, lab_devices), lab_net, lab_devices, u)
    ref = solve_power_flow(lab_net, inj, 1.0)
    assert np.array_equal(sol.v_mag, ref.v_mag)
    assert sol.pcc_power_w == ref.pcc_power_w
    assert np.all(q == 0.0)


def test_droop_fixed_point_unique_from_multiple_starts(lab_net, lab_devices):
    u = np.array([0.1, 0.0, 0.05, 0.0])
    q_max = lab_devices.legacy[0].q_max_var / lab_net.s_base_va
    results = []
    for q0 in (np.array([0.0]), np.array([q_max]), np.array([-q_max])):
        _, q, ok = steady_state_response(lab_net, lab_devices, u, slack_v=1.04, droop_q0=q0)
        assert ok
        results.append(q[0])
    assert max(results) - min(results) < 1e-7


def test_plant_memoryless(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    u = np.array([0.05, 0.0, 0.05, 0.0])
    s1 = plant.initial_state(np.zeros(4))
    s2 = plant.initial_state(np.zeros(4))
    s1, y1 = plant.step(s1, u)
    s2, y2 = plant.step(s2, u)
    np.testing.assert_array_equal(y1.v, y2.v)
    assert y1.p_pcc == y2.p_pcc


def test_ev_event_jumps_pcc_before_control_reacts(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    u = np.zeros(4)
    state = plant.initial_state(u)
    for _ in range(3):
        state, y0 = plant.step(state, u)
    ev = ScenarioEvent.make(470.0, "ev_charge_start", bus=3, p_kw=-14.0)
    state, y1 = plant.step(state, u, (ev,))
    jump_kw = (y1.p_pcc - y0.p_pcc) * lab_net.s_base_va / 1e3
    assert jump_kw == pytest.approx(14.0, abs=0.2)  # import rises by the charge power


def test_ev_stop_restores(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    u = np.zeros(4)
    state = plant.initial_state(u)
    state, y0 = plant.step(state, u)
    state, _ = plant.step(state, u, (ScenarioEvent.make(5.0, "ev_charge_start", bus=3, p_kw=-10.0),))
    state, y2 = plant.step(state, u, (ScenarioEvent.make(10.0, "ev_charge_stop", bus=3),))
    assert y2.p_pcc == pytest.approx(y0.p_pcc, abs=1e-9)


def test_load_change_event(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    u = np.zeros(4)
    state = plant.initial_state(u)
    state, y0 = plant.step(state, u)
    ev = ScenarioEvent.make(5.0, "load_change", bus=3, p_kw=6.0, q_kvar=1.0)
    state, y1 = plant.step(state, u, (ev,))
    delta_kw = (y1.p_pcc - y0.p_pcc) * lab_net.s_base_va / 1e3
    assert delta_kw == pytest.approx(4.0, abs=0.1)  # load rose from 2 kW to 6 kW


def test_slack_voltage_event(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig(droop_enabled=False))
    u = np.zeros(4)
    state = plant.initial_state(u)
    state, y = plant.step(state, u, (ScenarioEvent.make(5.0, "slack_voltage_change", v_pu=1.048),))
    assert np.all(y.v > 1.04)


def test_actuation_delay_pipeline(lab_net, lab_devices):
    # delay d: command issued after sample k is applied at sample k+d
    for delay in (1, 2, 3):
        plant = Plant(lab_net, lab_devices, PlantConfig(actuation_delay=delay))
        state = plant.initial_state(np.zeros(4))
        u_cmd = np.array([0.1, 0.0, 0.0, 0.0])
        seen = []
        for _ in range(5):
            state, y = plant.step(state, u_cmd)
            seen.append(y.p_pcc < -0.05)  # export visible once applied
        assert seen == [k >= delay - 1 for k in range(5)]


def test_measurement_delay_buffer(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig(measurement_delay=1, droop_enabled=False))
    state = plant.initial_state(np.zeros(4))
    u = np.array([0.1, 0.0, 0.0, 0.0])
    state, y0 = plant.step(state, u)  # emits the pre-scenario resolve
    state, y1 = plant.step(state, u)
    assert y0.timestamp < y1.timestamp  # strictly increasing
    assert y0.p_pcc > -0.01  # old sample, feed-in not visible yet
    assert y1.p_pcc < -0.05


def test_timestamps_strictly_increasing(lab_net, lab_devices):
    for m in (0, 1, 2):
        plant = Plant(lab_net, lab_devices, PlantConfig(measurement_delay=m))
        state = plant.initial_state(np.zeros(4))
        stamps = []
        for _ in range(6):
            state, y = plant.step(state, np.zeros(4))
            stamps.append(y.timestamp)
        assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_noise_seeded_and_reproducible(lab_net, lab_devices):
    cfg = PlantConfig(noise_sigma=1e-3, seed=12)
    a = Plant(lab_net, lab_devices, cfg)
    b = Plant(lab_net, lab_devices, cfg)
    sa, sb = a.initial_state(np.zeros(4)), b.initial_state(np.zeros(4))
    _, ya = a.step(sa, np.zeros(4))
    _, yb = b.step(sb, np.zeros(4))
    np.testing.assert_array_equal(ya.v, yb.v)
    flat, _, _ = steady_state_response(lab_net, lab_devices, np.zeros(4))
    assert np.max(np.abs(ya.v - flat.v_mag[1:])) > 1e-5  # noise actually applied


def test_droop_nonconvergence_freezes_and_flags():
    # pathological curve: enormous gain over a hair-thin ramp oscillates
    spec = NetworkSpec(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq")),
        branches=(Branch(1, 2, 0.8, 0.8),),
        devices=(
            DroopInverter(bus=2, p_fixed_w=0.0, q_max_var=3e3,
                          v_db_lo=0.9999, v_db_hi=1.0001, v_lo=0.999, v_hi=1.001),
            Load(bus=2, p_w=2e3, q_var=0.0),
        ),
    )
    net = build_network(spec)
    devices = build_devices(spec, net)
    sol, q, ok = steady_state_response(net, devices, np.zeros(0), slack_v=1.02)
    assert not ok
    plant = Plant(net, devices, PlantConfig(slack_v0=1.02))
    state = plant.initial_state(np.zeros(0))
    state, y = plant.step(state, np.zeros(0))
    assert "droop_limit" in y.flags
    assert y.all_valid  # grid is still measurable


def test_power_flow_divergence_aborts(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    state = plant.initial_state(np.zeros(4))
    ev = ScenarioEvent.make(5.0, "load_change", bus=3, p_kw=5e4, q_kvar=0.0)
    with pytest.raises(PlantDivergedError):
        plant.step(state, np.zeros(4), (ev,))


def test_applied_setpoints_clipped_to_device_limits(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    state = plant.initial_state(np.zeros(4))
    wild = np.array([10.0, 10.0, -10.0, -10.0])  # far outside every box
    state, _ = plant.step(state, wild)
    state, _ = plant.step(state, wild)
    lb, ub = lab_devices.setpoint_bounds_pu(lab_net.s_base_va)
    assert np.all(state.applied >= lb) and np.all(state.applied <= ub)

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flexloop.controller import ControllerConfig
from flexloop.grid import (
    Branch,
    Bus,
    DeviceLimitError,
    DroopInverter,
    NetworkSpec,
    build_devices,
    build_network,
    droop_law,
    injections,
)
from flexloop.plant import (
    Plant,
    PlantConfig,
    PlantDivergedError,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    schedule,
    steady_state_response,
)
from flexloop.harness import run_closed_loop
from flexloop.powerflow import solve_power_flow

from conftest import make_hair_thin_ramp
from oracles import picard_droop_response, qv_droop


# --- droop curve -------------------------------------------------------------

KNEES = dict(v_db_lo=0.99, v_db_hi=1.01, v_lo=0.95, v_hi=1.05)


def _inverter_spec(**inverter):
    """Two-bus feeder with one legacy inverter at bus 2 (no P feed-in)."""
    return NetworkSpec(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq")),
        branches=(Branch(1, 2, 0.03, 0.012),),
        devices=(DroopInverter(bus=2, p_fixed_w=0.0, **inverter),),
    )


def _law(q_max, **knees):
    """The vectorised droop law of one inverter with ``q_max`` p.u. at the
    100 kVA base."""
    spec = _inverter_spec(q_max_var=q_max * 1e5, **knees)
    net = build_network(spec)
    return droop_law(net, build_devices(spec, net))


def _droop_free(devices):
    """``devices`` with every legacy inverter's Q range zeroed; P feed-in stays."""
    return replace(devices, legacy=tuple(replace(inv, q_max_var=0.0) for inv in devices.legacy))


def test_droop_zero_in_deadband():
    q, slope = _law(0.06, **KNEES).response(np.array([0.99, 1.0, 1.005, 1.01]))
    assert np.all(q == 0.0)
    assert np.all(slope == 0.0)


def test_droop_full_absorption_at_upper_knee():
    q, _ = _law(0.06, **KNEES).response(np.array([1.05, 1.08]))
    assert q == pytest.approx([-0.06, -0.06])  # clamped beyond the knee


def test_droop_half_output_midway():
    q, _ = _law(0.06, **KNEES).response(np.array([1.03, 0.97]))
    assert q == pytest.approx([-0.03, 0.03])


def test_droop_monotone_nonincreasing_and_continuous():
    knees = dict(v_db_lo=0.985, v_db_hi=1.015, v_lo=0.94, v_hi=1.06)
    grid_v = np.linspace(0.9, 1.1, 2001)
    q, _ = _law(0.08, **knees).response(grid_v)
    assert np.all(np.diff(q) <= 1e-12)
    assert np.max(np.abs(np.diff(q))) < 0.08 * (grid_v[1] - grid_v[0]) / (knees["v_hi"] - knees["v_db_hi"]) * 1.01
    inv = DroopInverter(bus=2, p_fixed_w=0.0, q_max_var=8e3, **knees)
    np.testing.assert_allclose(q, [qv_droop(inv, v, 1e5) for v in grid_v], rtol=0, atol=1e-15)


def test_droop_slope_matches_curve():
    law = _law(0.06, **KNEES)
    v = np.array([0.9, 0.97, 1.0, 1.03, 1.08])  # clamped, ramps, deadband
    fd = (law.response(v + 1e-6)[0] - law.response(v - 1e-6)[0]) / 2e-6
    _, slope = law.response(v)
    np.testing.assert_allclose(slope, fd, rtol=0, atol=1e-6)
    assert slope[3] == pytest.approx(-1.5)


def test_droop_curve_validation():
    # the law is built from validated devices only
    inverted_ramp = dict(v_db_lo=0.99, v_db_hi=1.06, v_lo=0.95, v_hi=1.05)
    for bad in (dict(q_max_var=-1e3, **KNEES), dict(q_max_var=1e3, **inverted_ramp)):
        spec = _inverter_spec(**bad)
        with pytest.raises(DeviceLimitError):
            build_devices(spec, build_network(spec))


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScenarioEvent.make(np.nan, "set_flexibility", p_set_kw=-1.0),
        lambda: ScenarioEvent.make(np.inf, "set_flexibility", p_set_kw=-1.0),
        lambda: ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=np.nan),
        lambda: ScenarioEvent.make(0.0, "load_change", bus=3, p_kw=np.inf, q_kvar=0.0),
        lambda: Scenario("x", np.nan, ()),
        lambda: Scenario("x", np.inf, ()),
    ],
    ids=["time-nan", "time-inf", "payload-nan", "payload-inf", "duration-nan", "duration-inf"],
)
def test_non_finite_scenario_numbers_rejected(make):
    with pytest.raises(ScenarioError, match="finite"):
        make()


def test_unknown_kind_and_payload_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown event kind"):
        ScenarioEvent.make(0.0, "frequency_change", hz=50.0)
    with pytest.raises(ScenarioError, match="payload"):
        ScenarioEvent.make(0.0, "slack_voltage_change", volts=1.0)


def test_validate_scenario_against_devices(lab_net, lab_devices, monkeypatch):
    cases = [
        (ScenarioEvent.make(0.0, "ev_charge_start", bus=5, p_kw=-1.0), "no EV charger at bus 5"),
        (ScenarioEvent.make(0.0, "ev_charge_stop", bus=4), "no EV charger at bus 4"),
        (ScenarioEvent.make(0.0, "ev_charge_start", bus=3, p_kw=-20.0),
         "EV power -20.0 kW exceeds charger rating at bus 3"),
        (ScenarioEvent.make(0.0, "load_change", bus=5, p_kw=1.0, q_kvar=0.0), "no load at bus 5"),
    ]
    plant = Plant(lab_net, lab_devices, PlantConfig())
    rest = plant.initial_state(np.zeros(4))
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    for event, message in cases:
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            plant.apply_events(rest, (event,))
    # the closed loop checks even a late event before its first sample
    monkeypatch.setattr(Plant, "step", lambda *args: pytest.fail("the plant was stepped"))
    for event, message in cases:
        late = Scenario("x", 100.0, (replace(event, time_s=90.0),))
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            run_closed_loop(lab_net, lab_devices, late, cfg, PlantConfig())


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
    without, _, _ = steady_state_response(lab_net, _droop_free(lab_devices), u, slack_v=1.03)
    assert ok
    assert q[0] < -1e-4  # absorbing
    row4 = lab_net.pq_row(4) + 1
    assert with_droop.v_mag[row4] < without.v_mag[row4]


def test_droop_disabled_equals_power_flow(lab_net, lab_devices):
    u = np.array([0.05, 0.01, -0.02, 0.0])
    sol, q, ok = steady_state_response(lab_net, _droop_free(lab_devices), u)
    inj = injections(lab_net, lab_devices, u)
    ref = solve_power_flow(lab_net, inj, 1.0)
    assert np.array_equal(sol.v_mag, ref.v_mag)
    assert sol.pcc_power_pu * lab_net.s_base_va == ref.pcc_power_pu * lab_net.s_base_va
    assert np.all(q == 0.0)


def test_droop_fixed_point_unique_from_multiple_starts(lab_net, lab_devices):
    u = np.array([0.1, 0.0, 0.05, 0.0])
    n = lab_net.n_buses
    results = []
    # flat, below the lower knee, beyond the upper knee, and angled
    for x0 in (None, (np.full(n, 0.93), np.zeros(n)), (np.full(n, 1.07), np.zeros(n)),
               (np.ones(n), np.linspace(0.0, -0.1, n))):
        _, q, ok = steady_state_response(lab_net, lab_devices, u, slack_v=1.04, x0=x0)
        assert ok
        results.append(q[0])
    assert max(results) - min(results) < 1e-7


def test_droop_warm_start_reaches_the_cold_fixed_point(lab_net, lab_devices, monkeypatch):
    import flexloop.plant as plant_module

    solve = plant_module.solve_power_flow
    starts = []

    def recording(*args, x0=None, droop=None):
        starts.append(x0)
        return solve(*args, x0=x0, droop=droop)

    monkeypatch.setattr(plant_module, "solve_power_flow", recording)
    prev, _, _ = steady_state_response(lab_net, lab_devices, np.array([0.02, 0.0, 0.0, 0.0]), slack_v=1.01)
    u = np.array([0.1, 0.0, 0.05, 0.0])
    x0 = (prev.v_mag, prev.v_ang)
    warm, q_warm, ok = steady_state_response(lab_net, lab_devices, u, slack_v=1.04, x0=x0)
    assert ok
    assert starts[1][0] is prev.v_mag
    cold, q_cold, ok = steady_state_response(lab_net, lab_devices, u, slack_v=1.04)
    assert ok
    assert starts[2] is None
    np.testing.assert_allclose(q_warm, q_cold, rtol=0, atol=1e-9)
    np.testing.assert_allclose(warm.v_mag, cold.v_mag, rtol=0, atol=1e-9)
    assert warm.pcc_power_pu == pytest.approx(cold.pcc_power_pu, abs=1e-9)

    # each plant sample starts from the previous sample's voltages
    plant = Plant(lab_net, lab_devices, PlantConfig())
    state = plant.initial_state(np.zeros(4))
    starts.clear()
    state, _ = plant.step(state, u)
    first = state.voltages
    state, _ = plant.step(state, u)
    assert starts[0] is None
    assert starts[1] is first


def test_inverters_sharing_a_bus_add_up(lab_net, lab_devices):
    # the lab feeder's inverter split into two halves on its bus
    inv = lab_devices.legacy[0]
    half = replace(inv, p_fixed_w=inv.p_fixed_w / 2, q_max_var=inv.q_max_var / 2)
    split = replace(lab_devices, legacy=(half, half))
    u = np.array([0.12, 0.0, 0.12, 0.0])  # on the upper ramp
    whole, q, _ = steady_state_response(lab_net, lab_devices, u, slack_v=1.03)
    halves, q_halves, _ = steady_state_response(lab_net, split, u, slack_v=1.03)
    np.testing.assert_allclose(halves.v_mag, whole.v_mag, rtol=0, atol=1e-12)
    np.testing.assert_allclose(q_halves, [q[0] / 2] * 2, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(slack_v=st.floats(0.95, 1.05), frac=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
# the inverter below its lower knee, on the lower ramp, in the deadband, on
# the upper ramp and beyond its upper knee
@example(slack_v=0.95, frac=[0.0, 0.0, 0.0, 0.0])
@example(slack_v=0.97, frac=[0.0, 0.0, 0.0, 0.0])
@example(slack_v=1.0, frac=[0.0, 0.5, 0.0, 0.5])
@example(slack_v=1.03, frac=[0.0, 0.0, 0.0, 0.0])
@example(slack_v=1.05, frac=[1.0, 1.0, 1.0, 1.0])
def test_droop_in_newton_matches_picard_fixed_point(lab_net, lab_devices, slack_v, frac):
    lb, ub = lab_devices.setpoint_bounds_pu(lab_net.s_base_va)
    u = lb + np.array(frac) * (ub - lb)
    sol, q, ok = steady_state_response(lab_net, lab_devices, u, slack_v=slack_v)
    assert ok
    # q = Q(V): the plain power flow with q held as a fixed injection
    inj = injections(lab_net, lab_devices, u)
    np.add.at(inj[:, 1], [lab_net.pq_row(inv.bus) for inv in lab_devices.legacy], q)
    held = solve_power_flow(lab_net, inj, slack_v)
    np.testing.assert_allclose(held.v_mag, sol.v_mag, rtol=0, atol=1e-9)
    ref = picard_droop_response(lab_net, lab_devices, u, slack_v)
    assert ref is not None
    np.testing.assert_allclose(q, ref[1], rtol=0, atol=1e-9)
    np.testing.assert_allclose(sol.v_mag, ref[0].v_mag, rtol=0, atol=1e-9)


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
    plant = Plant(lab_net, _droop_free(lab_devices), PlantConfig())
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
    plant = Plant(lab_net, _droop_free(lab_devices), PlantConfig(measurement_delay=1))
    state = plant.initial_state(np.zeros(4))
    u = np.array([0.1, 0.0, 0.0, 0.0])
    state, y0 = plant.step(state, u)  # emits the pre-scenario resolve
    state, y1 = plant.step(state, u)
    assert y0.timestamp < y1.timestamp  # strictly increasing
    assert y0.p_pcc > -0.01  # old sample, feed-in not visible yet
    assert y1.p_pcc < -0.05


def test_timestamps_strictly_increasing(lab_net, lab_devices):
    # sample k is at k * t_sample_s; with a measurement delay of m, step k
    # emits sample k - m, the primed copies first
    for a in (0, 1):
        for m in (0, 1, 2):
            plant = Plant(lab_net, lab_devices, PlantConfig(t_sample_s=2.5, actuation_delay=a, measurement_delay=m))
            state = plant.initial_state(np.zeros(4))
            stamps = []
            for k in range(6):
                state, y = plant.step(state, np.zeros(4))
                stamps.append(y.timestamp)
                if a == 0:
                    state, y_now = plant.apply_now(state, np.full(4, 0.01))
                    assert y_now.timestamp == (k - m) * 2.5
            assert stamps == [(k - m) * 2.5 for k in range(6)]


def test_every_measurement_draws_its_own_noise(lab_net, lab_devices):
    def noise(noisy, clean):
        return np.append(noisy.v - clean.v, noisy.p_pcc - clean.p_pcc)

    for a, m in ((1, 1), (1, 2), (0, 0)):
        cfg = PlantConfig(actuation_delay=a, measurement_delay=m)
        noisy = Plant(lab_net, lab_devices, replace(cfg, noise_sigma=1e-3, seed=3))
        clean = Plant(lab_net, lab_devices, cfg)
        sn, sc = noisy.initial_state(np.zeros(4)), clean.initial_state(np.zeros(4))
        draws = []  # the primed copies, every step and every re-solve
        for k in range(4):
            u = np.full(4, 0.01 * k)
            (sn, yn), (sc, yc) = noisy.step(sn, u), clean.step(sc, u)
            draws.append(noise(yn, yc))
            if a == 0:
                (sn, yn), (sc, yc) = noisy.apply_now(sn, u + 0.005), clean.apply_now(sc, u + 0.005)
                draws.append(noise(yn, yc))
        assert all(np.max(np.abs(d)) > 1e-5 for d in draws)
        for i in range(len(draws)):
            for j in range(i):
                assert np.max(np.abs(draws[i] - draws[j])) > 1e-6, (a, m, i, j)


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


def test_droop_hair_thin_ramp_converges():
    # enormous gain over a hair-thin ramp: a fixed-point iteration q <- Q(V(q))
    # oscillates here, one Newton solve with the droop in its mismatch does not
    net, devices = make_hair_thin_ramp()
    assert picard_droop_response(net, devices, np.zeros(0), 1.02, tol=1e-8, max_iter=50) is None
    sol, q, ok = steady_state_response(net, devices, np.zeros(0), slack_v=1.02)
    assert ok and sol.converged
    assert 0.0 < abs(q[0]) < 0.03  # on the ramp
    assert q[0] == pytest.approx(qv_droop(devices.legacy[0], sol.v_mag[1], net.s_base_va), abs=1e-12)
    inj = injections(net, devices, np.zeros(devices.n_setpoints))
    inj[0, 1] += q[0]
    np.testing.assert_allclose(solve_power_flow(net, inj, 1.02).v_mag, sol.v_mag, rtol=0, atol=1e-9)
    plant = Plant(net, devices, PlantConfig())
    state = plant.initial_state(np.zeros(0))
    state, y = plant.step(state, np.zeros(0), (ScenarioEvent.make(0.0, "slack_voltage_change", v_pu=1.02),))
    assert y.all_valid
    np.testing.assert_allclose(y.v, sol.v_mag[1:], rtol=0, atol=1e-9)


def test_power_flow_divergence_aborts(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    state = plant.initial_state(np.zeros(4))
    ev = ScenarioEvent.make(5.0, "load_change", bus=3, p_kw=5e4, q_kvar=0.0)
    with pytest.raises(PlantDivergedError):
        plant.step(state, np.zeros(4), (ev,))


def test_applied_setpoints_clipped_to_device_limits(lab_net, lab_devices):
    plant = Plant(lab_net, lab_devices, PlantConfig())
    wild = np.array([10.0, 10.0, -10.0, -10.0])  # far outside every box
    lb, ub = lab_devices.setpoint_bounds_pu(lab_net.s_base_va)
    measured = []
    for u in (wild, np.clip(wild, lb, ub)):
        state = plant.initial_state(u)
        state, _ = plant.step(state, u)
        state, y = plant.step(state, u)
        measured.append(y)
    np.testing.assert_array_equal(measured[0].v, measured[1].v)
    assert measured[0].p_pcc == measured[1].p_pcc


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_sample_s", np.nan),
        ("t_sample_s", np.inf),
        ("t_sample_s", 0.0),
        ("noise_sigma", np.nan),
        ("noise_sigma", np.inf),
        ("noise_sigma", -1e-3),
        ("actuation_delay", -1),
        ("seed", -1),
    ],
)
def test_plant_config_rejects_invalid_settings(field, value):
    PlantConfig(**{field: 1})  # the same field with a valid value
    with pytest.raises(ValueError):
        PlantConfig(**{field: value})

import warnings

import numpy as np
import pytest

import flexloop.harness
from flexloop.controller import ControllerConfig, InvalidMeasurementError, StepRecord, controller_step
from flexloop.grid import Branch, Bus, Fpu, NetworkSpec, build_devices, build_network, injections
from flexloop.harness import (
    InfeasibleRequestError,
    TelemetryLog,
    random_feeder,
    reference_opf,
    run_closed_loop,
    summarize,
)
from flexloop.plant import PlantConfig, Scenario, ScenarioEvent
from flexloop.sensitivity import compute_sensitivity

from oracles import cone_stationarity, slsqp_opf, time_to_recover, trailing_violation_counts


def _scenario(events, duration=200.0, name="test"):
    return Scenario(name, duration, tuple(events))


def test_no_events_fixed_point(lab_net, lab_devices):
    # target equal to the initial exchange: nothing to do
    from flexloop.plant import steady_state_response

    rest, _, _ = steady_state_response(lab_net, lab_devices, np.zeros(4))
    p0_kw = rest.pcc_power_pu * lab_net.s_base_va / 1e3
    scen = _scenario([ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=p0_kw)], 100.0)
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, scen, cfg, PlantConfig())
    err = np.abs(log.tracking_error_kw())
    assert np.max(err) < 5e-3
    u = log.setpoints_pu()
    assert np.max(np.abs(u)) < 5e-4  # stays essentially at rest


def test_exp_a_settles_fast_with_tiny_steady_error(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    kpi = summarize(log)
    assert kpi.settled and kpi.settling_iterations <= 10
    assert kpi.steady_state_error_kw < 0.01
    assert kpi.within_speed_requirement


def test_exp_b_recovers_after_ev_step(lab_net, lab_devices, exp_b):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_b, cfg, PlantConfig())
    err = np.abs(log.tracking_error_kw())
    times = log.times()
    at_event = np.argmin(np.abs(times - 470.0))
    assert err[at_event] > 10.0  # the charge step is visible before the reaction
    assert time_to_recover(log, 470.0) <= 10
    u = log.setpoints_pu()
    assert np.all(u >= log.u_min) and np.all(u <= log.u_max)


def test_controller_alarm_keeps_run_alive(lab_net, lab_devices):
    # an unreachable request saturates the devices; the loop must keep
    # logging best-effort steps rather than aborting
    scen = _scenario([ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=-60.0)], 100.0)
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, scen, cfg, PlantConfig())
    assert log.abort_reason is None
    assert len(log.records) == 21
    assert any(r.soft_fallback for r in log.records)
    u = log.setpoints_pu()
    assert np.all(u <= log.u_max + 1e-15)


def test_request_event_converts_units(lab_net, lab_devices):
    # the request is 0 p.u. until its first event, then each event's kW on
    # the network's base, from the sample at the event's time
    events = [ScenarioEvent.make(t, "set_flexibility", p_set_kw=kw) for t, kw in ((10.0, -14.5), (20.0, -2.0))]
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, _scenario(events, 30.0), cfg, PlantConfig())
    assert [r.p_set for r in log.records] == pytest.approx([0.0, 0.0, -0.145, -0.145, -0.02, -0.02, -0.02], abs=1e-15)


def test_plant_divergence_truncates_log(lab_net, lab_devices):
    scen = _scenario(
        [ScenarioEvent.make(20.0, "load_change", bus=3, p_kw=5e4, q_kvar=0.0)], 100.0
    )
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, scen, cfg, PlantConfig())
    assert log.abort_reason is not None
    assert 0 < len(log.records) < 21


def test_singular_jacobian_in_plant_truncates_log(lab_net, lab_devices, exp_a, monkeypatch):
    import flexloop.plant as plant_module
    from flexloop.powerflow import SingularJacobianError

    solve = plant_module.solve_power_flow
    calls = []

    def singular_later(*args, **kwargs):
        calls.append(None)
        if len(calls) > 10:
            raise SingularJacobianError("singular Jacobian at iteration 0")
        return solve(*args, **kwargs)

    monkeypatch.setattr(plant_module, "solve_power_flow", singular_later)
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    assert 0 < len(log.records) <= 10
    assert "singular Jacobian" in log.abort_reason


def test_exp_a_total_injection_and_split(lab_net, lab_devices, exp_a):
    # request plus local load plus losses: about 15.5 kW total feed-in,
    # split unevenly in favor of the unit electrically closer to the PCC
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    last = log.records[-1]
    p2_kw = last.u[0] * lab_net.s_base_va / 1e3
    p5_kw = last.u[2] * lab_net.s_base_va / 1e3
    assert p2_kw + p5_kw == pytest.approx(15.5, abs=1.0)
    assert p2_kw > p5_kw


def test_two_fpus_on_one_bus(lab_spec, exp_a):
    # the lab feeder with a second unit on bus 5: its own CSV columns, its
    # power summed onto the bus with every other device's, and a loop that
    # still settles
    second = Fpu(bus=5, p_min_w=-5e3, p_max_w=5e3, q_min_var=-3e3, q_max_var=3e3)
    spec = NetworkSpec(lab_spec.buses, lab_spec.branches, lab_spec.devices + (second,), lab_spec.s_base_va)
    net = build_network(spec)
    devices = build_devices(spec, net)
    assert devices.fpu_buses == (2, 5, 5)

    rng = np.random.default_rng(0)
    u = rng.uniform(*devices.setpoint_bounds_pu(net.s_base_va))
    loads_pu = rng.uniform(0.0, 0.05, (len(devices.loads), 2))
    ev_pu = -rng.uniform(0.0, 0.1, len(devices.ev_points))
    expected = np.zeros((len(net.pq_ids), 2))
    for load, pq in zip(devices.loads, loads_pu):
        expected[net.pq_row(load.bus)] -= pq
    for inv in devices.legacy:
        expected[net.pq_row(inv.bus), 0] += inv.p_fixed_w / net.s_base_va
    for ev, p in zip(devices.ev_points, ev_pu):
        expected[net.pq_row(ev.bus), 0] += p
    for i, f in enumerate(devices.controllables):
        expected[net.pq_row(f.bus)] += u[2 * i:2 * i + 2]
    inj = injections(net, devices, u, loads_pu=loads_pu, ev_pu=ev_pu)
    np.testing.assert_allclose(inj, expected, rtol=0, atol=1e-15)

    log = run_closed_loop(net, devices, exp_a, ControllerConfig.for_network(net, devices), PlantConfig())
    header = log.to_csv().split("\n", 1)[0].split(",")
    assert {"fpu5_p_kw", "fpu5_q_kvar", "fpu5_2_p_kw", "fpu5_2_q_kvar"} <= set(header)
    kpi = summarize(log)
    assert kpi.settled and kpi.settling_iterations <= 10
    assert kpi.steady_state_error_kw < 1e-6


def test_converged_loop_satisfies_plant_kkt(lab_net, lab_devices, exp_a):
    # when the loop converges, its limit satisfies the dispatch problem's
    # KKT conditions with the primal side (voltages, PCC power, active set)
    # taken from the true plant; feasibility against the real system is
    # what the measurement feedback buys
    from flexloop.plant import steady_state_response

    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    u_tail = log.setpoints_pu()[-6:]
    assert np.max(np.abs(np.diff(u_tail, axis=0))) < 1e-9  # converged

    u = log.records[-1].u
    lb, ub = lab_devices.setpoint_bounds_pu(lab_net.s_base_va)
    sol, _, _ = steady_state_response(lab_net, lab_devices, u, slack_v=1.048)
    v, pcc = sol.v_mag[1:], sol.pcc_power_pu

    # primal side exact against the real grid
    assert abs(pcc - (-0.145)) < 1e-6
    assert np.all(v <= log.v_max + 1e-6) and np.all(v >= log.v_min - 1e-6)

    # stationarity with the constraint geometry the problem was posed with
    sens = compute_sensitivity(lab_net, lab_devices, np.zeros(4))
    stat, binding = cone_stationarity(u, v, sens.dv, sens.dpcc, lb, ub, log.v_min, log.v_max)
    assert stat < 1e-4
    assert binding  # the band genuinely shapes this operating point


def test_monotone_tracking_without_disturbance(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    err = np.abs(log.tracking_error_kw())
    times = log.times()
    # after the request lands and no further disturbance: |err| non-increasing
    start = int(np.argmin(np.abs(times - 15.0)))
    tail = err[start:]
    assert np.all(np.diff(tail) <= 1e-9)


def test_reproducibility_hash_equal(lab_net, lab_devices, exp_b):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    plant_cfg = PlantConfig(noise_sigma=5e-4, seed=123)
    a = run_closed_loop(lab_net, lab_devices, exp_b, cfg, plant_cfg)
    b = run_closed_loop(lab_net, lab_devices, exp_b, cfg, plant_cfg)
    assert a.csv_hash() == b.csv_hash()
    c = run_closed_loop(lab_net, lab_devices, exp_b, cfg, PlantConfig(noise_sigma=5e-4, seed=124))
    assert c.csv_hash() != a.csv_hash()


def test_transient_excursions_decay_after_disturbance(lab_net, lab_devices):
    # slack jump while heavily exporting: one-sample excursions above the
    # band that the controller pulls back
    events = [
        ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=-14.5),
        ScenarioEvent.make(100.0, "slack_voltage_change", v_pu=1.048),
    ]
    scen = _scenario(events, 300.0)
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, scen, cfg, PlantConfig(actuation_delay=1))
    oob = log.out_of_band()
    assert np.any(oob)  # the disturbance does push voltages out briefly
    v = log.voltages_pu()
    assert np.max(v - log.v_max) < 0.01  # excursions stay small
    counts = trailing_violation_counts(log, window=10, after_s=100.0)
    peak = int(np.argmax(counts))
    assert np.all(np.diff(counts[peak:]) <= 0)  # decays after the peak
    assert counts[-1] == 0  # and fully recovered


def test_summarize_did_not_settle(lab_net, lab_devices):
    scen = _scenario([ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=-60.0)], 100.0)
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, scen, cfg, PlantConfig())
    kpi = summarize(log)
    assert not kpi.settled
    assert kpi.settling_time_s is None
    assert "did not settle" in kpi.render()


def test_summarize_settling_within_50s(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    kpi = summarize(log)
    assert kpi.settling_time_s <= 50.0
    assert kpi.within_speed_requirement  # well under the 2 minute bound


def test_summarize_violation_directly():
    # hand-built log with a single 0.001 p.u. excursion
    def rec(i, v):
        return StepRecord(
            timestamp=5.0 * i, u=np.zeros(2), v=np.array([v]),
            p_pcc=0.0, p_set=0.0, qp_status="optimal", eq_slack=0.0,
            active_mask=0, soft_fallback=False, alarm=False,
        )

    log = TelemetryLog(
        records=tuple(rec(i, 1.051 if i == 3 else 1.0) for i in range(6)),
        t_sample_s=5.0,
        s_base_va=1e5, fpu_buses=(2,), monitored=(2,), v_bases=(400.0,),
        v_min=np.array([0.95]), v_max=np.array([1.05]),
        u_min=np.array([-1.0, -1.0]), u_max=np.array([1.0, 1.0]),
    )
    kpi = summarize(log)
    assert kpi.max_violation_pu == pytest.approx(0.001, abs=1e-12)
    assert kpi.violation_samples == 1


def test_summarize_needs_a_full_settling_window():
    # 50 kW off target on samples 0-29, on target only on the last sample:
    # one good sample at the end of the log is no settling
    def rec(i, err_pu):
        return StepRecord(
            timestamp=5.0 * i, u=np.zeros(2), v=np.array([1.0]),
            p_pcc=err_pu, p_set=0.0, qp_status="optimal", eq_slack=0.0,
            active_mask=0, soft_fallback=False, alarm=False,
        )

    log = TelemetryLog(
        records=tuple(rec(i, 0.5 if i < 30 else 0.0) for i in range(31)),
        t_sample_s=5.0,
        s_base_va=1e5, fpu_buses=(2,), monitored=(2,), v_bases=(400.0,),
        v_min=np.array([0.95]), v_max=np.array([1.05]),
        u_min=np.array([-1.0, -1.0]), u_max=np.array([1.0, 1.0]),
    )
    kpi = summarize(log)
    assert kpi.steady_state_error_kw == pytest.approx(50.0)
    assert not kpi.settled and kpi.settling_time_s is None
    assert "did not settle" in kpi.render()


def test_energy_contributions(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    kpi = summarize(log)
    energy = dict(kpi.energy_kwh)
    assert energy["fpu2"] > energy["fpu5"] > 0


# --- reference OPF -----------------------------------------------------------


def test_opf_trivial_no_loads():
    spec = NetworkSpec(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq")),
        branches=(Branch(1, 2, 0.03, 0.012),),
        devices=(Fpu(bus=2, p_min_w=-10e3, p_max_w=10e3, q_min_var=-8e3, q_max_var=8e3),),
    )
    net = build_network(spec)
    devices = build_devices(spec, net)
    res = reference_opf(net, devices, p_set_pu=0.0)
    assert res.phi == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.u, 0.0, atol=1e-8)


def test_opf_single_fpu_export_analytic():
    # tiny impedance: losses negligible, so the export lands on P alone
    spec = NetworkSpec(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq")),
        branches=(Branch(1, 2, 0.0016, 0.00064),),
        devices=(Fpu(bus=2, p_min_w=-10e3, p_max_w=10e3, q_min_var=-8e3, q_max_var=8e3),),
    )
    net = build_network(spec)
    devices = build_devices(spec, net)
    export = 0.06
    res = reference_opf(net, devices, p_set_pu=-export)
    assert res.u[0] == pytest.approx(export, abs=1e-4)
    assert res.u[1] == pytest.approx(0.0, abs=1e-4)
    assert res.phi == pytest.approx(export**2, rel=1e-2)


def test_opf_matches_closed_loop_on_exp_a(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    phi_loop = float(np.sum(log.records[-1].u ** 2))
    res = reference_opf(lab_net, lab_devices, p_set_pu=-0.145, slack_v=1.048)
    assert res.stationarity < 1e-7
    assert abs(phi_loop - res.phi) / res.phi < 0.01

    # the final projection step's certificate agrees with the cone distance
    # over the limits a tolerance scan finds binding at the returned point
    from flexloop.grid import droop_law
    from flexloop.plant import steady_state_response
    from flexloop.sensitivity import linearize

    sol, _, _ = steady_state_response(lab_net, lab_devices, res.u, slack_v=1.048)
    dv, dpcc = linearize(lab_net, lab_devices, sol, droop_law(lab_net, lab_devices))
    lb, ub = lab_devices.setpoint_bounds_pu(lab_net.s_base_va)
    stat, binding = cone_stationarity(res.u, sol.v_mag[1:], dv, dpcc, lb, ub, cfg.v_min, cfg.v_max)
    assert res.binding == binding == ("v_max@row3",)
    assert stat < 1e-7


def test_opf_infeasible_reports_closest_and_binding(lab_net, lab_devices):
    with pytest.raises(InfeasibleRequestError) as exc:
        reference_opf(lab_net, lab_devices, p_set_pu=-0.60)
    err = exc.value
    # both P caps bind; the closest attainable exchange is the full export
    # (30 kW of capability less the local load and losses)
    assert err.binding == ("u_max[0]", "u_max[2]")
    assert err.closest_pu == pytest.approx(-0.287, abs=0.01)
    assert "unreachable" in str(err)
    assert "closest attainable -28.722 kW" in str(err)


@pytest.mark.parametrize(
    "p_set_pu",
    [np.nan, -np.inf, 2e3, [-0.1], None, "tenth", np.complex128(-0.1)],
    ids=["nan", "-inf", "2000.0", "list", "none", "string", "numpy-complex"],
)
def test_opf_rejects_unphysical_request_before_any_power_flow(lab_net, lab_devices, monkeypatch, p_set_pu):
    # a request that is not a real number is coerced to NaN, as the
    # controller step does; a list used to raise TypeError from abs()
    def refuse(*args, **kwargs):
        raise AssertionError("power flow run for an unphysical request")

    monkeypatch.setattr(flexloop.harness, "steady_state_response", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMeasurementError, match="PCC power request must be finite and within 1000 p.u."):
            reference_opf(lab_net, lab_devices, p_set_pu=p_set_pu)


def test_opf_checks_the_given_band(lab_net, lab_devices):
    # at exp_a's slack voltage of 1.048 p.u. a 4.5 % band caps bus 2 (row 0)
    # below the slack, so exp_a's export is out of reach; the default 5 %
    # band reaches it
    with pytest.raises(InfeasibleRequestError) as exc:
        reference_opf(lab_net, lab_devices, p_set_pu=-0.145, band=0.045, slack_v=1.048)
    assert exc.value.binding == ("v_max@row0", "u_min[0]")
    assert reference_opf(lab_net, lab_devices, p_set_pu=-0.145, slack_v=1.048).binding == ("v_max@row3",)


@pytest.mark.parametrize(
    "case",
    [("feeder", seed) for seed in range(5)] + [("lab", 1.0), ("lab", 1.048)],
    ids=lambda c: f"{c[0]}{c[1]}",
)
def test_opf_matches_independent_slsqp(case, lab_net, lab_devices):
    # a second algorithm on the same exact plant response: the best of
    # SLSQP's three starts reaches the one descent's feed-in
    kind, arg = case
    if kind == "feeder":
        net, devices, p_set_kw = random_feeder(arg)
        p_set_pu, slack_v = p_set_kw * 1e3 / net.s_base_va, 1.0
    else:
        net, devices, p_set_pu, slack_v = lab_net, lab_devices, -0.145, arg
    res = reference_opf(net, devices, p_set_pu=p_set_pu, slack_v=slack_v)
    ref = slsqp_opf(net, devices, p_set_pu, slack_v=slack_v)
    assert ref is not None
    assert res.phi == pytest.approx(ref[0], rel=1e-6)


def test_closest_attainable_keeps_its_closest_iterate(lab_net, lab_devices, monkeypatch):
    # the certificate's first step reaches -0.287215 p.u.; later steps on a
    # stale linearization drift away, so it must stop and keep the closest
    import flexloop.harness as harness
    import flexloop.qp as qp

    calls = []
    solve_qp = qp.solve_qp
    certificate = harness._closest_attainable

    def counting_certificate(*args):
        def counting_solve(problem):
            calls.append(1)
            return solve_qp(problem)

        monkeypatch.setattr(qp, "solve_qp", counting_solve)
        try:
            return certificate(*args)
        finally:
            monkeypatch.setattr(qp, "solve_qp", solve_qp)

    monkeypatch.setattr(harness, "_closest_attainable", counting_certificate)
    with pytest.raises(InfeasibleRequestError) as exc:
        reference_opf(lab_net, lab_devices, p_set_pu=-0.60)
    assert 0 < len(calls) < 150
    assert exc.value.closest_pu < -0.28721


def test_oracle_descent_linearizes_at_every_step(lab_net, lab_devices, monkeypatch):
    # each projection step is posed at a fresh linearization, so there is at
    # least one linearization per QP
    import flexloop.harness as harness
    import flexloop.qp as qp

    calls = {"linearize": 0, "solve_qp": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(harness, "linearize")
    counting(qp, "solve_qp")
    reference_opf(lab_net, lab_devices, p_set_pu=-0.145)
    assert calls["solve_qp"] > 0
    assert calls["linearize"] >= calls["solve_qp"]


def test_random_feeders_deterministic():
    a = random_feeder(3)
    b = random_feeder(3)
    assert a[0] == b[0]
    assert a[2] == b[2]


def test_csv_columns_and_shape(lab_net, lab_devices, exp_a):
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    log = run_closed_loop(lab_net, lab_devices, exp_a, cfg, PlantConfig())
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert len(lines) == len(log.records) + 1
    header = lines[0].split(",")
    assert header == list(log.column_names())
    assert "fpu2_p_kw" in header and "v5_v" in header and "p_pcc_kw" in header
    # one record per sample, monotone timestamps
    times = log.times()
    assert np.all(np.diff(times) == 5.0)


# The ten (seed, request) pairs of random_feeder seeds 0-39 whose requests
# {own, 0, +50, -50, 3x own} kW froze with held_max_iter: all out of reach.
_FROZE = [(4, "3x"), (5, -50.0), (5, "3x"), (16, 50.0), (16, -50.0), (16, "3x"), (18, "3x"), (30, "3x"),
          (36, 50.0), (36, -50.0)]


@pytest.mark.parametrize("seed, request_kw", _FROZE, ids=[f"seed{s}-{r}" for s, r in _FROZE])
def test_out_of_reach_request_saturates_instead_of_freezing(seed, request_kw):
    net, devices, own_kw = random_feeder(seed)
    p_set_kw = 3.0 * own_kw if request_kw == "3x" else request_kw
    scen = _scenario([ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=p_set_kw)], 150.0)
    log = run_closed_loop(net, devices, scen, ControllerConfig.for_network(net, devices), PlantConfig())
    assert not [r.qp_status for r in log.records if r.qp_status.startswith("held")]
    assert log.records[-1].soft_fallback


def test_warm_started_loop_matches_cold_starts(lab_net, lab_devices, exp_a, monkeypatch):
    # exp_a at -40 kW, beyond the feeder's reach: the soft stage runs on
    # nearly every sample and each sample starts from the previous active
    # set. Starting every sample cold gives the same telemetry.
    events = tuple(e for e in exp_a.events if e.kind != "set_flexibility")
    scenario = _scenario(events + (ScenarioEvent.make(10.0, "set_flexibility", p_set_kw=-40.0),), 300.0)
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    warm = run_closed_loop(lab_net, lab_devices, scenario, cfg, PlantConfig()).to_csv()
    cold_step = lambda u, y, p_set, c, warm_start=0: controller_step(u, y, p_set, c)
    monkeypatch.setattr(flexloop.harness, "controller_step", cold_step)
    cold = run_closed_loop(lab_net, lab_devices, scenario, cfg, PlantConfig()).to_csv()
    warm_rows = [line.split(",") for line in warm.splitlines()]
    cold_rows = [line.split(",") for line in cold.splitlines()]
    assert warm_rows[0] == cold_rows[0] and len(warm_rows) == len(cold_rows) == 62
    assert all(row[-4] != "0" for row in warm_rows[1:])  # every sample has an active set to start from
    for a, b in zip(warm_rows[1:], cold_rows[1:]):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if x != y:  # only a float cell may differ, and only by round-off
                assert isinstance(_cell(x), float) and abs(float(x) - float(y)) <= 1e-11


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text

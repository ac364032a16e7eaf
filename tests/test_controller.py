from dataclasses import replace

import numpy as np
import pytest

from flexloop.controller import (
    ControllerConfig,
    InvalidMeasurementError,
    Measurement,
    assemble_projection_qp,
    controller_step,
    objective_gradient,
    set_flexibility_request,
)
from flexloop.qp import solve_qp
from flexloop.sensitivity import compute_sensitivity


def test_gradient_at_origin():
    np.testing.assert_array_equal(objective_gradient(np.zeros(4)), np.zeros(4))


def test_gradient_analytic():
    u = np.array([1.0, 2.0, -0.5, 0.0])
    np.testing.assert_allclose(objective_gradient(u), [2.0, 4.0, -1.0, 0.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    phi = lambda u: float(np.sum(u * u))
    for _ in range(5):
        u = rng.uniform(-1, 1, 6)
        g = objective_gradient(u)
        h = 1e-6
        for j in range(6):
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            fd = (phi(up) - phi(um)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-7)


def _cfg(lab_net, lab_devices, sens, **kw):
    return ControllerConfig.for_network(lab_net, lab_devices, sensitivity=sens, **kw)


@pytest.fixture(scope="module")
def sens(lab_net, lab_devices):
    return compute_sensitivity(lab_net, lab_devices, np.zeros(4))


def _measurement(cfg, v=1.0, p_pcc=0.0, t=0.0):
    v_arr = np.full(len(cfg.monitored), v) if np.isscalar(v) else np.asarray(v)
    return Measurement.make(v_arr, cfg.monitored, p_pcc, t)


def test_fixed_point_yields_zero_direction(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=0.0)
    y = _measurement(cfg, v=1.0, p_pcc=0.0)
    qp = assemble_projection_qp(np.zeros(4), y, cfg)
    sol = solve_qp(qp)
    np.testing.assert_allclose(sol.w, 0.0, atol=1e-10)


def test_tracking_gap_closed_in_one_linearized_step(lab_net, lab_devices, sens):
    # deadbeat configuration: full correction per step, wide limits
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=0.0, tracking_gain=1.0)
    delta = 0.08  # measured PCC power above the target
    y = _measurement(cfg, v=1.0, p_pcc=cfg.p_set_pu + delta)
    u = np.zeros(4)
    qp = assemble_projection_qp(u, y, cfg)
    sol = solve_qp(qp)
    s = sens.dpcc
    assert float(s @ sol.w) == pytest.approx(-delta / cfg.alpha, rel=1e-9)
    # least-norm solution of the single equality: w parallel to s
    expected = s * (-delta / cfg.alpha) / float(s @ s)
    np.testing.assert_allclose(sol.w, expected, atol=1e-9)


def test_damped_tracking_closes_fraction(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=0.0)
    delta = 0.08
    y = _measurement(cfg, v=1.0, p_pcc=cfg.p_set_pu + delta)
    qp = assemble_projection_qp(np.zeros(4), y, cfg)
    sol = solve_qp(qp)
    assert float(sens.dpcc @ sol.w) == pytest.approx(
        -cfg.tracking_gain * delta / cfg.alpha, rel=1e-9
    )


def test_voltage_row_binds_at_band_edge(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=-14.5, tracking_gain=1.0)
    v = np.array([1.02, 1.02, 1.02, cfg.v_max[3]])  # bus 5 exactly at the cap
    y = _measurement(cfg, v=v, p_pcc=0.0)
    qp = assemble_projection_qp(np.zeros(4), y, cfg)
    sol = solve_qp(qp)
    labels = qp.row_labels()
    assert any(labels[i] == "in[3]:hi" for i in sol.active_set)
    # projected voltage movement at the capped bus is non-positive
    assert float(sens.dv[3] @ sol.w) <= 1e-9


def test_controller_step_fixed_point(lab_net, lab_devices, sens):
    # stationary point: u on the tracking manifold, gradient balanced by the
    # equality multiplier, voltages interior
    s = sens.dpcc
    u_star = s * (-0.1) / float(s @ s)
    cfg = _cfg(lab_net, lab_devices, sens, tracking_gain=1.0)
    cfg = set_flexibility_request(cfg, -10.0)
    y = _measurement(cfg, v=1.0, p_pcc=cfg.p_set_pu)
    u_next, rec = controller_step(u_star, y, cfg)
    np.testing.assert_allclose(u_next, u_star, atol=1e-9)
    assert not rec.alarm


def test_box_binding_blocks_further_increase(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=-40.0)
    u = np.array([cfg.u_max[0], 0.0, 0.0, 0.0])  # first FPU at its P cap
    y = _measurement(cfg, v=1.0, p_pcc=-0.1)
    u_next, rec = controller_step(u, y, cfg)
    assert u_next[0] <= cfg.u_max[0] + 1e-15
    assert not rec.alarm


def test_emitted_setpoints_respect_boxes_exactly(lab_net, lab_devices, sens):
    rng = np.random.default_rng(4)
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=-30.0)
    u = np.zeros(4)
    for k in range(20):
        v = 1.0 + rng.uniform(-0.06, 0.06, 4)
        y = _measurement(cfg, v=v, p_pcc=rng.uniform(-0.4, 0.4), t=float(k))
        u, rec = controller_step(u, y, cfg)
        assert np.all(u >= cfg.u_min) and np.all(u <= cfg.u_max)  # zero tolerance


def test_invalid_measurement_holds_with_alarm(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    y = _measurement(cfg, v=1.0, p_pcc=0.0)
    y_bad = Measurement(
        v=y.v, bus_ids=y.bus_ids, p_pcc=y.p_pcc, timestamp=y.timestamp,
        v_valid=np.array([True, False, True, True]), pcc_valid=True,
    )
    u_next, rec = controller_step(u, y_bad, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"
    with pytest.raises(InvalidMeasurementError):
        assemble_projection_qp(u, y_bad, cfg)


@pytest.mark.parametrize(
    "v_bad, p_pcc",
    [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)],
    ids=["nan-voltage", "inf-voltage", "nan-pcc", "inf-pcc"],
)
def test_non_finite_measurement_holds_with_alarm(lab_net, lab_devices, sens, v_bad, p_pcc):
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=-10.0)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    y = _measurement(cfg, v=np.array([1.0, v_bad, 1.0, 1.0]), p_pcc=p_pcc)
    # a directly built measurement may flag a non-finite channel as valid
    flagged_valid = replace(y, v_valid=np.ones(4, dtype=bool), pcc_valid=True)
    for meas in (y, flagged_valid):
        u_next, rec = controller_step(u, meas, cfg)
        np.testing.assert_array_equal(u_next, u)
        assert rec.alarm
        assert rec.qp_status == "held_invalid_measurement"


@pytest.mark.parametrize(
    "u", [np.zeros(3), np.array([0.01, np.nan, 0.0, 0.0])], ids=["wrong-shape", "nan-entry"]
)
def test_invalid_setpoints_hold_with_alarm(lab_net, lab_devices, sens, u):
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=-10.0)
    u_next, rec = controller_step(u, _measurement(cfg, v=1.0, p_pcc=0.0), cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_setpoints"


@pytest.mark.parametrize(
    "bus_ids, n_v", [((2, 3, 4, 9), 4), ((2, 3, 4, 5), 3)], ids=["bus-id", "length"]
)
def test_mismatched_measurement_holds_with_alarm(lab_net, lab_devices, sens, bus_ids, n_v):
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    u_next, rec = controller_step(u, Measurement.make(np.ones(n_v), bus_ids, 0.0, 0.0), cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"


def test_infeasible_projection_holds_with_alarm(lab_net, lab_devices, sens):
    # band so tight around a violated measurement that no direction fixes it
    cfg = _cfg(lab_net, lab_devices, sens, band=0.0001, max_step_pu=1e-6)
    v = np.full(4, 1.01)
    y = _measurement(cfg, v=v, p_pcc=0.0)
    u = np.zeros(4)
    u_next, rec = controller_step(u, y, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_infeasible"


def test_per_step_saturation_limits_applied(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens, p_set_kw=-14.5, max_step_pu=0.01)
    y = _measurement(cfg, v=1.0, p_pcc=0.0)
    u_next, rec = controller_step(np.zeros(4), y, cfg)
    assert np.max(np.abs(u_next)) <= 0.01 + 1e-12
    assert rec.soft_fallback  # the full correction does not fit in one step


def test_set_flexibility_request_converts_units(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    assert set_flexibility_request(cfg, -14.5).p_set_pu == pytest.approx(-0.145)
    assert set_flexibility_request(cfg, -2.0).p_set_pu == pytest.approx(-0.02)
    # origin is optimal for a zero request with nothing to serve
    cfg0 = set_flexibility_request(cfg, 0.0)
    y = _measurement(cfg0, v=1.0, p_pcc=0.0)
    u_next, _ = controller_step(np.zeros(4), y, cfg0)
    np.testing.assert_allclose(u_next, 0.0, atol=1e-12)


def test_measurement_bus_mismatch_rejected(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    y = Measurement.make(np.ones(4), (2, 3, 4, 9), 0.0, 0.0)
    with pytest.raises(InvalidMeasurementError, match="monitored"):
        assemble_projection_qp(np.zeros(4), y, cfg)


def test_config_validation(lab_net, lab_devices, sens):
    with pytest.raises(ValueError, match="alpha"):
        _cfg(lab_net, lab_devices, sens, alpha=0.0)
    with pytest.raises(ValueError, match="tracking gain"):
        _cfg(lab_net, lab_devices, sens, tracking_gain=1.5)

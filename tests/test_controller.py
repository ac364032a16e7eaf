import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexloop.controller import (
    MAX_MEASURED_PU,
    ControllerConfig,
    InvalidMeasurementError,
    Measurement,
    assemble_projection_qp,
    controller_step,
    objective_gradient,
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
    return Measurement(v_arr, cfg.monitored, p_pcc, t)


def test_fixed_point_yields_zero_direction(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    y = _measurement(cfg, v=1.0, p_pcc=0.0)
    qp = assemble_projection_qp(np.zeros(4), y, 0.0, cfg)
    sol = solve_qp(qp)
    np.testing.assert_allclose(sol.w, 0.0, atol=1e-10)


def test_tracking_gap_closed_in_one_linearized_step(lab_net, lab_devices, sens):
    # deadbeat configuration: full correction per step, wide limits
    cfg = _cfg(lab_net, lab_devices, sens, tracking_gain=1.0)
    delta = 0.08  # measured PCC power above the target
    y = _measurement(cfg, v=1.0, p_pcc=delta)
    u = np.zeros(4)
    qp = assemble_projection_qp(u, y, 0.0, cfg)
    sol = solve_qp(qp)
    s = sens.dpcc
    assert float(s @ sol.w) == pytest.approx(-delta / cfg.alpha, rel=1e-9)
    # least-norm solution of the single equality: w parallel to s
    expected = s * (-delta / cfg.alpha) / float(s @ s)
    np.testing.assert_allclose(sol.w, expected, atol=1e-9)


def test_damped_tracking_closes_fraction(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    delta = 0.08
    y = _measurement(cfg, v=1.0, p_pcc=delta)
    qp = assemble_projection_qp(np.zeros(4), y, 0.0, cfg)
    sol = solve_qp(qp)
    assert float(sens.dpcc @ sol.w) == pytest.approx(
        -cfg.tracking_gain * delta / cfg.alpha, rel=1e-9
    )


def test_voltage_row_binds_at_band_edge(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens, tracking_gain=1.0)
    v = np.array([1.02, 1.02, 1.02, cfg.v_max[3]])  # bus 5 exactly at the cap
    y = _measurement(cfg, v=v, p_pcc=0.0)
    qp = assemble_projection_qp(np.zeros(4), y, -0.145, cfg)
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
    y = _measurement(cfg, v=1.0, p_pcc=-0.1)
    u_next, rec = controller_step(u_star, y, -0.1, cfg)
    np.testing.assert_allclose(u_next, u_star, atol=1e-9)
    assert not rec.alarm


def test_box_binding_blocks_further_increase(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([cfg.u_max[0], 0.0, 0.0, 0.0])  # first FPU at its P cap
    y = _measurement(cfg, v=1.0, p_pcc=-0.1)
    u_next, rec = controller_step(u, y, -0.4, cfg)
    assert u_next[0] <= cfg.u_max[0] + 1e-15
    assert not rec.alarm


def test_emitted_setpoints_respect_boxes_exactly(lab_net, lab_devices, sens):
    rng = np.random.default_rng(4)
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.zeros(4)
    for k in range(20):
        v = 1.0 + rng.uniform(-0.06, 0.06, 4)
        y = _measurement(cfg, v=v, p_pcc=rng.uniform(-0.4, 0.4), t=float(k))
        u, rec = controller_step(u, y, -0.3, cfg)
        assert np.all(u >= cfg.u_min) and np.all(u <= cfg.u_max)  # zero tolerance


def test_measurement_built_from_lists_steps_as_from_arrays(lab_net, lab_devices, sens):
    # a list voltage vector used to raise AttributeError inside controller_step
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    v = [1.01, 1.02, 1.0, 1.03]
    y_list = Measurement(v=v, bus_ids=list(cfg.monitored), p_pcc=0, timestamp=5)
    y_array = Measurement(v=np.array(v), bus_ids=cfg.monitored, p_pcc=0.0, timestamp=5.0)
    np.testing.assert_array_equal(y_list.v, y_array.v)
    assert y_list.bus_ids == cfg.monitored
    assert isinstance(y_list.p_pcc, float) and isinstance(y_list.timestamp, float)
    (u_list, rec_list), (u_array, rec_array) = (controller_step(u, y, -0.1, cfg) for y in (y_list, y_array))
    assert rec_list.qp_status == rec_array.qp_status == "optimal"
    np.testing.assert_array_equal(u_list, u_array)


def test_invalid_measurement_holds_with_alarm(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    # a dropout is a NaN channel
    y_bad = Measurement(
        v=np.array([1.0, np.nan, 1.0, 1.0]), bus_ids=cfg.monitored, p_pcc=0.0, timestamp=0.0,
    )
    assert not y_bad.all_valid
    u_next, rec = controller_step(u, y_bad, 0.0, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"
    with pytest.raises(InvalidMeasurementError):
        assemble_projection_qp(u, y_bad, 0.0, cfg)


@pytest.mark.parametrize(
    "v_bad, p_pcc",
    [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)],
    ids=["nan-voltage", "inf-voltage", "nan-pcc", "inf-pcc"],
)
def test_non_finite_measurement_holds_with_alarm(lab_net, lab_devices, sens, v_bad, p_pcc):
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    y = _measurement(cfg, v=np.array([1.0, v_bad, 1.0, 1.0]), p_pcc=p_pcc)
    assert not y.all_valid
    u_next, rec = controller_step(u, y, -0.1, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_timestamp_holds_with_alarm(lab_net, lab_devices, sens, t):
    # a timestamp must be finite; its order is not checked
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    y = _measurement(cfg, t=t)
    assert not y.all_valid
    u_next, rec = controller_step(u, y, -0.1, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"


@pytest.mark.parametrize(
    "v, p_pcc",
    [(np.ones(4), np.complex128(0.0)), (np.ones(4, dtype=complex), 0.0), (np.ones(4), 1 + 0j)],
    ids=["numpy-complex-pcc", "complex-voltages", "complex-pcc"],
)
def test_complex_measurement_raises_type_error(lab_net, v, p_pcc):
    # NumPy's complex values used to pass with a ComplexWarning, their
    # imaginary part dropped; each raises as Python's complex does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            Measurement(v, lab_net.pq_ids, p_pcc, 0.0)


@pytest.mark.parametrize(
    "v_bad, p_pcc",
    [(1e300, 0.0), (-2e3, 0.0), (1.0, 1e300), (1.0, -2e3)],
    ids=["huge-voltage", "negative-voltage", "huge-pcc", "negative-pcc"],
)
def test_unphysical_measurement_holds_with_alarm(lab_net, lab_devices, sens, v_bad, p_pcc):
    # finite but beyond MAX_MEASURED_PU: held before any QP is built, so no
    # overflow can reach the solver
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    y = _measurement(cfg, v=np.array([1.0, v_bad, 1.0, 1.0]), p_pcc=p_pcc)
    assert not y.all_valid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_next, rec = controller_step(u, y, -0.1, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"
    # the bound itself is a valid reading
    assert _measurement(cfg, v=MAX_MEASURED_PU, p_pcc=-MAX_MEASURED_PU).all_valid


# requests that are not real numbers: each used to raise, or (complex) to
# step with a ComplexWarning
_NON_REAL = {
    "list": [-0.1], "2-vector": np.array([-0.1, 0.0]), "none": None, "complex": 1 + 0j, "string": "tenth",
    "numpy-complex": np.complex128(-0.1),
}


@pytest.mark.parametrize(
    "p_set",
    [np.nan, -np.inf, 1e308, -2e3, *_NON_REAL.values()],
    ids=["nan", "-inf", "huge", "negative", *_NON_REAL],
)
def test_invalid_request_holds_with_alarm(lab_net, lab_devices, sens, p_set):
    # the request used to be checked when a config was built; it is a
    # per-sample input now, held by the same rule as a measured channel
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_next, rec = controller_step(u, _measurement(cfg, v=1.0, p_pcc=0.0), p_set, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"
    if isinstance(p_set, float):
        with pytest.raises(InvalidMeasurementError, match="PCC power request"):
            assemble_projection_qp(u, _measurement(cfg), p_set, cfg)
    else:
        assert np.isnan(rec.p_set)  # not a real number: recorded as NaN
    # the bound itself is a valid request
    assert not controller_step(u, _measurement(cfg), -MAX_MEASURED_PU, cfg)[1].qp_status.startswith("held_invalid")


def test_numeric_string_request_steps_like_its_number(lab_net, lab_devices, sens):
    # float() coerces the request, as Measurement coerces the PCC power
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    u_str, rec = controller_step(u, _measurement(cfg), "-0.1", cfg)
    np.testing.assert_array_equal(u_str, controller_step(u, _measurement(cfg), -0.1, cfg)[0])
    assert rec.p_set == -0.1 and rec.qp_status == "optimal"


@pytest.mark.parametrize(
    "u",
    [np.zeros(3), np.array([0.01, np.nan, 0.0, 0.0]), np.full(4, 1e308), np.zeros(4, dtype=complex),
     np.array([1e-3 + 1j, 0.0, 0.0, 0.0]), [0.01, 0.0, 0.02 + 0j, 0.0]],
    ids=["wrong-shape", "nan-entry", "huge-entry", "complex-zeros", "complex-entry", "list-with-complex"],
)
def test_invalid_setpoints_hold_with_alarm(lab_net, lab_devices, sens, u):
    # 1e308 used to overflow objective_gradient, leak a RuntimeWarning and
    # raise from the QP's sample check; complex setpoints used to step on
    # their real part with a ComplexWarning
    cfg = _cfg(lab_net, lab_devices, sens)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_next, rec = controller_step(u, _measurement(cfg, v=1.0, p_pcc=0.0), -0.1, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_setpoints"


def test_setpoints_outside_the_box_are_pulled_in(lab_net, lab_devices, sens):
    # a run starts at zero setpoints, which lie outside a box with p_min > 0:
    # that is no reason to hold, the projection pulls them in
    cfg = replace(_cfg(lab_net, lab_devices, sens), u_min=np.array([0.02, -0.1, 0.02, -0.1]))
    u_next, rec = controller_step(np.zeros(4), _measurement(cfg, v=1.0, p_pcc=0.0), -0.1, cfg)
    assert rec.qp_status == "optimal" and not rec.alarm
    assert np.all(cfg.u_min <= u_next) and np.all(u_next <= cfg.u_max)


def test_config_without_sensitivity_holds_with_alarm(lab_net, lab_devices):
    # for_network's default carries no sensitivity; the step used to raise
    cfg = ControllerConfig.for_network(lab_net, lab_devices)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    u_next, rec = controller_step(u, _measurement(cfg, v=1.0, p_pcc=0.0), -0.1, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_config"


@pytest.mark.parametrize(
    "bus_ids, n_v", [((2, 3, 4, 9), 4), ((2, 3, 4, 5), 3)], ids=["bus-id", "length"]
)
def test_mismatched_measurement_holds_with_alarm(lab_net, lab_devices, sens, bus_ids, n_v):
    cfg = _cfg(lab_net, lab_devices, sens)
    u = np.array([0.01, 0.0, 0.02, 0.0])
    u_next, rec = controller_step(u, Measurement(np.ones(n_v), bus_ids, 0.0, 0.0), 0.0, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_invalid_measurement"


def test_infeasible_projection_holds_with_alarm(lab_net, lab_devices, sens):
    # a violated band and pinned boxes: no direction fixes the voltages
    u = np.zeros(4)
    cfg = replace(_cfg(lab_net, lab_devices, sens, band=0.0001), u_min=u, u_max=u)
    v = np.full(4, 1.01)
    y = _measurement(cfg, v=v, p_pcc=0.0)
    u_next, rec = controller_step(u, y, 0.0, cfg)
    np.testing.assert_array_equal(u_next, u)
    assert rec.alarm
    assert rec.qp_status == "held_infeasible"


def test_measurement_bus_mismatch_rejected(lab_net, lab_devices, sens):
    cfg = _cfg(lab_net, lab_devices, sens)
    y = Measurement(np.ones(4), (2, 3, 4, 9), 0.0, 0.0)
    with pytest.raises(InvalidMeasurementError, match="monitored"):
        assemble_projection_qp(np.zeros(4), y, 0.0, cfg)


def test_config_validation(lab_net, lab_devices, sens):
    with pytest.raises(ValueError, match="alpha"):
        _cfg(lab_net, lab_devices, sens, alpha=0.0)
    with pytest.raises(ValueError, match="tracking gain"):
        _cfg(lab_net, lab_devices, sens, tracking_gain=1.5)
    cfg = _cfg(lab_net, lab_devices, sens)
    with pytest.raises(ValueError, match="box is empty"):
        replace(cfg, u_min=cfg.u_max + 1.0)
    assert replace(cfg, alpha=MAX_MEASURED_PU).alpha == MAX_MEASURED_PU  # the cap itself is a valid step


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", np.nan),
        ("alpha", np.inf),
        ("rho", np.nan),
        ("rho", np.inf),
        ("v_min", np.nan),
        ("v_min", -np.inf),
        ("v_max", np.nan),
        ("v_max", np.inf),
        ("u_min", np.nan),
        ("u_max", np.nan),
        # each used to build, then make the first controller_step raise
        # (sensitivity) or hold every sample (alpha)
        ("alpha", 1e50),
        ("alpha", 1e200),
        ("dv", np.nan),
        ("dv", np.inf),
        ("dpcc", np.nan),
        ("dpcc", -np.inf),
    ],
)
def test_config_rejects_non_finite_settings(lab_net, lab_devices, sens, field, value):
    cfg = _cfg(lab_net, lab_devices, sens)
    if field in ("v_min", "v_max", "u_min", "u_max"):
        value = np.full_like(getattr(cfg, field), value)
    if field in ("dv", "dpcc"):
        entries = getattr(sens, field).copy()
        entries.flat[1] = value
        field, value = "sensitivity", replace(sens, **{field: entries})
    with pytest.raises(ValueError):
        replace(cfg, **{field: value})


@pytest.mark.parametrize(
    "change",
    [
        lambda cfg: {"sensitivity": replace(cfg.sensitivity, dv=cfg.sensitivity.dv[:3])},
        lambda cfg: {"sensitivity": replace(cfg.sensitivity, dv=cfg.sensitivity.dv[:, :3])},
        lambda cfg: {"sensitivity": replace(cfg.sensitivity, dpcc=cfg.sensitivity.dpcc[:3])},
        lambda cfg: {"v_min": cfg.v_min[:3], "v_max": cfg.v_max[:3]},
        lambda cfg: {"u_max": cfg.u_max[:3]},
    ],
    ids=["dv_rows", "dv_columns", "dpcc", "band", "box"],
)
def test_config_rejects_mismatched_shapes(lab_net, lab_devices, sens, change):
    # each mismatch used to build, then raise inside controller_step
    cfg = _cfg(lab_net, lab_devices, sens)
    with pytest.raises(ValueError, match="sensitivity|band"):
        replace(cfg, **change(cfg))


_EXTREMES = (np.nan, np.inf, -np.inf, 1e308, -1e308, MAX_MEASURED_PU, -MAX_MEASURED_PU)
_RESHAPES = {
    "u_short": lambda u, v, b: (u[:3], v, b),
    "u_2x2": lambda u, v, b: (np.reshape(u, (2, 2)), v, b),
    "v_short": lambda u, v, b: (u, v[:3], b),
    "v_2x2": lambda u, v, b: (u, np.reshape(v, (2, 2)), b),
    "bus_ids": lambda u, v, b: (u, v, b[:3] + (99,)),
}


@pytest.fixture(scope="module")
def configs(lab_net, lab_devices, sens):
    """The lab config with the true sensitivity scaled, and without one."""
    scaled = [replace(sens, dv=sens.dv * k, dpcc=sens.dpcc * k) for k in (1.0, 0.5, 1.5)]
    return [_cfg(lab_net, lab_devices, s) for s in scaled + [None]]


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, 3),
    u=st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4),
    v=st.lists(st.floats(0.96, 1.04), min_size=4, max_size=4),
    inputs=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    faults=st.lists(st.tuples(st.integers(0, 10), st.sampled_from(_EXTREMES)), max_size=2),
    reshape=st.none() | st.sampled_from(sorted(_RESHAPES)),
    as_lists=st.booleans(),
    warm_start=st.integers(0, 2**17 - 1),
    non_real=st.none() | st.sampled_from(sorted(_NON_REAL)),
    imag=st.none() | st.sampled_from([0.0, 1.0]),
)
def test_property_controller_step_holds_or_stays_in_the_box(
    configs, which, u, v, inputs, faults, reshape, as_lists, warm_start, non_real, imag
):
    # Clean inputs with faults drawn into them: an extreme value (NaN,
    # +/-inf, +/-1e308 or the bound itself) in any of the ten channels
    # (four setpoints, four voltages, the PCC power and the request) or the
    # timestamp, a wrong shape, a foreign bus, complex setpoints (a zero or
    # a unit imaginary part on the first entry) or a request that is not a
    # real number; a config may have no sensitivity.
    cfg = configs[which]
    channels = u + v + list(inputs) + [0.0]
    for i, x in faults:
        channels[i] = x
    u, v, bus_ids = channels[:4], channels[4:8], cfg.monitored
    if imag is not None:
        u = [complex(x) for x in u]
        u[0] += imag * 1j
    if reshape:
        u, v, bus_ids = _RESHAPES[reshape](u, v, bus_ids)
    if not as_lists:
        u, v = np.array(u), np.array(v)
    y = Measurement(v, bus_ids, channels[8], channels[10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_next, rec = controller_step(u, y, channels[9] if non_real is None else _NON_REAL[non_real], cfg, warm_start)

    u = np.asarray(u)
    valid = (cfg.sensitivity is not None and reshape is None and non_real is None and imag is None
             and np.all(np.abs(channels[:10]) <= MAX_MEASURED_PU) and np.isfinite(channels[10]))
    assert rec.qp_status.startswith("held_invalid") != valid
    assert rec.alarm == rec.qp_status.startswith("held_")
    if rec.alarm:
        np.testing.assert_array_equal(u_next, u)
    else:
        assert np.all(cfg.u_min <= u_next) and np.all(u_next <= cfg.u_max)  # zero tolerance

import warnings

import pytest

from flexloop.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_exp_a_writes_outputs(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "--scenario", "exp_a_14p5kw", "--out", str(tmp_path)
    )
    assert code == 0
    assert err == ""
    csv = (tmp_path / "telemetry.csv").read_text().strip().split("\n")
    header = csv[0].split(",")
    i_pcc = header.index("p_pcc_kw")
    i_set = header.index("p_set_kw")
    for row in csv[-10:]:
        cells = row.split(",")
        assert abs(float(cells[i_pcc]) - float(cells[i_set])) < 0.01
    kpi = (tmp_path / "kpi.txt").read_text()
    assert "settling_time" in kpi
    assert "did not settle" not in kpi


def test_run_empty_scenario_zero_error(tmp_path, capsys):
    # 100 s: settled at 10 s, and the log holds a full SETTLE_PERSIST window
    # after that (a 50 s log ends 9 samples later)
    scn = tmp_path / "idle.scn"
    scn.write_text("format: 1\nname: idle\nduration_s: 100\n\n[events]\n")
    code, out, err = run_cli(capsys, "--scenario", str(scn), "--out", str(tmp_path))
    assert code == 0
    kpi = (tmp_path / "kpi.txt").read_text()
    assert "did not settle" not in kpi
    csv = (tmp_path / "telemetry.csv").read_text().strip().split("\n")
    header = csv[0].split(",")
    i_pcc = header.index("p_pcc_kw")
    i_set = header.index("p_set_kw")
    for row in csv[1:]:
        cells = row.split(",")
        assert abs(float(cells[i_pcc]) - float(cells[i_set])) < 1.5  # idle import only


ORACLE_FIELDS = ("phi_closed_loop", "phi_oracle", "relative_gap", "oracle_stationarity", "oracle_binding")


def oracle_fields(tmp_path, capsys, scenario):
    """Every line of ``oracle.txt`` as a name -> value dict, in file order."""
    code, out, err = run_cli(
        capsys, "--mode", "compare-oracle", "--scenario", scenario,
        "--out", str(tmp_path),
    )
    assert code == 0
    text = (tmp_path / "oracle.txt").read_text()
    fields = dict(line.split(": ", 1) for line in text.strip().split("\n"))
    assert tuple(fields) == ORACLE_FIELDS
    return fields


def test_compare_oracle_writes_gap(tmp_path, capsys):
    fields = oracle_fields(tmp_path, capsys, "exp_a_14p5kw")
    assert abs(float(fields["relative_gap"])) < 0.01
    assert float(fields["oracle_stationarity"]) < 1e-7
    assert fields["oracle_binding"] == "v_max@row3"


def test_compare_oracle_sees_end_of_scenario_disturbances(tmp_path, capsys):
    # exp_b ends with a 14 kW EV charging; an oracle that solved the grid
    # without it would report a relative gap of about 30
    fields = oracle_fields(tmp_path, capsys, "exp_b_ev_disturbance")
    assert abs(float(fields["relative_gap"])) < 0.01
    assert float(fields["oracle_stationarity"]) < 1e-7
    assert fields["oracle_binding"] == "none"


def test_compare_oracle_checks_the_runs_band(tmp_path, capsys):
    # the oracle poses the loop's own band: at 4.5 % exp_a's request is out
    # of its reach
    code, out, err = run_cli(
        capsys, "--mode", "compare-oracle", "--scenario", "exp_a_14p5kw", "--band", "0.045",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert err == (
        "error: requested PCC power -14.500 kW unreachable; closest attainable 1.019 kW, "
        "binding limits: v_max@row0, u_min[0]\n"
    )


def test_sweep_alpha_settling_non_increasing_until_unstable(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "--mode", "sweep-alpha", "--scenario", "exp_a_14p5kw",
        "--alpha", "0.1,0.3,0.6", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "alpha_sweep.txt").read_text().strip().split("\n")[1:]
    iters = []
    for line in lines:
        alpha, settled, it = line.split(",")
        if settled == "1":
            iters.append(int(it))
    assert len(iters) >= 2  # the stable prefix of the sweep
    assert all(b <= a for a, b in zip(iters, iters[1:]))


def test_missing_scenario_is_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--scenario", "no_such", "--out", str(tmp_path))
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ")


def test_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("format: 1\n[buses]\n1 abc slack\n")
    code, out, err = run_cli(
        capsys, "--network", str(bad), "--scenario", "exp_a_14p5kw", "--out", str(tmp_path)
    )
    assert code == 1
    assert "bad.net:3" in err
    assert err.count("\n") == 1


def test_network_without_pq_bus_is_input_error(tmp_path, capsys):
    net = tmp_path / "one.net"
    net.write_text("format: 1\ns_base_kva: 100\n\n[buses]\n1 400 slack\n\n[branches]\n\n[devices]\n")
    # 100 s: settled at 10 s, and the log holds a full SETTLE_PERSIST window
    # after that (a 50 s log ends 9 samples later)
    scn = tmp_path / "idle.scn"
    scn.write_text("format: 1\nname: idle\nduration_s: 100\n\n[events]\n")
    code, out, err = run_cli(
        capsys, "--network", str(net), "--scenario", str(scn), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "needs a PQ bus" in err


def test_cancelling_parallel_branches_are_input_error(tmp_path, capsys):
    net = tmp_path / "par.net"
    net.write_text("format: 1\n[buses]\n1 400 slack\n2 400 pq\n[branches]\n1 2 0 0.01\n1 2 0 -0.01\n")
    code, out, err = run_cli(
        capsys, "--network", str(net), "--scenario", "exp_a_14p5kw", "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert err == "error: buses unreachable from slack side: [2]\n"


_NET = "format: 1\n[buses]\n1 400 slack\n2 400 pq\n[branches]\n1 2 0.03 0.012\n[devices]\n"
_SCN = "format: 1\nname: x\nduration_s: 50\n[events]\n"


@pytest.mark.parametrize(
    "net_text, scn_text, where",
    [
        (_NET + "fpu 2 p_min_kw=0 p_max_kw=nan q_min_kvar=-1 q_max_kvar=1\n", _SCN, "n.net:8"),
        (_NET + "load 2 p_kw=nan\n", _SCN, "n.net:8"),
        (_NET + "load 2 p_kw=1\n", _SCN + "10 load_change bus=2 p_kw=inf q_kvar=0\n", "s.scn:5"),
        (_NET, "format: 1\nname: x\nduration_s: nan\n[events]\n", "s.scn:3"),
        (_NET, _SCN + "10 set_flexibility p_set_kw=nan\n", "s.scn:5"),
    ],
    ids=["fpu-limit", "load-power", "load-change", "duration", "request"],
)
def test_non_finite_number_is_one_line_input_error(tmp_path, capsys, net_text, scn_text, where):
    (tmp_path / "n.net").write_text(net_text)
    (tmp_path / "s.scn").write_text(scn_text)
    code, out, err = run_cli(
        capsys, "--network", str(tmp_path / "n.net"), "--scenario", str(tmp_path / "s.scn"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert where in err and "bad number" in err


@pytest.mark.parametrize(
    "net_text, scn_text, message",
    [
        # the charger is on bus 2, which bus=2.5 used to be truncated to
        (_NET + "ev 2 max_kw=11\n", _SCN + "10 ev_charge_start bus=2.5 p_kw=-5\n",
         "s.scn:5: event 'ev_charge_start' bus must be an integer, got 2.5"),
        (_NET + "load 2 p_kw=1 p_kw=2\n", _SCN, "n.net:8: repeated key 'p_kw' for load"),
        (_NET, "format: 1\nname: x\nduration_s: 50\nduration_s: 60\n[events]\n",
         "s.scn:4: repeated header key 'duration_s'"),
        ("format: 1\n[buses]\n1 -400 slack\n", _SCN, "n.net:3: bus 1: nonpositive nominal voltage"),
    ],
    ids=["fractional-event-bus", "repeated-key", "repeated-header", "bus"],
)
def test_malformed_row_is_one_line_input_error(tmp_path, capsys, net_text, scn_text, message):
    (tmp_path / "n.net").write_text(net_text)
    (tmp_path / "s.scn").write_text(scn_text)
    code, out, err = run_cli(
        capsys, "--network", str(tmp_path / "n.net"), "--scenario", str(tmp_path / "s.scn"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert err.endswith(message + "\n")


@pytest.mark.parametrize(
    "event, message",
    [
        ("10 ev_charge_start bus=2 p_kw=-5", "no EV charger at bus 2"),
        ("10 load_change bus=2 p_kw=1 q_kvar=0", "no load at bus 2"),
    ],
    ids=["charge-without-charger", "load-change-without-load"],
)
def test_event_without_its_device_is_input_error(tmp_path, capsys, event, message):
    (tmp_path / "n.net").write_text(_NET + "fpu 2 p_min_kw=0 p_max_kw=5 q_min_kvar=-1 q_max_kvar=1\n")
    (tmp_path / "s.scn").write_text(_SCN + event + "\n")
    code, out, err = run_cli(
        capsys, "--network", str(tmp_path / "n.net"), "--scenario", str(tmp_path / "s.scn"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out" / "telemetry.csv").exists()


@pytest.mark.parametrize("mode", ["run", "compare-oracle"])
@pytest.mark.parametrize("p_set_kw", ["1e300", "1e8"])
def test_absurd_request_is_input_error(tmp_path, capsys, mode, p_set_kw):
    # beyond MAX_MEASURED_PU (1e3 p.u., 1e5 kW on this base): 1e300 kW used
    # to leak an overflow warning and hold, 1e8 kW to hold every sample
    (tmp_path / "n.net").write_text(_NET + "fpu 2 p_min_kw=0 p_max_kw=5 q_min_kvar=-1 q_max_kvar=1\n")
    (tmp_path / "s.scn").write_text(_SCN + f"10 set_flexibility p_set_kw={p_set_kw}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "--mode", mode, "--network", str(tmp_path / "n.net"), "--scenario", str(tmp_path / "s.scn"),
            "--out", str(tmp_path / "out"),
        )
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: set_flexibility at 10 s: PCC power request must be finite and within 1000 p.u.")
    assert not (tmp_path / "out" / "telemetry.csv").exists()


@pytest.mark.parametrize("mode", ["run", "compare-oracle", "sweep-alpha"])
def test_huge_duration_is_input_error(tmp_path, capsys, mode):
    # 2e299 samples used to append records until the run was killed
    (tmp_path / "s.scn").write_text("format: 1\nname: x\nduration_s: 1e300\n[events]\n")
    code, out, err = run_cli(
        capsys, "--mode", mode, "--scenario", str(tmp_path / "s.scn"), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert err == "error: scenario duration 1e+300 s exceeds 1000000 samples of 5 s\n"
    assert not (tmp_path / "out" / "telemetry.csv").exists()


def test_bad_argument_is_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--mode", "fly", "--scenario", "exp_a_14p5kw")
    assert code == 1
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rho", "-1"),
        ("--band", "-0.5"),
        ("--actuation-delay", "-1"),
        ("--band", "nan"),
        ("--alpha", "nan"),
        ("--alpha", "1e200"),  # used to run, every sample held with overflow warnings
        ("--noise-sigma", "nan"),
        ("--seed", "-1"),
    ],
)
def test_invalid_setting_is_one_line_input_error(tmp_path, capsys, flag, value):
    code, out, err = run_cli(
        capsys, "--scenario", "exp_a_14p5kw", flag, value, "--out", str(tmp_path)
    )
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())  # checked before anything ran


def test_diverging_scenario_is_runtime_error(tmp_path, capsys):
    scn = tmp_path / "boom.scn"
    scn.write_text(
        "format: 1\nname: boom\nduration_s: 50\n\n[events]\n"
        "10 load_change bus=3 p_kw=50000 q_kvar=0\n"
    )
    code, out, err = run_cli(capsys, "--scenario", str(scn), "--out", str(tmp_path))
    assert code == 2
    assert err.count("\n") == 1


def test_absurd_noise_holds_every_sample_without_warnings(tmp_path, capsys):
    # finite readings of ~1e300 p.u. are unphysical: each sample holds with
    # an alarm before a QP is built, and the run still succeeds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "--scenario", "exp_a_14p5kw", "--noise-sigma", "1e300", "--out", str(tmp_path)
        )
    assert code == 0
    assert err == ""
    rows = [ln.split(",") for ln in (tmp_path / "telemetry.csv").read_text().strip().split("\n")]
    i_status, i_alarm = rows[0].index("qp_status"), rows[0].index("alarm")
    assert len(rows) > 1
    assert all(r[i_status] == "held_invalid_measurement" and r[i_alarm] == "1" for r in rows[1:])


def test_singular_plant_power_flow_is_runtime_error(tmp_path, capsys, monkeypatch):
    import flexloop.plant as plant_module
    from flexloop.powerflow import SingularJacobianError

    def singular(*args, **kwargs):
        raise SingularJacobianError("singular Jacobian at iteration 0")

    # fails at the first sample: the telemetry has its header only, no KPIs
    monkeypatch.setattr(plant_module, "solve_power_flow", singular)
    code, out, err = run_cli(capsys, "--scenario", "exp_a_14p5kw", "--out", str(tmp_path))
    assert code == 2
    assert err.count("\n") == 1
    assert "singular Jacobian" in err
    assert (tmp_path / "telemetry.csv").read_text().count("\n") == 1
    assert not (tmp_path / "kpi.txt").exists()


@pytest.mark.parametrize("failing_call", [1, 11])
def test_sweep_alpha_abort_is_runtime_error(tmp_path, capsys, monkeypatch, failing_call):
    import flexloop.plant as plant_module
    from flexloop.powerflow import SingularJacobianError

    solve = plant_module.solve_power_flow
    calls = []

    def singular_from(*args, **kwargs):
        calls.append(None)
        if len(calls) >= failing_call:
            raise SingularJacobianError("singular Jacobian at iteration 0")
        return solve(*args, **kwargs)

    # aborted at the first sample, and later: no alpha is scored from a truncated log
    monkeypatch.setattr(plant_module, "solve_power_flow", singular_from)
    code, out, err = run_cli(
        capsys, "--mode", "sweep-alpha", "--scenario", "exp_a_14p5kw", "--alpha", "0.3", "--out", str(tmp_path)
    )
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("error: scenario aborted: ")
    assert "Traceback" not in err
    assert not (tmp_path / "alpha_sweep.txt").exists()


def test_output_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLEXLOOP_OUT", str(tmp_path / "envdir"))
    code, out, err = run_cli(capsys, "--scenario", "exp_a_14p5kw")
    assert code == 0
    assert (tmp_path / "envdir" / "telemetry.csv").exists()


def test_alpha_override(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "--scenario", "exp_a_14p5kw", "--alpha", "0.2", "--out", str(tmp_path)
    )
    assert code == 0
    code2, _, _ = run_cli(
        capsys, "--scenario", "exp_a_14p5kw", "--alpha", "-1", "--out", str(tmp_path)
    )
    assert code2 == 1


def test_rho_and_seed_flags(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "--scenario", "exp_a_14p5kw", "--rho", "1e5", "--seed", "3",
        "--out", str(tmp_path),
    )
    assert code == 0


def test_csv_columns_identical_across_modes(tmp_path, capsys):
    run_cli(capsys, "--scenario", "exp_a_14p5kw", "--out", str(tmp_path / "a"))
    run_cli(
        capsys, "--mode", "compare-oracle", "--scenario", "exp_a_14p5kw",
        "--out", str(tmp_path / "b"),
    )
    head_a = (tmp_path / "a" / "telemetry.csv").read_text().split("\n", 1)[0]
    head_b = (tmp_path / "b" / "telemetry.csv").read_text().split("\n", 1)[0]
    assert head_a == head_b

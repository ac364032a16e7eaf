from pathlib import Path

import pytest

from flexloop.fileio import (
    ParseError,
    parse_network_file,
    parse_network_text,
    parse_scenario_file,
    parse_scenario_text,
    serialize_network,
    serialize_scenario,
)
from flexloop.grid import DroopInverter, Fpu, Load, build_devices, build_network

DATA = Path(__file__).parent.parent / "src" / "flexloop" / "data"


def test_bundled_feeder_parses(lab_spec):
    assert len(lab_spec.buses) == 5
    assert len(lab_spec.branches) == 4
    assert lab_spec.s_base_va == 100e3
    net = build_network(lab_spec)
    devices = build_devices(lab_spec, net)
    assert len(devices.controllables) == 2
    assert len(devices.legacy) == 1
    assert len(devices.loads) == 2
    assert len(devices.ev_points) == 1


def test_bundled_files_are_canonical():
    for name in ("lv_feeder_5bus.net",):
        text = (DATA / name).read_text()
        assert serialize_network(parse_network_text(text, name)) == text
    for name in ("exp_a_14p5kw.scn", "exp_b_ev_disturbance.scn"):
        text = (DATA / name).read_text()
        assert serialize_scenario(parse_scenario_text(text, name)) == text


def test_network_round_trip_identity(lab_spec):
    assert parse_network_text(serialize_network(lab_spec)) == lab_spec


def test_scenario_round_trip_identity(exp_a, exp_b):
    assert parse_scenario_text(serialize_scenario(exp_a)) == exp_a
    assert parse_scenario_text(serialize_scenario(exp_b)) == exp_b


def test_units_are_kw_at_the_boundary(lab_spec):
    fpus = [d for d in lab_spec.devices if isinstance(d, Fpu)]
    assert fpus[0].p_max_w == 15e3  # 15 kW in the file
    loads = [d for d in lab_spec.devices if isinstance(d, Load)]
    assert loads[0].p_w == 2e3
    text = serialize_network(lab_spec)
    assert "p_max_kw=15" in text
    assert "p.u." not in text


def test_absent_droop_knees_take_the_device_defaults():
    text = "format: 1\n[buses]\n1 400 slack\n2 400 pq\n[devices]\ndroop 2 p_kw=2 q_max_kvar=6 v_hi=1.06\n"
    (inv,) = parse_network_text(text).devices
    default = DroopInverter(bus=2, p_fixed_w=2e3, q_max_var=6e3)
    assert (inv.v_db_lo, inv.v_db_hi, inv.v_lo) == (default.v_db_lo, default.v_db_hi, default.v_lo)
    assert inv.v_hi == 1.06


def test_missing_format_header():
    with pytest.raises(ParseError, match="format"):
        parse_network_text("[buses]\n1 400 slack\n", "x.net")


def test_unknown_section_with_line_number():
    with pytest.raises(ParseError, match=r"x\.net:2: unknown section"):
        parse_network_text("format: 1\n[wires]\n", "x.net")


def test_bad_number_names_field_and_line():
    text = "format: 1\n[buses]\n1 abc slack\n"
    with pytest.raises(ParseError, match=r"x\.net:3: bad number 'abc' for field v_nominal_v"):
        parse_network_text(text, "x.net")


def test_unknown_device_key_rejected():
    text = "format: 1\n[buses]\n1 400 slack\n2 400 pq\n[devices]\nfpu 2 p_min_kw=0 p_max_kw=1 q_min_kvar=0 q_max_kvar=0 color=red\n"
    with pytest.raises(ParseError, match="unknown key 'color'"):
        parse_network_text(text, "x.net")


def test_missing_device_key_rejected():
    text = "format: 1\n[buses]\n1 400 slack\n2 400 pq\n[devices]\nfpu 2 p_min_kw=0\n"
    with pytest.raises(ParseError, match="missing key"):
        parse_network_text(text, "x.net")


def test_negative_event_time_rejected():
    text = "format: 1\nname: x\nduration_s: 10\n[events]\n-1 set_flexibility p_set_kw=-1\n"
    with pytest.raises(ParseError, match="negative event time"):
        parse_scenario_text(text, "x.scn")


def test_unsorted_events_rejected():
    text = (
        "format: 1\nname: x\nduration_s: 10\n[events]\n"
        "5 set_flexibility p_set_kw=-1\n2 set_flexibility p_set_kw=-2\n"
    )
    with pytest.raises(ParseError, match="sorted"):
        parse_scenario_text(text, "x.scn")


def test_unknown_event_kind_rejected():
    text = "format: 1\nname: x\nduration_s: 10\n[events]\n1 explode boom=1\n"
    with pytest.raises(ParseError, match="unknown event kind"):
        parse_scenario_text(text, "x.scn")


def test_comments_and_blank_lines_ignored():
    text = (
        "format: 1\n\n# a comment\ns_base_kva: 100\n[buses]\n"
        "1 400 slack  # inline comment\n2 400 pq\n[branches]\n1 2 0.03 0.012\n"
    )
    spec = parse_network_text(text, "x.net")
    assert len(spec.buses) == 2


def test_parse_files_from_disk(tmp_path, lab_spec, exp_a):
    net_path = tmp_path / "n.net"
    net_path.write_text(serialize_network(lab_spec))
    assert parse_network_file(net_path) == lab_spec
    scn_path = tmp_path / "s.scn"
    scn_path.write_text(serialize_scenario(exp_a))
    assert parse_scenario_file(scn_path) == exp_a


def test_unsupported_format_version():
    with pytest.raises(ParseError, match="unsupported format version"):
        parse_network_text("format: 2\n[buses]\n1 400 slack\n", "x.net")

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "format: 1\n[buses]\n1 400 slack\n2 400 pq\n[devices]\n"
            "fpu 2 p_min_kw=0 p_min_kw=5 p_max_kw=9 q_min_kvar=0 q_max_kvar=0\n",
            r"x\.net:6: repeated key 'p_min_kw' for fpu",
        ),
        ("format: 1\ns_base_kva: 100\ns_base_kva: 50\n[buses]\n1 400 slack\n",
         r"x\.net:3: repeated header key 's_base_kva'"),
        ("format: 1\nformat: 1\n[buses]\n1 400 slack\n", r"x\.net:2: repeated header key 'format'"),
    ],
    ids=["device-key", "header", "format"],
)
def test_network_repeated_key_rejected(text, message):
    with pytest.raises(ParseError, match=message):
        parse_network_text(text, "x.net")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "format: 1\nname: x\nduration_s: 10\n[events]\n1 set_flexibility p_set_kw=-1 p_set_kw=-2\n",
            r"x\.scn:5: repeated key 'p_set_kw' for payload",
        ),
        ("format: 1\nname: x\nduration_s: 10\nname: y\n[events]\n", r"x\.scn:4: repeated header key 'name'"),
    ],
    ids=["event-key", "header"],
)
def test_scenario_repeated_key_rejected(text, message):
    with pytest.raises(ParseError, match=message):
        parse_scenario_text(text, "x.scn")


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


# kW and kvar on a quarter-kW grid, so kW -> W -> kW is exact; knees in p.u.
_KW = st.integers(-400, 400).map(lambda k: k / 4)
_KNEE = st.integers(80, 120).map(lambda k: k / 100)
_DEVICE_VALUES = {  # kind -> (required keys, optional keys), each with its values
    "fpu": ({"p_min_kw": _KW, "p_max_kw": _KW, "q_min_kvar": _KW, "q_max_kvar": _KW}, {}),
    "droop": (
        {"p_kw": _KW, "q_max_kvar": _KW},
        {"v_db_lo": _KNEE, "v_db_hi": _KNEE, "v_lo": _KNEE, "v_hi": _KNEE},
    ),
    "load": ({"p_kw": _KW}, {"q_kvar": _KW}),
    "ev": ({"max_kw": _KW}, {}),
}
_EVENT_PAYLOADS = {
    "set_flexibility": {"p_set_kw": _KW},
    "ev_charge_start": {"bus": st.integers(2, 9), "p_kw": st.integers(-400, 0).map(lambda k: k / 4)},
    "ev_charge_stop": {"bus": st.integers(2, 9)},
    "slack_voltage_change": {"v_pu": st.integers(800, 1200).map(lambda k: k / 1000)},
    "load_change": {"bus": st.integers(2, 9), "p_kw": _KW, "q_kvar": _KW},
}


def _kinds(draw, table: dict) -> list[str]:
    """Every kind of ``table`` once, in any order, then a few more."""
    kinds = sorted(table)
    return draw(st.permutations(kinds)) + draw(st.lists(st.sampled_from(kinds), max_size=4))


def _key_values(draw, values: dict) -> str:
    keys = draw(st.permutations(sorted(values)))
    return " ".join(f"{k}={draw(values[k])}" for k in keys)


@st.composite
def network_texts(draw):
    """Every device kind at least once, optional keys present or absent and
    in any order."""
    n = draw(st.integers(2, 6))
    s_base_kva = draw(st.sampled_from([50, 100, 250.5]))
    lines = ["format: 1", f"s_base_kva: {s_base_kva}", "[buses]", "1 400 slack"]
    lines += [f"{b} 400 pq" for b in range(2, n + 1)]
    lines.append("[branches]")
    ohm = st.floats(0.0, 2.0, allow_subnormal=False)
    lines += [f"{b - 1} {b} {draw(ohm)} {draw(ohm)}" for b in range(2, n + 1)]
    lines.append("[devices]")
    for kind in _kinds(draw, _DEVICE_VALUES):
        required, optional = _DEVICE_VALUES[kind]
        present = {k: v for k, v in optional.items() if draw(st.booleans())}
        lines.append(f"{kind} {draw(st.integers(2, n))} {_key_values(draw, {**required, **present})}")
    return "\n".join(lines) + "\n"


@st.composite
def scenario_texts(draw):
    """Every event kind at least once, at sorted times, payload keys in any order."""
    kinds = _kinds(draw, _EVENT_PAYLOADS)
    times = sorted(draw(st.integers(0, 4000)) / 4 for _ in kinds)
    name = draw(st.sampled_from(["a", "exp_c"]))
    lines = ["format: 1", f"name: {name}", f"duration_s: {draw(st.integers(1, 2000)) / 2}", "[events]"]
    lines += [f"{t} {kind} {_key_values(draw, _EVENT_PAYLOADS[kind])}" for t, kind in zip(times, kinds)]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(network_texts())
def test_network_serialization_is_a_fixed_point(text):
    spec = parse_network_text(text)
    once = serialize_network(spec)
    again = parse_network_text(once)
    assert again == spec
    assert serialize_network(again) == once


@settings(max_examples=100, deadline=None)
@given(scenario_texts())
def test_scenario_serialization_is_a_fixed_point(text):
    sc = parse_scenario_text(text)
    once = serialize_scenario(sc)
    again = parse_scenario_text(once)
    assert again == sc
    assert serialize_scenario(again) == once

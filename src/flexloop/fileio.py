"""Text formats for network descriptions and scenarios.

Both formats are line-oriented, versioned with a ``format: 1`` header and
carry user-facing units only (kW, kvar, V, seconds); per-unit never appears
in files. Parsing is strict: the first offending line is reported with its
line number. Serialization is canonical, so ``serialize(parse(text))``
reproduces a canonically formatted file byte for byte.

Network file::

    format: 1
    s_base_kva: 100

    [buses]
    # id v_nominal_v kind
    1 400 slack

    [branches]
    # from to r_ohm x_ohm
    1 2 0.03 0.012

    [devices]
    # kind bus key=value...
    fpu 2 p_min_kw=0 p_max_kw=15 q_min_kvar=-10 q_max_kvar=10

Scenario file::

    format: 1
    name: example
    duration_s: 200

    [events]
    # time_s kind key=value...
    10 set_flexibility p_set_kw=-14.5
"""

from __future__ import annotations

from pathlib import Path

from .grid import Branch, Bus, DroopInverter, EvCharger, Fpu, Load, NetworkSpec
from .plant import Scenario, ScenarioError, ScenarioEvent

FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        self.message = message
        super().__init__(f"{path}:{line_no}: {message}")


def _fmt(value: float) -> str:
    # canonical number formatting: integers without a trailing .0
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_float(token: str, path: str, no: int, field: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(path, no, f"bad number {token!r} for field {field}") from None


def _parse_int(token: str, path: str, no: int, field: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, no, f"bad integer {token!r} for field {field}") from None


def _parse_kv(tokens, path, no, field="payload", keys=None) -> dict[str, float]:
    """``key=value`` tokens as numbers. With ``keys = (required, optional)``
    an unknown key, then a missing one, is reported before a bad number."""
    raw: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(path, no, f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        raw[key] = val
    if keys is not None:
        required, optional = keys
        unknown = set(raw) - set(required) - set(optional)
        if unknown:
            raise ParseError(path, no, f"unknown key {sorted(unknown)[0]!r} for {field}")
        missing = set(required) - set(raw)
        if missing:
            raise ParseError(path, no, f"missing key {sorted(missing)[0]!r} for {field}")
    return {k: _parse_float(v, path, no, f"{field}.{k}") for k, v in raw.items()}


# --- network ---------------------------------------------------------------

_DEVICE_KEYS = {
    "fpu": (("p_min_kw", "p_max_kw", "q_min_kvar", "q_max_kvar"), ()),
    "droop": (
        ("p_kw", "q_max_kvar"),
        ("v_db_lo", "v_db_hi", "v_lo", "v_hi"),
    ),
    "load": (("p_kw",), ("q_kvar",)),
    "ev": (("max_kw",), ()),
}


def parse_network_text(text: str, path: str = "<network>") -> NetworkSpec:
    buses: list[Bus] = []
    branches: list[Branch] = []
    devices: list = []
    s_base_kva = 100.0
    section = None
    saw_format = False

    for no, line in _lines(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("buses", "branches", "devices"):
                raise ParseError(path, no, f"unknown section [{section}]")
            continue
        if section is None:
            key, sep, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise ParseError(path, no, f"expected 'key: value' header, got {line!r}")
            if key == "format":
                if _parse_int(value, path, no, "format") != FORMAT_VERSION:
                    raise ParseError(path, no, f"unsupported format version {value}")
                saw_format = True
            elif key == "s_base_kva":
                s_base_kva = _parse_float(value, path, no, "s_base_kva")
            else:
                raise ParseError(path, no, f"unknown header key {key!r}")
            continue

        tokens = line.split()
        if section == "buses":
            if len(tokens) != 3:
                raise ParseError(path, no, "bus row needs: id v_nominal_v kind")
            kind = tokens[2]
            if kind not in ("slack", "pq"):
                raise ParseError(path, no, f"unknown bus kind {kind!r}")
            buses.append(
                Bus(
                    id=_parse_int(tokens[0], path, no, "id"),
                    v_nominal=_parse_float(tokens[1], path, no, "v_nominal_v"),
                    kind=kind,
                )
            )
        elif section == "branches":
            if len(tokens) != 4:
                raise ParseError(path, no, "branch row needs: from to r_ohm x_ohm")
            branches.append(
                Branch(
                    from_bus=_parse_int(tokens[0], path, no, "from"),
                    to_bus=_parse_int(tokens[1], path, no, "to"),
                    r_ohm=_parse_float(tokens[2], path, no, "r_ohm"),
                    x_ohm=_parse_float(tokens[3], path, no, "x_ohm"),
                )
            )
        elif section == "devices":
            if len(tokens) < 2:
                raise ParseError(path, no, "device row needs: kind bus key=value...")
            kind = tokens[0]
            if kind not in _DEVICE_KEYS:
                raise ParseError(path, no, f"unknown device kind {kind!r}")
            bus = _parse_int(tokens[1], path, no, "bus")
            kv = _parse_kv(tokens[2:], path, no, kind, _DEVICE_KEYS[kind])
            if kind == "fpu":
                devices.append(
                    Fpu(
                        bus=bus,
                        p_min_w=kv["p_min_kw"] * 1e3,
                        p_max_w=kv["p_max_kw"] * 1e3,
                        q_min_var=kv["q_min_kvar"] * 1e3,
                        q_max_var=kv["q_max_kvar"] * 1e3,
                    )
                )
            elif kind == "droop":
                knees = _DEVICE_KEYS[kind][1]
                devices.append(
                    DroopInverter(
                        bus=bus,
                        p_fixed_w=kv["p_kw"] * 1e3,
                        q_max_var=kv["q_max_kvar"] * 1e3,
                        **{k: kv[k] for k in knees if k in kv},  # absent knees: the defaults
                    )
                )
            elif kind == "load":
                devices.append(Load(bus=bus, p_w=kv["p_kw"] * 1e3, q_var=kv.get("q_kvar", 0.0) * 1e3))
            else:
                devices.append(EvCharger(bus=bus, max_charge_w=kv["max_kw"] * 1e3))

    if not saw_format:
        raise ParseError(path, 1, "missing 'format: 1' header")
    if not buses:
        raise ParseError(path, 1, "no [buses] section or it is empty")
    return NetworkSpec(
        buses=tuple(buses),
        branches=tuple(branches),
        devices=tuple(devices),
        s_base_va=s_base_kva * 1e3,
    )


def parse_network_file(path: str | Path) -> NetworkSpec:
    path = Path(path)
    return parse_network_text(path.read_text(), str(path))


def serialize_network(spec: NetworkSpec) -> str:
    out = [f"format: {FORMAT_VERSION}", f"s_base_kva: {_fmt(spec.s_base_va / 1e3)}", ""]
    out.append("[buses]")
    out.append("# id v_nominal_v kind")
    for b in spec.buses:
        out.append(f"{b.id} {_fmt(b.v_nominal)} {b.kind}")
    out.append("")
    out.append("[branches]")
    out.append("# from to r_ohm x_ohm")
    for br in spec.branches:
        out.append(f"{br.from_bus} {br.to_bus} {_fmt(br.r_ohm)} {_fmt(br.x_ohm)}")
    out.append("")
    out.append("[devices]")
    out.append("# kind bus key=value...")
    for dev in spec.devices:
        if isinstance(dev, Fpu):
            out.append(
                f"fpu {dev.bus} p_min_kw={_fmt(dev.p_min_w / 1e3)}"
                f" p_max_kw={_fmt(dev.p_max_w / 1e3)}"
                f" q_min_kvar={_fmt(dev.q_min_var / 1e3)}"
                f" q_max_kvar={_fmt(dev.q_max_var / 1e3)}"
            )
        elif isinstance(dev, DroopInverter):
            out.append(
                f"droop {dev.bus} p_kw={_fmt(dev.p_fixed_w / 1e3)}"
                f" q_max_kvar={_fmt(dev.q_max_var / 1e3)}"
                f" v_db_lo={_fmt(dev.v_db_lo)} v_db_hi={_fmt(dev.v_db_hi)}"
                f" v_lo={_fmt(dev.v_lo)} v_hi={_fmt(dev.v_hi)}"
            )
        elif isinstance(dev, Load):
            out.append(f"load {dev.bus} p_kw={_fmt(dev.p_w / 1e3)} q_kvar={_fmt(dev.q_var / 1e3)}")
        elif isinstance(dev, EvCharger):
            out.append(f"ev {dev.bus} max_kw={_fmt(dev.max_charge_w / 1e3)}")
    out.append("")
    return "\n".join(out)


# --- scenarios ---------------------------------------------------------------


def parse_scenario_text(text: str, path: str = "<scenario>") -> Scenario:
    name = None
    duration = None
    events: list[ScenarioEvent] = []
    section = None
    saw_format = False

    for no, line in _lines(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section != "events":
                raise ParseError(path, no, f"unknown section [{section}]")
            continue
        if section is None:
            key, sep, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise ParseError(path, no, f"expected 'key: value' header, got {line!r}")
            if key == "format":
                if _parse_int(value, path, no, "format") != FORMAT_VERSION:
                    raise ParseError(path, no, f"unsupported format version {value}")
                saw_format = True
            elif key == "name":
                name = value
            elif key == "duration_s":
                duration = _parse_float(value, path, no, "duration_s")
            else:
                raise ParseError(path, no, f"unknown header key {key!r}")
            continue

        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(path, no, "event row needs: time_s kind key=value...")
        time_s = _parse_float(tokens[0], path, no, "time_s")
        kind = tokens[1]
        kv = _parse_kv(tokens[2:], path, no)
        try:
            events.append(ScenarioEvent.make(time_s, kind, **kv))
        except ScenarioError as exc:
            raise ParseError(path, no, str(exc)) from None

    if not saw_format:
        raise ParseError(path, 1, "missing 'format: 1' header")
    if name is None:
        raise ParseError(path, 1, "missing 'name:' header")
    if duration is None:
        raise ParseError(path, 1, "missing 'duration_s:' header")
    try:
        return Scenario(name=name, duration_s=duration, events=tuple(events))
    except ScenarioError as exc:
        raise ParseError(path, 1, str(exc)) from None


def parse_scenario_file(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario_text(path.read_text(), str(path))


def serialize_scenario(sc: Scenario) -> str:
    out = [
        f"format: {FORMAT_VERSION}",
        f"name: {sc.name}",
        f"duration_s: {_fmt(sc.duration_s)}",
        "",
        "[events]",
        "# time_s kind key=value...",
    ]
    for e in sc.events:
        kv = " ".join(f"{k}={_fmt(v)}" for k, v in e.payload)
        out.append(f"{_fmt(e.time_s)} {e.kind} {kv}".rstrip())
    out.append("")
    return "\n".join(out)

"""Text formats for network descriptions and scenarios.

Both formats are line-oriented, versioned with a ``format: 1`` header and
carry user-facing units only (kW, kvar, V, seconds); per-unit never appears
in files. Every number must be finite. Parsing is strict: the first
offending line is reported with its line number. Serialization is
canonical, so ``serialize(parse(text))`` reproduces a canonically formatted
file byte for byte.

One reader, :func:`_records`, serves both formats: it checks the
``format: 1`` header, the ``key: value`` headers before the first section
(each at most once) and the section names, and yields the section rows.
Each device kind is described once, in ``_DEVICES``: its class and its
required and optional columns, each a file key, a dataclass field and a
unit scale. Parsing reads that table for key checks, unit conversion and
construction, and serialization writes every column in table order.

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

import math
from pathlib import Path

from .grid import Branch, Bus, DroopInverter, EvCharger, Fpu, Load, NetworkSpec, NetworkValidationError
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


def _records(text: str, path: str, headers: tuple[str, ...], sections: tuple[str, ...]):
    """``(line, None, (key, value))`` for each of ``headers`` before the
    first section, then ``(line, section, tokens)`` for each section row.

    Comments and blank lines are skipped and ``format`` is checked here.
    Errors are raised as the offending line is reached, so a caller's own
    row errors keep their order; a missing ``format`` header is reported
    once every line has been read.
    """
    section = None
    seen: set[str] = set()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in sections:
                raise ParseError(path, no, f"unknown section [{section}]")
        elif section is not None:
            yield no, section, line.split()
        else:
            key, sep, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise ParseError(path, no, f"expected 'key: value' header, got {line!r}")
            if key != "format" and key not in headers:
                raise ParseError(path, no, f"unknown header key {key!r}")
            if key in seen:
                raise ParseError(path, no, f"repeated header key {key!r}")
            seen.add(key)
            if key != "format":
                yield no, None, (key, value)
            elif _parse_int(value, path, no, "format") != FORMAT_VERSION:
                raise ParseError(path, no, f"unsupported format version {value}")
    if "format" not in seen:
        raise ParseError(path, 1, "missing 'format: 1' header")


def _parse_float(token: str, path: str, no: int, field: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not -math.inf < value < math.inf:  # unparsable, nan or infinite
        raise ParseError(path, no, f"bad number {token!r} for field {field}")
    return value


def _parse_int(token: str, path: str, no: int, field: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, no, f"bad integer {token!r} for field {field}") from None


def _parse_kv(tokens, path, no, field="payload", columns=None) -> dict[str, float]:
    """``key=value`` tokens as numbers. With ``columns = (required,
    optional)`` an unknown key, then a missing one, is reported before a
    bad number."""
    raw: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(path, no, f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key in raw:
            raise ParseError(path, no, f"repeated key {key!r} for {field}")
        raw[key] = val
    if columns is not None:
        required, optional = ({c[0] for c in cols} for cols in columns)
        unknown = set(raw) - required - optional
        if unknown:
            raise ParseError(path, no, f"unknown key {sorted(unknown)[0]!r} for {field}")
        missing = required - set(raw)
        if missing:
            raise ParseError(path, no, f"missing key {sorted(missing)[0]!r} for {field}")
    return {k: _parse_float(v, path, no, f"{field}.{k}") for k, v in raw.items()}


# --- network ---------------------------------------------------------------

# kind -> (class, required columns, optional columns). A column is (file key,
# dataclass field, unit scale): the file carries field / scale, and an absent
# optional key takes the dataclass default. The order is the canonical one.
_KW = 1e3
_DEVICES = {
    "fpu": (Fpu, (("p_min_kw", "p_min_w", _KW), ("p_max_kw", "p_max_w", _KW),
                  ("q_min_kvar", "q_min_var", _KW), ("q_max_kvar", "q_max_var", _KW)), ()),
    "droop": (
        DroopInverter,
        (("p_kw", "p_fixed_w", _KW), ("q_max_kvar", "q_max_var", _KW)),
        tuple((knee, knee, 1.0) for knee in ("v_db_lo", "v_db_hi", "v_lo", "v_hi")),
    ),
    "load": (Load, (("p_kw", "p_w", _KW),), (("q_kvar", "q_var", _KW),)),
    "ev": (EvCharger, (("max_kw", "max_charge_w", _KW),), ()),
}
_KIND = {cls: kind for kind, (cls, _, _) in _DEVICES.items()}


def parse_network_text(text: str, path: str = "<network>") -> NetworkSpec:
    buses: list[Bus] = []
    branches: list[Branch] = []
    devices: list = []
    s_base_kva = 100.0

    for no, section, tokens in _records(text, path, ("s_base_kva",), ("buses", "branches", "devices")):
        if section is None:
            s_base_kva = _parse_float(tokens[1], path, no, "s_base_kva")
        elif section == "buses":
            if len(tokens) != 3:
                raise ParseError(path, no, "bus row needs: id v_nominal_v kind")
            kind = tokens[2]
            if kind not in ("slack", "pq"):
                raise ParseError(path, no, f"unknown bus kind {kind!r}")
            bus_id = _parse_int(tokens[0], path, no, "id")
            try:
                buses.append(Bus(bus_id, _parse_float(tokens[1], path, no, "v_nominal_v"), kind))
            except NetworkValidationError as exc:
                raise ParseError(path, no, str(exc)) from None
        elif section == "branches":
            if len(tokens) != 4:
                raise ParseError(path, no, "branch row needs: from to r_ohm x_ohm")
            branches.append(Branch(
                _parse_int(tokens[0], path, no, "from"), _parse_int(tokens[1], path, no, "to"),
                _parse_float(tokens[2], path, no, "r_ohm"), _parse_float(tokens[3], path, no, "x_ohm"),
            ))
        else:
            if len(tokens) < 2:
                raise ParseError(path, no, "device row needs: kind bus key=value...")
            kind = tokens[0]
            if kind not in _DEVICES:
                raise ParseError(path, no, f"unknown device kind {kind!r}")
            bus = _parse_int(tokens[1], path, no, "bus")
            cls, required, optional = _DEVICES[kind]
            kv = _parse_kv(tokens[2:], path, no, kind, (required, optional))
            devices.append(cls(bus=bus, **{f: kv[k] * s for k, f, s in required + optional if k in kv}))

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
    out += ["[buses]", "# id v_nominal_v kind"]
    out += [f"{b.id} {_fmt(b.v_nominal)} {b.kind}" for b in spec.buses]
    out += ["", "[branches]", "# from to r_ohm x_ohm"]
    out += [f"{br.from_bus} {br.to_bus} {_fmt(br.r_ohm)} {_fmt(br.x_ohm)}" for br in spec.branches]
    out += ["", "[devices]", "# kind bus key=value..."]
    for dev in spec.devices:
        kind = _KIND[type(dev)]
        _, required, optional = _DEVICES[kind]
        kv = " ".join(f"{k}={_fmt(getattr(dev, f) / s)}" for k, f, s in required + optional)
        out.append(f"{kind} {dev.bus} {kv}")
    out.append("")
    return "\n".join(out)


# --- scenarios ---------------------------------------------------------------


def parse_scenario_text(text: str, path: str = "<scenario>") -> Scenario:
    header: dict[str, str] = {}
    events: list[ScenarioEvent] = []

    for no, section, tokens in _records(text, path, ("name", "duration_s"), ("events",)):
        if section is None:
            key, value = tokens
            header[key] = value if key == "name" else _parse_float(value, path, no, key)
            continue
        if len(tokens) < 2:
            raise ParseError(path, no, "event row needs: time_s kind key=value...")
        time_s = _parse_float(tokens[0], path, no, "time_s")
        kind = tokens[1]
        kv = _parse_kv(tokens[2:], path, no)
        try:
            events.append(ScenarioEvent.make(time_s, kind, **kv))
        except ScenarioError as exc:
            raise ParseError(path, no, str(exc)) from None

    for key in ("name", "duration_s"):
        if key not in header:
            raise ParseError(path, 1, f"missing '{key}:' header")
    try:
        return Scenario(name=header["name"], duration_s=header["duration_s"], events=tuple(events))
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

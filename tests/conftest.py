import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for tests.oracles as plain module

from flexloop.fileio import parse_network_file, parse_scenario_file
from flexloop.grid import Branch, Bus, DroopInverter, Fpu, Load, NetworkSpec, build_devices, build_network

DATA = Path(__file__).parent.parent / "src" / "flexloop" / "data"


@pytest.fixture(scope="session")
def lab_spec():
    return parse_network_file(DATA / "lv_feeder_5bus.net")


@pytest.fixture(scope="session")
def lab_net(lab_spec):
    return build_network(lab_spec)


@pytest.fixture(scope="session")
def lab_devices(lab_spec, lab_net):
    return build_devices(lab_spec, lab_net)


@pytest.fixture(scope="session")
def exp_a():
    return parse_scenario_file(DATA / "exp_a_14p5kw.scn")


@pytest.fixture(scope="session")
def exp_b():
    return parse_scenario_file(DATA / "exp_b_ev_disturbance.scn")


def make_two_bus(r_ohm=0.016, x_ohm=0.016, with_fpu=False):
    """Slack + one PQ bus. Default impedance is 0.01 + j0.01 p.u. at the
    400 V / 100 kVA base (Z_base = 1.6 ohm)."""
    devices = (Fpu(bus=2, p_min_w=-50e3, p_max_w=50e3, q_min_var=-50e3, q_max_var=50e3),) if with_fpu else ()
    spec = NetworkSpec(
        buses=(Bus(1, 400.0, "slack"), Bus(2, 400.0, "pq")),
        branches=(Branch(1, 2, r_ohm, x_ohm),),
        devices=devices,
    )
    net = build_network(spec)
    return net, build_devices(spec, net)


@pytest.fixture
def two_bus():
    return make_two_bus()


def make_hair_thin_ramp():
    """Two buses with one droop inverter of enormous gain over a hair-thin
    ramp: at a 1.02 p.u. slack the solution sits on the ramp, and Newton
    backtracks on the way there."""
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
    return net, build_devices(spec, net)


def make_depth_first_feeder():
    """Radial feeder of 120 buses, numbered depth-first: a trunk of 24 buses
    from the slack, each with a lateral of two or more buses. The walk
    follows the trunk to its end before it enters any lateral, so the
    first trunk bus's lateral gets the last ids and natural id order puts
    neighbours ~100 positions apart; breadth-first order keeps them within
    two levels of about six buses each. Three controllable units sit on the
    trunk's end, on bus 95 and on bus 120, the end of the last lateral."""
    rng = np.random.default_rng(0)
    n_trunk = 24
    lateral = rng.multinomial(95 - 2 * n_trunk, np.full(n_trunk, 1.0 / n_trunk)) + 2
    ids = iter(range(2, 121))
    trunk = [next(ids) for _ in range(n_trunk)]
    pairs = [(1, trunk[0])] + list(zip(trunk, trunk[1:]))
    for t, length in zip(trunk[::-1], lateral):
        chain = [t] + [next(ids) for _ in range(length)]
        pairs += zip(chain, chain[1:])
    branches = tuple(
        Branch(a, b, float(rng.uniform(0.01, 0.04)), float(rng.uniform(0.005, 0.02))) for a, b in pairs
    )
    buses = (Bus(1, 400.0, "slack"),) + tuple(Bus(i, 400.0, "pq") for i in range(2, 121))
    fpus = tuple(
        Fpu(bus=b, p_min_w=-5e3, p_max_w=5e3, q_min_var=-5e3, q_max_var=5e3) for b in (trunk[-1], 95, 120)
    )
    spec = NetworkSpec(buses=buses, branches=branches, devices=fpus)
    net = build_network(spec)
    return net, build_devices(spec, net)


def close_a_loop(net):
    """``net`` with one more branch, between two PQ buses not yet adjacent."""
    rng = np.random.default_rng(0)
    a, b = rng.choice(np.argwhere(net.ybus[1:, 1:] == 0), axis=0) + 1
    extra = Branch(net.bus_ids[a], net.bus_ids[b], float(rng.uniform(0.02, 0.06)), float(rng.uniform(0.01, 0.03)))
    return build_network(NetworkSpec(buses=net.buses, branches=net.branches + (extra,)))


def random_injections(rng, n_pq, scale=0.05):
    return rng.uniform(-scale, scale, (n_pq, 2))


# acceptance reporting: collected lines are printed in the terminal summary

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

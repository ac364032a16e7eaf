"""The benchmark's workloads: set-up, one pass of timed operations, checks.

Every closed-loop run and every oracle solve is one operation. An operation
fails when it raises unexpectedly or its output breaks a check; failures are
counted, never skipped. The program is called through module attributes
(``harness.run_closed_loop``, not a name imported here), so the tracer's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import feeder120
import flexloop
from flexloop import cli, fileio, grid, harness, sensitivity
from flexloop.controller import ControllerConfig
from flexloop.grid import DeviceSet, NetworkModel
from flexloop.plant import PlantConfig, Scenario, ScenarioEvent

DATA = Path(flexloop.__file__).parent / "data"

NOISE_SIGMA_PU = 5e-4  # measurement noise of exp_b's noisy run and of feeder120
SATURATED_KW = -40.0  # beyond the 5-bus feeder's ~ -28.7 kW export capability
INFEASIBLE_PU = -0.60  # reference_opf request that must be certified unreachable
INFEASIBLE_CLOSEST_PU = -0.287
GAP_LIMIT = 0.01
SETTLE_ITERATIONS = 10
STEADY_ERROR_KW = 0.01


class Tally:
    """Attempted and failed operations, with one reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, op: Callable[[], str | None]) -> None:
        self.attempted += 1
        try:
            problem = op()
        except Exception as exc:  # an operation boundary: count it and go on
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")


# One timed operation of a pass: a label and a call that records its
# checks in the tally. A pass is the workload's operations in order.
Operation = tuple[str, Callable[[], None]]


def _op(tally: Tally, label: str, check: Callable[[], str | None]) -> Operation:
    return label, lambda: tally.run(label, check)


@dataclass(frozen=True)
class Case:
    """A feeder ready to run: network, devices and controller config."""

    net: NetworkModel
    devices: DeviceSet
    cfg: ControllerConfig


def _case(spec) -> Case:
    net = grid.build_network(spec)
    devices = grid.build_devices(spec, net)
    return _ready(net, devices)


def _ready(net, devices) -> Case:
    sens = sensitivity.compute_sensitivity(net, devices, np.zeros(devices.n_setpoints))
    return Case(net, devices, ControllerConfig.for_network(net, devices, sensitivity=sens))


def _closed_loop(case: Case, scenario: Scenario, plant_cfg: PlantConfig, out: dict | None = None):
    """One closed-loop run plus its telemetry, as the CLI's ``run`` mode does."""
    log = harness.run_closed_loop(case.net, case.devices, scenario, case.cfg, plant_cfg)
    if log.abort_reason:
        return f"aborted: {log.abort_reason}"
    log.to_csv()
    kpi = harness.summarize(log)
    u = log.setpoints_pu()
    if np.any(u < log.u_min) or np.any(u > log.u_max):
        return "emitted setpoint outside the device box"
    if out is not None:
        out["kpi"] = kpi
        out["phi"] = float(np.sum(log.records[-1].u ** 2))
    return None


def _settles(case: Case, scenario: Scenario) -> str | None:
    out: dict = {}
    problem = _closed_loop(case, scenario, PlantConfig(), out)
    if problem:
        return problem
    kpi = out["kpi"]
    if not (kpi.settled and kpi.settling_iterations <= SETTLE_ITERATIONS):
        return f"did not settle within {SETTLE_ITERATIONS} iterations"
    if kpi.steady_state_error_kw >= STEADY_ERROR_KW:
        return f"steady error {kpi.steady_state_error_kw:.3g} kW"
    return None


class Lab5Loop:
    """The bundled 5-bus feeder in closed loop: exp_a, exp_b, exp_b with
    noise and a one-sample measurement delay, and a request beyond the
    feeder's capability that keeps the soft-equality fallback engaged."""

    name = "lab5_loop"
    setups_per_pass = 8

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def setup(self):
        spec = fileio.parse_network_file(DATA / "lv_feeder_5bus.net")
        exp_a = fileio.parse_scenario_file(DATA / "exp_a_14p5kw.scn")
        exp_b = fileio.parse_scenario_file(DATA / "exp_b_ev_disturbance.scn")
        case = _case(spec)
        saturated = Scenario(
            "exp_a_saturated",
            300.0,
            tuple(e for e in exp_a.events if e.kind != "set_flexibility")
            + (ScenarioEvent.make(10.0, "set_flexibility", p_set_kw=SATURATED_KW),),
        )
        noisy = PlantConfig(measurement_delay=1, noise_sigma=NOISE_SIGMA_PU, seed=self.seed)
        return case, exp_a, exp_b, saturated, noisy

    def warm_up(self, state, tally: Tally) -> None:
        case, exp_a = state[:2]
        tally.run("warm-up exp_a", lambda: _settles(case, exp_a))

    def operations(self, state, tally: Tally) -> list[Operation]:
        case, exp_a, exp_b, saturated, noisy = state
        return [
            _op(tally, "exp_a", lambda: _settles(case, exp_a)),
            _op(tally, "exp_b", lambda: _closed_loop(case, exp_b, PlantConfig())),
            _op(tally, "exp_b noisy+delayed", lambda: _closed_loop(case, exp_b, noisy)),
            _op(tally, "exp_a at -40 kW", lambda: _closed_loop(case, saturated, PlantConfig())),
        ]


class Feeder120Loop:
    """A seeded 120-bus radial feeder in closed loop over 101 samples, with
    measurement noise as in the field: the setpoints move every sample, so
    the plant's droop fixed-point loop runs every sample too."""

    name = "feeder120_loop"
    setups_per_pass = 3

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.properties: dict = {}

    def setup(self):
        feeder = feeder120.generate(self.seed)
        self.properties = feeder.properties
        noisy = PlantConfig(noise_sigma=NOISE_SIGMA_PU, seed=self.seed)
        return _case(feeder.spec), feeder.scenario, noisy

    def warm_up(self, state, tally: Tally) -> None:
        case, scenario, noisy = state
        first = Scenario("warm-up", 10.0, tuple(e for e in scenario.events if e.time_s <= 10.0))
        tally.run("warm-up", lambda: _closed_loop(case, first, noisy))

    def operations(self, state, tally: Tally) -> list[Operation]:
        case, scenario, noisy = state
        return [_op(tally, scenario.name, lambda: _closed_loop(case, scenario, noisy))]


class OracleCompare:
    """The optimality oracle: the CLI's ``compare-oracle`` on exp_a, an
    unreachable request that runs the infeasibility certificate, and the
    five random feeders of acceptance criterion 5."""

    name = "oracle_compare"
    setups_per_pass = 14
    random_feeders = 5

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def setup(self):
        lab = _case(fileio.parse_network_file(DATA / "lv_feeder_5bus.net"))
        feeders = []
        for i in range(self.random_feeders):
            net, devices, p_set_kw = harness.random_feeder(i)
            scenario = Scenario(
                "rand", 150.0, (ScenarioEvent.make(0.0, "set_flexibility", p_set_kw=p_set_kw),)
            )
            feeders.append((i, _ready(net, devices), scenario, p_set_kw * 1e3 / net.s_base_va))
        return lab, feeders

    def _cli(self) -> str | None:
        argv = ["--mode", "compare-oracle", "--scenario", "exp_a_14p5kw",
                "--seed", str(self.seed), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            return f"exit code {code}: {err.getvalue().strip()}"
        report = dict(
            line.split(": ", 1) for line in (self.out_dir / "oracle.txt").read_text().splitlines()
        )
        gap = float(report["relative_gap"])
        return None if gap < GAP_LIMIT else f"relative_gap {gap:.3g}"

    def _infeasible(self, lab: Case) -> str | None:
        try:
            harness.reference_opf(lab.net, lab.devices, p_set_pu=INFEASIBLE_PU, seed=self.seed)
        except harness.InfeasibleRequestError as exc:
            if abs(exc.closest_pu - INFEASIBLE_CLOSEST_PU) > 0.01:
                return f"closest attainable {exc.closest_pu:.4f} p.u."
            return None
        return "no InfeasibleRequestError"

    @staticmethod
    def _random_feeder(tally: Tally, i: int, case: Case, scenario: Scenario, p_set_pu: float) -> None:
        loop: dict = {}
        tally.run(f"random_feeder({i}) loop", lambda: _closed_loop(case, scenario, PlantConfig(), loop))

        def oracle():
            opf = harness.reference_opf(case.net, case.devices, p_set_pu=p_set_pu, seed=i)
            if "phi" not in loop:
                return "no closed-loop result to compare"
            gap = abs(loop["phi"] - opf.phi) / max(abs(opf.phi), 1e-12)
            return None if gap < GAP_LIMIT else f"gap {gap:.3g}"

        tally.run(f"random_feeder({i}) oracle", oracle)

    def warm_up(self, state, tally: Tally) -> None:
        self._random_feeder(tally, *state[1][0])

    def operations(self, state, tally: Tally) -> list[Operation]:
        # The closed loops (this workload's only controller_step calls) sit
        # between the two long operations, so its decisions sample several
        # moments of a pass instead of one burst at its end.
        lab, feeders = state

        def random_feeder(feeder):
            return f"random_feeder({feeder[0]})", lambda: self._random_feeder(tally, *feeder)

        return [
            random_feeder(feeders[0]),
            _op(tally, "cli compare-oracle", self._cli),
            *map(random_feeder, feeders[1:3]),
            _op(tally, "reference_opf -60 kW", lambda: self._infeasible(lab)),
            *map(random_feeder, feeders[3:]),
        ]


WORKLOADS = {w.name: w for w in (Lab5Loop, Feeder120Loop, OracleCompare)}

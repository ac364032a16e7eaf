"""Command-line front end.

Modes: ``run`` (telemetry.csv + kpi.txt), ``compare-oracle`` (additionally
oracle.txt with the objective gap) and ``sweep-alpha`` (settling iterations
per step size, alpha_sweep.txt). File units are kW/kvar/V/seconds.

Exit codes: 0 success, 1 input error (arguments, parsing, validation),
2 runtime failure (divergence, unreachable request). Every failure prints
exactly one diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import ControllerConfig
from .fileio import ParseError, parse_network_file, parse_scenario_file
from .grid import NetworkValidationError, build_devices, build_network
from .harness import (
    InfeasibleRequestError,
    reference_opf,
    run_closed_loop,
    summarize,
)
from .plant import PLANT_EVENT_KINDS, Plant, PlantConfig, PlantDivergedError, ScenarioError
from .powerflow import PowerFlowError
from .sensitivity import SensitivityError

DEFAULT_NETWORK = "lv_feeder_5bus"
OUT_ENV_VAR = "FLEXLOOP_OUT"
SWEEP_ALPHAS = (0.1, 0.2, 0.3, 0.45, 0.6)


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1 for input errors
        raise _CliError(message, 1)


def _bundled(kind: str, name: str) -> Path | None:
    suffix = ".net" if kind == "network" else ".scn"
    candidate = name if name.endswith(suffix) else name + suffix
    ref = resources.files("flexloop").joinpath("data", candidate)
    if ref.is_file():
        with resources.as_file(ref) as path:
            return Path(path)
    return None


def _resolve(kind: str, name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    bundled = _bundled(kind, name)
    if bundled is not None:
        return bundled
    raise _CliError(f"{kind} {name!r}: no such file or bundled {kind}", 1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flexloop", description="closed-loop grid flexibility runner")
    parser.add_argument("--mode", choices=("run", "compare-oracle", "sweep-alpha"), default="run")
    parser.add_argument("--network", default=DEFAULT_NETWORK, help="network file or bundled name")
    parser.add_argument("--scenario", required=True, help="scenario file or bundled name")
    parser.add_argument("--alpha", default=None, help="step size, or comma list for sweep-alpha")
    parser.add_argument("--rho", type=float, default=None, help="soft-equality weight")
    parser.add_argument("--band", type=float, default=0.05, help="voltage band around nominal, p.u.")
    parser.add_argument("--actuation-delay", type=int, default=1, help="samples")
    parser.add_argument("--measurement-delay", type=int, default=0, help="samples")
    parser.add_argument("--noise-sigma", type=float, default=0.0, help="measurement noise, p.u.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV_VAR} or ./runs)")
    return parser


def _alphas(arg: str | None, mode: str) -> tuple[float, ...]:
    if arg is None:
        return SWEEP_ALPHAS if mode == "sweep-alpha" else (0.3,)
    try:
        return tuple(float(tok) for tok in arg.split(","))
    except ValueError:
        raise _CliError(f"--alpha: bad value {arg!r}", 1) from None


def _run(args) -> int:
    net_path = _resolve("network", args.network)
    scn_path = _resolve("scenario", args.scenario)
    spec = parse_network_file(net_path)
    net = build_network(spec)
    devices = build_devices(spec, net)
    scenario = parse_scenario_file(scn_path)

    # every setting is checked before the first run
    alphas = _alphas(args.alpha, args.mode)
    rho = {} if args.rho is None else {"rho": args.rho}
    try:
        plant_cfg = PlantConfig(
            actuation_delay=args.actuation_delay,
            measurement_delay=args.measurement_delay,
            noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
        cfgs = [ControllerConfig.for_network(net, devices, alpha=a, band=args.band, **rho) for a in alphas]
    except ValueError as exc:
        raise _CliError(str(exc), 1) from None

    out_dir = Path(args.out or os.environ.get(OUT_ENV_VAR, "runs"))
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.mode == "sweep-alpha":
        lines = ["alpha,settled,settling_iterations"]
        for cfg in cfgs:
            log = run_closed_loop(net, devices, scenario, cfg, plant_cfg)
            if log.abort_reason:
                raise _CliError(f"scenario aborted: {log.abort_reason}", 2)
            kpi = summarize(log)
            iters = kpi.settling_iterations if kpi.settled else ""
            lines.append(f"{cfg.alpha:g},{int(kpi.settled)},{iters}")
        (out_dir / "alpha_sweep.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
        return 0

    log = run_closed_loop(net, devices, scenario, cfgs[0], plant_cfg)
    (out_dir / "telemetry.csv").write_text(log.to_csv())
    if log.records:  # a run aborted at its first sample has no KPIs
        (out_dir / "kpi.txt").write_text(summarize(log).render())
    if log.abort_reason:
        raise _CliError(f"scenario aborted: {log.abort_reason}", 2)

    if args.mode == "compare-oracle":
        # the oracle sees the end-of-scenario disturbances
        plant = Plant(net, devices, plant_cfg)
        end = plant.apply_events(
            plant.initial_state(np.zeros(devices.n_setpoints)),
            [e for e in scenario.events if e.kind in PLANT_EVENT_KINDS],
        )
        opf = reference_opf(
            net,
            devices,
            p_set_pu=log.records[-1].p_set,
            band=args.band,
            slack_v=end.slack_v,
            loads_pu=end.loads,
            ev_pu=end.ev_power,
        )
        phi_loop = float(np.sum(log.records[-1].u ** 2))
        gap = (phi_loop - opf.phi) / max(abs(opf.phi), 1e-12)
        text = (
            f"phi_closed_loop: {phi_loop:.9g}\n"
            f"phi_oracle: {opf.phi:.9g}\n"
            f"relative_gap: {gap:.6g}\n"
            f"oracle_stationarity: {opf.stationarity:.3g}\n"
            f"oracle_binding: {', '.join(opf.binding) if opf.binding else 'none'}\n"
        )
        (out_dir / "oracle.txt").write_text(text)
        print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, NetworkValidationError, ScenarioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleRequestError, PlantDivergedError, PowerFlowError, SensitivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

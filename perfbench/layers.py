"""Where the tracer attaches to flexloop, and the per-layer metrics it yields.

Each probe wraps a binding the program actually calls through. Metrics are
normalised per traced iteration (one set-up plus one pass of the workload's
operations), so a count is identical across runs of the same seed.
"""

from __future__ import annotations

import numpy as np

from flexloop import cli, controller, fileio, grid, harness, plant, qp, sensitivity
from tracer import Tracer

PF = "powerflow.solve"
SSR = "plant.steady_state"
STEP = "plant.step"
QP = "qp.solve"
LP = "qp.linprog"
CTRL = "controller.step"
SENS = "sensitivity.compute"
LOOP = "harness.run_closed_loop"
OPF = "harness.reference_opf"
TELEMETRY = "harness.telemetry"
CLI = "cli.main"
PARSE = "fileio.parse"
BUILD = "grid.build"


def _pf(sol):
    return sol.iterations, sol.converged


def _qp(sol):
    return sol.iterations, sol.status, sol.softened


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark's workloads pass through."""
    for owner in (plant, sensitivity):
        tracer.wrap(owner, "solve_power_flow", PF, _pf)
    for owner in (plant, harness):  # the plant's droop loop, and reference_opf's
        tracer.wrap(owner, "steady_state_response", SSR, lambda out: out[2])
    tracer.wrap(plant.Plant, "step", STEP)
    for owner in (controller, qp):  # reference_opf imports qp.solve_qp at call time
        tracer.wrap(owner, "solve_qp", QP, _qp)
    tracer.wrap(qp, "linprog", LP)
    tracer.wrap(harness, "controller_step", CTRL, lambda out: out[1].alarm)
    for owner in (sensitivity, harness):
        tracer.wrap(owner, "compute_sensitivity", SENS)
    for owner in (harness, cli):
        tracer.wrap(owner, "run_closed_loop", LOOP)
        tracer.wrap(owner, "reference_opf", OPF)
        tracer.wrap(owner, "summarize", TELEMETRY)
    tracer.wrap(harness.TelemetryLog, "to_csv", TELEMETRY)
    tracer.wrap(cli, "main", CLI)
    for owner in (fileio, cli):
        tracer.wrap(owner, "parse_network_file", PARSE)
        tracer.wrap(owner, "parse_scenario_file", PARSE)
    for owner in (grid, cli, harness):
        tracer.wrap(owner, "build_network", BUILD)
        tracer.wrap(owner, "build_devices", BUILD)


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("fileio.parse_ms", "ms", "lower"),
    ("grid.build_ms", "ms", "lower"),
    ("sensitivity.total_s", "s", "lower"),
    ("sensitivity.pf_calls", "count", "lower"),
    ("powerflow.calls", "count", "lower"),
    ("powerflow.newton_iters", "count", "lower"),
    ("powerflow.ms_p50", "ms", "lower"),
    ("powerflow.ms_p90", "ms", "lower"),
    ("powerflow.total_s", "s", "lower"),
    ("powerflow.not_converged", "count", "lower"),
    ("plant.step_ms_p50", "ms", "lower"),
    ("plant.step_ms_p90", "ms", "lower"),
    ("plant.total_s", "s", "lower"),
    ("plant.self_s", "s", "lower"),
    ("plant.pf_per_step", "calls/step", "lower"),
    ("plant.droop_cap_hits", "count", "lower"),
    ("qp.calls", "count", "lower"),
    ("qp.iterations", "count", "lower"),
    ("qp.ms_p50", "ms", "lower"),
    ("qp.ms_p90", "ms", "lower"),
    ("qp.lp_calls", "count", "lower"),
    ("qp.lp_s", "s", "lower"),
    ("qp.activeset_s", "s", "lower"),
    ("qp.softened", "count", "lower"),
    ("qp.optimal_ratio", "ratio", "higher"),
    ("controller.step_ms_p50", "ms", "lower"),
    ("controller.step_ms_p90", "ms", "lower"),
    ("controller.self_s", "s", "lower"),
    ("controller.holds", "count", "lower"),
    ("harness.opf_s", "s", "lower"),
    ("harness.opf_pf_calls", "count", "lower"),
    ("harness.opf_qp_calls", "count", "lower"),
    ("harness.telemetry_s", "s", "lower"),
    ("cli.compare_oracle_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# span names a metric is read from; it is absent when one of them has no
# binding left to wrap (a later version of the program removed it)
_NEEDS = {
    "fileio": (PARSE,),
    "grid": (BUILD,),
    "sensitivity": (SENS, PF),
    "powerflow": (PF,),
    "plant": (STEP, SSR, PF),
    "qp.lp": (LP,),
    "qp": (QP,),
    "controller": (CTRL, QP),
    "harness.opf": (OPF,),
    "harness.telemetry": (TELEMETRY,),
    "cli": (CLI,),
    "trace": (),
}


def _needs(metric: str) -> tuple[str, ...]:
    for prefix in sorted(_NEEDS, key=len, reverse=True):
        if metric.startswith(prefix):
            return _NEEDS[prefix]
    raise KeyError(metric)


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(tracer: Tracer, iterations: int, overhead_ratio: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics per traced iteration, plus the names left absent."""
    names = tracer.names
    dur = tracer.durations()
    own = tracer.self_times()
    anc = tracer.ancestors()
    obs = tracer.observed
    n = float(iterations)

    def spans(name, under=None):
        return [i for i, s in enumerate(names) if s == name and (under is None or under in anc[i])]

    def total(idx, times=dur):
        return sum(times[i] for i in idx) / n

    def ms(idx):
        return [dur[i] * 1e3 for i in idx]

    pf, step, qps, lps, ctrl = spans(PF), spans(STEP), spans(QP), spans(LP), spans(CTRL)
    ssr_in_step = spans(SSR, under=STEP)
    qp_done = [obs[i] for i in qps if obs[i] is not None]
    values = {
        "fileio.parse_ms": total(spans(PARSE)) * 1e3,
        "grid.build_ms": total(spans(BUILD)) * 1e3,
        "sensitivity.total_s": total(spans(SENS)),
        "sensitivity.pf_calls": len(spans(PF, under=SENS)) / n,
        "powerflow.calls": len(pf) / n,
        "powerflow.newton_iters": sum(obs[i][0] for i in pf if obs[i]) / n,
        "powerflow.ms_p50": _pct(ms(pf), 50),
        "powerflow.ms_p90": _pct(ms(pf), 90),
        "powerflow.total_s": total(pf),
        "powerflow.not_converged": sum(1 for i in pf if obs[i] and not obs[i][1]) / n,
        "plant.step_ms_p50": _pct(ms(step), 50),
        "plant.step_ms_p90": _pct(ms(step), 90),
        "plant.total_s": total(step),
        "plant.self_s": total(step, own) + total(ssr_in_step, own),
        "plant.pf_per_step": len(spans(PF, under=STEP)) / max(len(step), 1),
        "plant.droop_cap_hits": sum(1 for i in ssr_in_step if obs[i] is False) / n,
        "qp.calls": len(qps) / n,
        "qp.iterations": sum(o[0] for o in qp_done) / n,
        "qp.ms_p50": _pct(ms(qps), 50),
        "qp.ms_p90": _pct(ms(qps), 90),
        "qp.lp_calls": len(lps) / n,
        "qp.lp_s": total(lps),
        "qp.activeset_s": total(qps, own),
        "qp.softened": sum(1 for o in qp_done if o[2]) / n,
        "qp.optimal_ratio": sum(1 for o in qp_done if o[1] == "optimal") / max(len(qps), 1),
        "controller.step_ms_p50": _pct(ms(ctrl), 50),
        "controller.step_ms_p90": _pct(ms(ctrl), 90),
        "controller.self_s": total(ctrl, own),
        "controller.holds": sum(1 for i in ctrl if obs[i]) / n,
        "harness.opf_s": total(spans(OPF)),
        "harness.opf_pf_calls": len(spans(PF, under=OPF)) / n,
        "harness.opf_qp_calls": len(spans(QP, under=OPF)) / n,
        "harness.telemetry_s": total(spans(TELEMETRY)),
        "cli.compare_oracle_s": total(spans(CLI)),
        "trace.overhead_ratio": overhead_ratio,
    }
    absent = [m for m, _, _ in PER_LAYER if not tracer.wrapped_names.issuperset(_needs(m))]
    return {m: values[m] for m, _, _ in PER_LAYER if m not in absent}, absent


def self_time_by_span(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Self seconds per iteration, keyed by span name, largest first."""
    out: dict[str, float] = {}
    for name, t in zip(tracer.names, tracer.self_times()):
        out[name] = out.get(name, 0.0) + t / iterations
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))

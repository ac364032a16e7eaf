"""flexloop benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; flexloop is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured with only a perf_counter pair
around ``flexloop.harness.controller_step``. With ``--trace 1`` the run
spends half its time on the untraced measurement and half with every layer
boundary wrapped (see layers.py), and reports per-layer metrics plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, fixed before numpy is first imported (by _import_program)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

P50_BLOCK = 10  # consecutive decisions per local median of decision_ms_p50

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def _import_program():
    """Import flexloop from this checkout's sources, never from elsewhere."""
    if not (SRC / "flexloop" / "__init__.py").is_file():
        sys.exit(f"error: no flexloop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flexloop

    if not Path(flexloop.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: flexloop imported from {flexloop.__file__}, not {SRC}")
    return flexloop


def _machine(flexloop) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    lines = sum(len(p.read_text().splitlines()) for p in Path(flexloop.__file__).parent.glob("*.py"))
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "flexloop_src_lines": lines,
        "cpu_pinned": False,
        "clock_fixed": False,
    }


def _cycle(workload, state, tally, seconds: float) -> tuple[list[float], dict[str, list[float]]]:
    """Run the workload's operations in turn, pass after pass, for ``seconds``.

    Timed set-ups are spread between the operations, ``setups_per_pass``
    to a pass, so they sample the same machine conditions as the
    operations. The first pass always runs whole; after it an operation
    (with the set-ups due before it) starts only if its mean time so far
    still fits, so a run ends close to ``seconds``.
    """
    ops = workload.operations(state, tally)
    op_times: dict[str, list[float]] = {label: [] for label, _ in ops}
    setup_times: list[float] = []
    begin = time.perf_counter()
    for k in itertools.count():
        label, op = ops[k % len(ops)]
        setups = math.ceil(workload.setups_per_pass * (k + 1) / len(ops)) - len(setup_times)
        if k >= len(ops):
            expected = setups * statistics.fmean(setup_times) + statistics.fmean(op_times[label])
            if time.perf_counter() - begin + expected > seconds:
                break
        for _ in range(setups):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        op()
        op_times[label].append(time.perf_counter() - t0)
    return setup_times, op_times


def _end_to_end(workload, tally, seconds: float, harness, Tracer) -> dict[str, float]:
    state = workload.setup()
    workload.warm_up(state, tally)
    decisions = Tracer()
    decisions.wrap(harness, "controller_step", "controller.step")
    try:
        setup_times, op_times = _cycle(workload, state, tally, seconds)
    finally:
        decisions.remove()
    # A pass's time is the sum of its operations' mean times, so operations
    # repeated all through the run count, not only whole passes. The host
    # alternates between a fast and a slow speed, and the median of a whole
    # run falls in one or the other by the share of the run in each. The
    # median of each block of consecutive decisions, averaged, moves
    # smoothly with that share instead. p90 lies in the slow mode either
    # way and pools every decision of the run (>= 100 in the first pass
    # alone, so it has >= 10 beyond it).
    latency_ms = [d * 1e3 for d in decisions.durations()]
    blocks = [latency_ms[i:i + P50_BLOCK] for i in range(0, len(latency_ms) - P50_BLOCK + 1, P50_BLOCK)]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": sum(statistics.fmean(t) for t in op_times.values()),
        "decision_ms_p50": statistics.fmean(statistics.median(b) for b in blocks),
        "decision_ms_p90": statistics.quantiles(latency_ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(workload, tally, seconds: float, harness, Tracer, layers) -> tuple[dict[str, float], list[str]]:
    """Half the time untraced, for the overhead ratio; half traced, in whole
    iterations of one set-up plus one pass (at least one)."""
    untraced = _end_to_end(workload, tally, seconds / 2, harness, Tracer)
    tracer = Tracer()
    layers.install(tracer)
    traced: list[float] = []
    begin = time.perf_counter()
    try:
        while not traced or time.perf_counter() - begin + statistics.fmean(traced) <= seconds / 2:
            t0 = time.perf_counter()
            for _, op in workload.operations(workload.setup(), tally):
                op()
            traced.append(time.perf_counter() - t0)
    finally:
        tracer.remove()
    iterations = len(traced)
    print("self_s_per_iteration " + json.dumps(
        {k: round(v, 6) for k, v in layers.self_time_by_span(tracer, iterations).items()}))
    if tracer.absent:
        print("absent_bindings " + json.dumps(tracer.absent))
    overhead = statistics.fmean(traced) / (untraced["setup_s"] + untraced["run_s"])
    return layers.per_layer(tracer, iterations, overhead)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lab5_loop", "feeder120_loop", "oracle_compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    flexloop = _import_program()
    import layers
    from flexloop import harness
    from tracer import Tracer
    from workloads import WORKLOADS, Tally

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as out_dir:
        workload = WORKLOADS[args.workload](args.seed, Path(out_dir))
        tally = Tally()
        if args.trace:
            values, absent = _per_layer(workload, tally, args.seconds, harness, Tracer, layers)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values, absent = _end_to_end(workload, tally, args.seconds, harness, Tracer), []
            units = dict(END_TO_END)

    info = {"workload": args.workload, "seed": args.seed, "machine": _machine(flexloop)}
    if hasattr(workload, "properties"):
        info.update(workload.properties)
        if "plant.pf_per_step" in values:  # counted by the tracer only
            info["droop_pf_per_sample"] = values["plant.pf_per_step"]
    print("info " + json.dumps(info))
    if absent:
        print("absent_metrics " + json.dumps(absent))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, value in values.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record one point of the benchmark trajectory as ``bench/BENCH_<pr>.json``.

    python3 bench/record.py --pr N [--against bench/BENCH_<earlier>.json]

Run from anywhere inside a source checkout. For each workload in
``BENCHMARK.json`` it runs ``perfbench/run.py`` as a subprocess for the
benchmark's ``run_seconds``, untraced at seeds 0, 1 and 2 and traced at
seed 0, and keeps only what perfbench prints for outside readers: its
``info`` line and its final JSON object. The file holds the git SHA the
tree was recorded on (and whether it had uncommitted changes), a hash of
the ``src/flexloop`` sources, their line count, perfbench's machine block,
every seed's end-to-end values with their median and range, the traced
per-layer metrics, and the attempted and failed operation counts. With
``--against`` it then prints the new/old ratio of every end-to-end median
and per-layer value.

The recorded numbers describe one unpinned host at one time. They are a
trajectory to compare against, not a bound, and no test reads them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNTRACED_SEEDS = (0, 1, 2)
TRACED_SEED = 0


def _perfbench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """``(info, result)`` of one perfbench run: its ``info`` line and its
    final JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    info = [ln for ln in lines if ln.startswith("info ")]
    if proc.returncode != 0 or not info or not lines:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(info[-1][len("info "):]), json.loads(lines[-1])


def _git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def _sources() -> tuple[str, int]:
    """sha256 over ``src/flexloop/*.py`` (name and bytes, in name order) and
    their line count, as perfbench counts it."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src" / "flexloop").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text + b"\0")
        lines += len(text.decode().splitlines())
    return digest.hexdigest(), lines


def _workload(name: str, seconds: float) -> tuple[dict, dict]:
    values: dict[str, dict] = {}
    attempted, failed = [], []
    machine = {}
    for seed in UNTRACED_SEEDS:
        info, result = _perfbench(name, seed, seconds, trace=0)
        machine = info["machine"]
        attempted.append(result["attempted"])
        failed.append(result["failed"])
        for metric, m in result["metrics"].items():
            values.setdefault(metric, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for entry in values.values():
        runs = entry["values"]
        entry.update(median=statistics.median(runs), min=min(runs), max=max(runs))
    info, result = _perfbench(name, TRACED_SEED, seconds, trace=1)
    properties = {k: v for k, v in info.items() if k not in ("workload", "seed", "machine")}
    return {
        "seeds": list(UNTRACED_SEEDS),
        "end_to_end": values,
        "attempted": attempted,
        "failed": failed,
        "traced": {
            "seed": TRACED_SEED,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "properties": properties,
            "per_layer": result["metrics"],
        },
    }, machine


def _compare(new: dict, old: dict) -> None:
    print(f"new/old against BENCH_{old.get('pr')} ({old.get('git_sha', '?')[:12]})")
    for name, wl in new["workloads"].items():
        before = old.get("workloads", {}).get(name)
        if before is None:
            print(f"{name}: not in the old file")
            continue
        was_median = {k: e["median"] for k, e in before["end_to_end"].items()}
        was_value = {k: m["value"] for k, m in before["traced"]["per_layer"].items()}
        rows = [(k, e["median"], was_median.get(k), e["unit"]) for k, e in wl["end_to_end"].items()]
        rows += [(k, m["value"], was_value.get(k), m["unit"])
                 for k, m in wl["traced"]["per_layer"].items()]
        for metric, value, was, unit in rows:
            ratio = f"{value / was:8.3f}" if was else "       -"
            old_value = "-" if was is None else f"{was:.6g}"
            print(f"{name:16s} {metric:28s} {ratio}  ({value:.6g} vs {old_value} {unit})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--against", type=Path, default=None, help="an earlier BENCH file to compare with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    src_sha256, src_lines = _sources()
    record = {
        "pr": args.pr,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")),
        "src_sha256": src_sha256,
        "flexloop_src_lines": src_lines,
        "seconds_per_run": seconds,
        "machine": None,
        "workloads": {},
    }
    for wl in spec["workloads"]:
        record["workloads"][wl["name"]], record["machine"] = _workload(wl["name"], seconds)
        print(f"recorded {wl['name']}", file=sys.stderr)
    out = ROOT / "bench" / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if args.against is not None:
        _compare(record, json.loads(args.against.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness: one short traced run of each workload
must end in a strict-JSON result line that reports a correct run and every
metric, with every binding the tracer wraps present."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.mark.parametrize("workload", ["lab5_loop", "feeder120_loop", "oracle_compare"])
def test_traced_run_ends_in_a_strict_json_result(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.5",
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0, lines
    assert not any(line.startswith(("absent_metrics", "absent_bindings")) for line in lines), lines
    assert "qp.iterations" in result["metrics"]

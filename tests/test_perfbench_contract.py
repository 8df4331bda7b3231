"""The benchmark still runs against the package: one tiny traced run per
workload of BENCHMARK.json.

A traced run alternates untraced and traced passes, so both paths call
crmlab.  The run writes only under the git-ignored ``.perfbench-out/``;
this test reads ``perfbench/`` and ``BENCHMARK.json`` and changes neither.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run(workload):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", "1", "--scale", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

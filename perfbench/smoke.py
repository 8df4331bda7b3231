"""Tiny-size smoke pass of every benchmark workload.

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json at the tiny scale, untraced and
traced, one process at a time, and fails unless every run is correct and
prints exactly the metric names BENCHMARK.json lists, so a renamed span or
metric fails loudly. Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                    "--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  cwd=ROOT, timeout=300)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append(
                    f"{label}: missing {sorted(expected[trace] - names)}, "
                    f"unexpected {sorted(names - expected[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            print(f"{label}: {len(names)} metrics, "
                  f"attempted={result['attempted']} failed={result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload's generator gives the same request list
for the same seed and a different one for another seed, and that tiny
runs (every workload with ``--trace 0``, one with ``--trace 1``) end
with the result line the driver reads: exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, every metric that
``BENCHMARK.json`` names with its unit, correct outputs and no failed
op.  Exits non-zero at the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_generators() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    for name, phase_class in workloads.PHASES.items():
        phase = phase_class(workloads.TINY)
        first = phase.requests(seed=7, purpose=0, count=phase.min_count)
        again = phase.requests(seed=7, purpose=0, count=phase.min_count)
        other = phase.requests(seed=8, purpose=0, count=phase.min_count)
        check(workloads.requests_digest(first) == workloads.requests_digest(again),
              f"{name}: seed 7 gave two different request lists")
        check(first != other, f"{name}: seeds 7 and 8 gave the same requests")
        print(f"ok   {name}: {len(first)} requests, deterministic in the seed")


def check_run(workload: str, trace: int, expected: dict) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    check(done.returncode == 0, f"{workload} --trace {trace} exited {done.returncode}:\n"
          f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"result keys are {sorted(result)}")
    check(result["correct"] is True, f"{workload}: outputs did not check out")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{workload}: {result['failed']} of {result['attempted']} ops failed")
    check(sorted(result["metrics"]) == sorted(expected),
          f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        entry = result["metrics"][name]
        check(sorted(entry) == ["unit", "value"] and entry["unit"] == unit,
              f"{name}: printed {entry}, expected unit {unit}")
        check(isinstance(entry["value"], (int, float)), f"{name}: value is not a number")
    print(f"ok   {workload} --trace {trace}: {len(expected)} metrics with units")


def main() -> int:
    check_generators()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in bench["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in bench["per_layer"]}
    for workload in bench["workloads"]:
        check_run(workload["name"], 0, end_to_end)
    check_run(bench["workloads"][0]["name"], 1, per_layer)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

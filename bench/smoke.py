"""Smoke run of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced at
--size tiny and checks that each run completes, that its reference checks
ran and passed, and that the result line has the schema BENCHMARK.json
promises: exactly the keys correct, attempted, failed and metrics, and
exactly the metric names and units listed for the mode. It prints every
metric with its unit and each run's operations attempted and failed, and
never gates on a time. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, expected: dict) -> str:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True:
        problems.append("reference checks failed:\n" + done.stderr[-2000:])
    att, fail = res.get("attempted"), res.get("failed")
    if not (isinstance(att, int) and isinstance(fail, int) and 0 <= fail <= att and att >= 1):
        problems.append(f"attempted={att!r} failed={fail!r}")
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics {got} differ from BENCHMARK.json {expected}")
    for k, v in res.get("metrics", {}).items():
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{k} has value {v.get('value')!r}")
    if problems:
        raise SystemExit(f"{workload} trace={trace}: " + "; ".join(problems))
    lines = [f"{workload} trace={trace}: ok, {att} attempted, {fail} failed"]
    lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
    return "\n".join(lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            print(check_run(wl["name"], trace, expected), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

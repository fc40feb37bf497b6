#!/usr/bin/env python3
"""Smoke test of the benchmark harness: runs every workload in --smoke mode
(tiny environment, about a second of work), untraced and traced, and checks
that each run passes its output checks, fails no operation and reports
exactly the metrics BENCHMARK.json names, with their units.

    python3 perfbench/smoke_test.py

Exits 0 when every run passes. The first call builds the harness.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if (result["correct"] is not True or result["attempted"] < 1
                        or result["failed"] != 0):
                    problems.append(f"correct={result['correct']} "
                                    f"attempted={result['attempted']} "
                                    f"failed={result['failed']}")
                if got != want:
                    problems.append(f"metrics {sorted(got)} != {sorted(want)}")
            print(("FAIL " if problems else "ok   ") + label)
            failures += [f"{label}: {p}" for p in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

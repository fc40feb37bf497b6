#!/usr/bin/env python3
"""The repository's end-to-end benchmark: training, rollout and serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
libraries, agsc_worker, agsc_serve and the agsc_perfbench harness
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs only check the build is current. The harness then runs
one workload (see BENCHMARK.json for the workloads and metrics):

  --trace 0  end-to-end metrics, no spans or layer replays.
  --trace 1  per-layer metrics from spans around each public call and from
             replays of single layers on the workload's own data.

Both modes check the outputs. Stdout carries a provenance line (date, git
commit or source digest, build string, nproc, seed, workload details and
the tracing overhead against the last untraced run of the workload) and,
as its last line, the result object {"correct", "attempted", "failed",
"metrics"}. Every result is also appended to <build dir>/results/.

--smoke runs a tiny-budget version of the workload (perfbench/smoke_test.py
runs it for every workload); its results are not comparable.
"""

import argparse
import datetime
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_w1", "rollout_proc4_poi1k", "serve_act_tcp")
TARGETS = ("agsc_perfbench", "agsc_worker", "agsc_serve")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out_dir):
    """Configures (once) and builds the harness and the binaries it runs."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a checkout of the repository")
    cmake_dir = out_dir / "perfbench"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", *TARGETS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return cmake_dir


def git_commit():
    """HEAD of the repository at ROOT; None when ROOT is not the top of a
    git work tree (a plain checkout, or one nested in another repository)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    """SHA-256 over the sources the benchmark builds, identifying the code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(cmd):
    """Runs the harness in its own process group, so a timeout also stops
    the servers and workers it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("harness printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    out_dir = build_root()
    cmake_dir = build(out_dir)
    work_dir = out_dir / "work" / (args.workload + ("_smoke" if args.smoke else ""))
    cmd = [str(cmake_dir / "agsc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", str(cmake_dir / "agsc_tools"),
           "--work-dir", str(work_dir)]
    if args.smoke:
        cmd.append("--smoke")
    raw = run_harness(cmd)

    metrics = raw["metrics"]
    expected = expected_metrics(bool(args.trace))
    if expected is not None:
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != expected:
            fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
                 f"{sorted(expected.items())}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} has no value")

    info = raw.get("info", {})
    if info.get("check_failures"):
        print("perfbench: output check failed: " + info["check_failures"],
              file=sys.stderr)
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    log_path = results_dir / (args.workload + ("_smoke" if args.smoke else "")
                              + ".jsonl")
    if args.trace and log_path.is_file():
        untraced = [json.loads(line) for line in log_path.read_text().splitlines()
                    if line.strip()]
        untraced = [r for r in untraced if r["trace"] == 0]
        if untraced and "traced_op_p50_ms" in info:
            base = untraced[-1]["metrics"]["op_p50_ms"]["value"]
            info["trace_overhead"] = info["traced_op_p50_ms"] / base - 1.0
    provenance = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    with log_path.open("a") as log:
        log.write(json.dumps({**provenance, "info": info, **result}) + "\n")
    print(json.dumps({"provenance": provenance, "info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

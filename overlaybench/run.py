#!/usr/bin/env python3
"""Builds and runs the end-to-end overlay benchmark.

Run from the repository root:

    python3 overlaybench/run.py --workload feed_fanout --seed 1 --seconds 20 --trace 0

It builds the program from ../src together with the benchmark (CMake,
Release) into $CARGO_TARGET_DIR/overlaybench (default .bench_build), runs one
workload, and prints two lines: a report with host metadata and every
diagnostic the run produced, then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones.
It exits 1 when a delivery disagrees with the oracle, and 2 (printing no
result) when it cannot build or run the program.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"overlaybench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "overlaybench"


def build(out):
    if not (REPO_ROOT / "src" / "pubsub").is_dir():
        fail(f"program sources not found under {REPO_ROOT / 'src'}")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (out / "CMakeCache.txt").exists():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(out), "-j", "3"], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = out / "overlay_bench"
    if not binary.exists():
        fail(f"{binary} missing after build")
    return binary


def commit():
    """The checked-out commit, or a digest of the program sources when the
    checkout is not a git repository."""
    try:
        head = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted((REPO_ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(REPO_ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()


def expected_metrics(trace):
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rounds", type=int, default=0,
                        help="fixed number of repetitions of the round instead of --seconds")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    load_start = os.getloadavg()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.rounds:
        command += ["--rounds", str(args.rounds)]
    spans = None
    if args.trace:
        spans = out / "spans" / f"{args.workload}-seed{args.seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    want = expected_metrics(args.trace)
    if {k: v["unit"] for k, v in metrics.items()} != want:
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}")
    finite = all(math.isfinite(v["value"]) for v in metrics.values())

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start[0],
        "loadavg_end": os.getloadavg()[0],
        "build_type": BUILD_TYPE,
        "commit": commit(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "spans": str(spans) if spans else None,
        "diagnostics": {k: v["value"] for k, v in result["report"].items()},
    }
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": metrics}, indent=1))
    print(json.dumps({"report": report}))

    correct = bool(result["correct"]) and finite and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the pmps benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The pmps_bench binary is built with
CMake (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; a build that is up to
date costs about a second. The last line of stdout is the result JSON of
the run; traced runs also write a Chrome trace-event file next to the
build. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds pmps_bench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"),
                      "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "pmps_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    exe = build_dir / "pmps_bench"
    return exe if exe.exists() else None


def git_sha(root):
    """HEAD of the tree when it is a git work tree of its own, else "none"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or Path(out[0]) != root:
        return "none"
    return out[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = root / out_root
    build_dir = out_root / "perfbench"
    exe = build(root, build_dir)
    if exe is None:
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root)]
    if args.trace:
        trace_dir = out_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"pmps_bench exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("pmps_bench printed a malformed result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

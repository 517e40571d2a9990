#!/usr/bin/env python3
"""Builds the CMSF benchmark from source and runs one workload.

Run from the root of the repository (or of a checkout of it):

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 16 --trace 0

The first call configures and builds perfbench/ (plus the library sources
under src/) into .bench_build/perfbench; later calls only re-check the
build. The workload runs in a child process with a fixed environment:
UV_THREADS=2 and every other UV_* variable removed, so the obs sinks
(UV_TRACE, UV_METRICS, UV_EXPORT) stay off. The child prints its checks and
metrics and, as the last line of standard output, one JSON result; this
script passes that output through and exits with the child's code.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train_full", "train_sharded", "serve_mixed")
THREADS = "2"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; build logs go to
    stderr so standard output carries only the benchmark's own lines."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {root / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build"
    binary = build(root, out_dir / "perfbench")
    tmp_dir = out_dir / "perfbench-tmp"
    trace_dir = out_dir / "perfbench-traces"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith("UV_")}
    env["UV_THREADS"] = THREADS
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp-dir", str(tmp_dir),
           "--trace-out",
           str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the simdb repository benchmark (see NOTES.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lookup_small --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the simdb library from src/
plus simdb_perfbench) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later runs only re-check the build. Build output
goes to stderr. The benchmark's stdout is passed through, so the last line is
the JSON result. Exits non-zero, without a result, when the build or the run
fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds simdb_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no simdb sources under src/; run from the root of a checkout")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) != 0:
            fail("build failed")
    binary = os.path.join(build_dir, "simdb_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no simdb_perfbench binary")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        if lines and lines[-1].startswith("{"):
            lines.pop()  # a failed run prints no result
        sys.stdout.write("".join(line + "\n" for line in lines))
        fail("simdb_perfbench exited with code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

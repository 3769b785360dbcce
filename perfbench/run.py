#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serial_refresh --seed 1 \\
        --seconds 20 --trace 0

The first run configures and builds the repository's libraries and the
benchmark driver (perfbench/CMakeLists.txt) into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build.  Later runs rebuild only what
changed.  Build output goes to stderr; the driver's run record goes to
stdout and its last line is the JSON result.  Traced runs (--trace 1)
write their spans as Chrome trace-event JSON under <build>/traces/.

Exits non-zero without a result when the source tree or the build is
missing or broken.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serial_refresh", "dense_sharded", "pipelined_ops")
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configure (once) and build the driver; returns its path or None."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "bda_perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                print("perfbench: build step failed: " + " ".join(cmd),
                      file=sys.stderr)
                return None
    exe = os.path.join(out, "bda_perfbench")
    return exe if os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--slow-forecast-s", type=float, default=None,
                    help="self-test fault: slow every pipelined_ops forecast")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no repository source tree next to perfbench/",
              file=sys.stderr)
        return 1
    out = build_dir()
    exe = build(out)
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.slow_forecast_s is not None:
        cmd += ["--slow-forecast-s", repr(args.slow_forecast_s)]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

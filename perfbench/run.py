#!/usr/bin/env python3
"""Runs one benchmark workload and prints its report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
the program's libraries, the dr82d daemon and the benchmark runner from
source (Release) under .bench_build/ (or $CARGO_TARGET_DIR); later calls
rebuild only what changed. The build is not part of any measurement.

The runner runs the workload for a timed window, checks every output, and
prints a meta line (cores, threads, hash backend, source revision) and then
the result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the run's spans as Chrome trace-event JSON under the build
directory's traces/. --toy shrinks every workload, for the smoke test.
The exit status is 0 only when every check passed.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-alg5-n6400", "sim-phase-king-pooled", "daemon-mixed")
RUNNER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "dr82-perfbench")


def build(out_dir):
    """Configures and builds the runner; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under src/ to build",
              file=sys.stderr)
        return None
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    env = checkout_env(out_dir)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", out_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "perfbench_runner"]]
        for step in steps:
            # Build chatter goes to stderr: stdout carries only the report.
            if subprocess.run(step, stdout=sys.stderr, cwd=ROOT,
                              env=env).returncode:
                print("perfbench: build failed: " + " ".join(step),
                      file=sys.stderr)
                return None
    return os.path.join(out_dir, "perfbench_runner")


def checkout_env(out_dir):
    """The environment for the build and the runner: temporary files go
    under the build directory, so nothing is written outside the tree."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    runner = build(out_dir)
    if runner is None:
        return 2
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha()]
    if args.toy:
        command.append("--toy")
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    # Own process group, so a timeout takes down the runner and every endpoint
    # process it spawned.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True,
                            env=checkout_env(out_dir))
    try:
        stdout, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: runner timed out", file=sys.stderr)
        return 3
    lines = stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stderr.write(stdout)
        print("perfbench: runner printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

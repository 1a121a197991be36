#!/usr/bin/env python3
"""Builds the end-to-end benchmark (Release) and runs one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload static_exact --seed 1 --seconds 10 \
        --trace 0

Workloads: static_exact, static_early_stop, dyn_churn. The benchmark binary
is configured from e2ebench/CMakeLists.txt into .bench_build/e2ebench and
reuses that build on later runs. Artifacts of a run go to a working
directory under .bench_build that is removed afterwards; a traced run also
leaves its span CSV in .bench_build/e2ebench-work/.

The last line of stdout is the result JSON printed by the binary:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when the build fails, an answer check fails, or the run times out.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "e2ebench-work")
WORKLOADS = ("static_exact", "static_early_stop", "dyn_churn")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = os.path.join(WORK_ROOT,
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    # A SIGTERM unwinds through the finally below, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    for line in lines[:-1]:  # Provenance stamp.
        print(line)
    if not lines:
        print(f"e2ebench: no result (exit {proc.returncode})", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"e2ebench: malformed result line: {lines[-1]}", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("e2ebench: result has unexpected keys", file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

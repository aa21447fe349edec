#!/usr/bin/env python3
"""Build and run one nestwx benchmark workload.

    python3 perfbench/run.py --workload serve_drain --seed 1 --seconds 10 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
The first call configures and builds `nestwx-perfbench` (the nestwx
libraries plus the benchmark) under `$CARGO_TARGET_DIR`, default
`.bench_build`; later calls rebuild incrementally. The program's output is
passed through; its last line is the result JSON. The exit code is the
program's (0 only when every output check passed), or non-zero without a
result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("serve_drain", "campaign_cold", "campaign_warm",
             "campaign_faulted", "swm_nested_hour")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    bench_build = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", bench_build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", bench_build, "--target",
                  "nestwx-perfbench", "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path, 3)
            if done.returncode != 0:
                if step is steps[0] and len(steps) == 2:
                    # A failed configure must not leave a cache that skips
                    # configuring next time.
                    shutil.rmtree(bench_build, ignore_errors=True)
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed (" + " ".join(step[:2]) + "); see " + log_path, 3)
    return os.path.join(bench_build, "nestwx-perfbench")


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the library sources, so results from different code never share an id."""
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt", "perfbench"):
        path = os.path.join(root, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as data:
                digest.update(data.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    trace_file = os.path.join(build_dir, "traces",
                              "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--work-dir=" + work_dir,
               "--trace-file=" + trace_file, "--source-root=" + root,
               "--commit=" + source_id(root)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out", 4)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError("unexpected keys %s" % sorted(result))
    except ValueError as error:
        sys.stdout.write(done.stdout)
        fail("no result line from the benchmark (%s)" % error, 5)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload serve_lookup --seed 1 \
        --seconds 10 --trace 0

Builds servebench/ (and the rdfdb libraries it pulls in from src/) with
CMake into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench),
then runs the benchmark binary. The binary's standard output passes through
unchanged; its last line is the JSON result. Build output goes to
standard error. A full record of each run, with the environment stamp,
is written under <build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

# The binary itself stays well under this; a run that hangs is killed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) == 0


def source_stamp(root):
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def workload_why(root, workload):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return ""
    for w in spec.get("workloads", []):
        if w.get("name") == workload:
            return w.get("why", "")
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "servebench")
    if not build(bench_dir, build_dir):
        log("servebench: build failed")
        return 1

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", results, "--commit", source_stamp(root),
           "--why", workload_why(root, args.workload)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("servebench: run exceeded %d s, killed" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        pass
    proc.kill()
    proc.wait()
    return 1


if __name__ == "__main__":
    sys.exit(main())
